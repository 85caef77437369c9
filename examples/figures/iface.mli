(** Interfaces of parts (Observation 3.2): the PQ-tree over a part's
    half-embedded edges, built from its biconnected-component
    decomposition.

    Children of a Q node follow the fixed cyclic order of attachment
    points around one biconnected component (free only up to a flip,
    Figure 2); children of a P node hang at a cut vertex or fan out of a
    single vertex and may be permuted freely (Figure 3). Leaves are the
    part's half-embedded edges as [(inside, outside)] global pairs.

    This is the figures demo's construction (Figures 2–4). The embedder
    does not build it: it ships the realized outer order's cyclic runs,
    sized by [Part.iface_bits]. *)

val of_part :
  Gr.t -> part:int list -> half:(int * int) list -> (int * int) Pqtree.t option
(** [of_part g ~part ~half] is the interface tree of the (connected) part,
    or [None] if some biconnected component of the part cannot place its
    attachment points on a single face — which, for a safe partition of a
    planar network, never happens.

    When the part has no half-embedded edges the result is an empty P
    node. *)
