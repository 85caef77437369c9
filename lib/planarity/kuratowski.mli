(** Non-planarity certificates: Kuratowski subdivisions.

    When the embedder rejects a network, this module produces a checkable
    witness: an edge-minimal non-planar subgraph, which by Kuratowski's
    theorem is a subdivision of [K5] or [K3,3]. Extraction uses the
    one-pass edge-filtering argument — the "non-planar" property is
    monotone under edge addition, so after a single pass in which every
    edge whose removal preserves non-planarity is dropped, each surviving
    edge is critical.

    The witness is verified independently by {!classify}: suppressing
    degree-2 vertices must yield exactly [K5] (5 vertices of degree 4, 10
    edges) or [K3,3] (6 vertices of degree 3, 9 edges, bipartite). *)

type kind = K5 | K33

val witness : Gr.t -> Gr.edge list option
(** [witness g] is [None] when [g] is planar; otherwise the edges of an
    edge-minimal non-planar subgraph of [g]. Costs [O(m)] planarity
    tests. *)

val classify : Gr.t -> Gr.edge list -> kind option
(** [classify g edges] checks that [edges] (a subset of [g]'s edges)
    induce a subdivision of a Kuratowski graph and says which one;
    [None] if the edge set is not such a subdivision. *)

val witness_exn : Gr.t -> Gr.edge list * kind
(** @raise Invalid_argument if the graph is planar or the extracted
    witness fails verification (which would indicate a bug). *)
