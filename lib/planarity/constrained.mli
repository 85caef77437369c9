(** Outer-face-constrained embedding of a part — the Figure 1(b)
    construction of the paper.

    A {e part} is a vertex subset [P] of the network [G]; its
    {e half-embedded edges} have exactly one endpoint inside [P]. The
    safety property (Definition 3.1) guarantees that [G \ P] is connected
    whenever [P] is non-trivial, so contracting [G \ P] to a single {e apex}
    node preserves planarity, and in any planar embedding of [P] all
    half-embedded edges must reach a single face.

    [embed] realizes this: it embeds the subgraph induced by [P], augmented
    with one {e stub} vertex per half-embedded edge and an apex adjacent to
    all stubs. The result is a partial embedding of [P] with every
    half-embedded edge on one (outer) face, together with the realized
    cyclic order of the half-embedded edges around that face — the part's
    realized {e interface} order. If the augmented graph is not planar then
    (for a safe partition) the whole network is not planar. *)

type item =
  | Internal of int
      (** an embedded edge to the given part vertex (global id). *)
  | Half of int * int
      (** a half-embedded edge [(inside, outside)] in global ids. *)

type t = {
  part : int list;  (** the part's vertices, global ids. *)
  rot : (int, item array) Hashtbl.t;
      (** clockwise cyclic order of items around each part vertex. *)
  outer : (int * int) list;
      (** cyclic order of half-embedded edges [(inside, outside)] around
          the shared face. *)
}

val embed : Gr.t -> part:int list -> half:(int * int) list -> t option
(** [embed g ~part ~half] is [None] iff the apex-augmented part is not
    planar. [half] must list edges of [g] with exactly their inside
    endpoint in [part]; @raise Invalid_argument otherwise. *)

val embed_induced :
  Gr.t ->
  part:int list ->
  half:(int * int) list ->
  Gr.t * int array * (int -> int) ->
  t option
(** [embed_induced g ~part ~half (Gr.induced g part)] is
    [embed g ~part ~half], for callers that already built the part's
    induced subgraph ({!embed} is this with the triple built for you). *)

val rotation_of_full : t -> Gr.t -> Rotation.t
(** When the part covers the whole (connected) graph — so there are no
    half-embedded edges — extract the plain rotation system.
    @raise Invalid_argument if some half-embedded edges remain. *)

val check : Gr.t -> part:int list -> half:(int * int) list -> t -> bool
(** Structural validation used by the test-suite: rotations cover exactly
    the internal edges plus the given half-edges, and [outer] is a
    permutation of [half]. *)
