(** The dual of a combinatorial embedding.

    Once a rotation system is known (the embedder's output), the faces of
    the embedding are concrete objects; the dual graph has one vertex per
    face and one edge per primal edge, connecting the faces on its two
    sides. The dual is where many planar-graph algorithms live (cuts are
    dual cycles, face routing walks dual paths), which is exactly why the
    paper treats computing the embedding as "the first algorithmic step".

    The raw dual of a planar graph is a multigraph (a bridge yields a
    self-loop, two faces can share several edges); {!adjacency} exposes it
    with multiplicity while {!simple} collapses it for algorithms that
    want a {!Gr.t}.

    A test oracle: its face table comes straight from {!Rotation.faces},
    so test_props counts an embedding's faces for Euler's formula
    independently of the face counter under test; test_apps checks the
    oracle itself. *)

type t

val make : Rotation.t -> t
(** Builds the face structure of the given rotation system (any genus;
    pair with {!Rotation.is_planar_embedding} when planarity matters). *)

val n_faces : t -> int

val face_of_dart : t -> int * int -> int
(** The face whose boundary traverses the given dart.
    @raise Not_found if the dart is not in the graph. *)

val boundary : t -> int -> (int * int) list
(** The directed boundary walk of a face. *)

val degree : t -> int -> int
(** Boundary length of a face (counts repeated edges twice, so the sum of
    all degrees is [2m]). *)

val adjacency : t -> int -> (int * int) list
(** [adjacency d f] lists [(f', e)] pairs: one per boundary dart of [f],
    where [e] is the primal edge's dense index and [f'] the face on the
    other side (possibly [f] itself across a bridge). *)

val simple : t -> Gr.t
(** The dual as a simple graph (self-loops dropped, parallel edges
    collapsed); vertex [i] is face [i]. *)

(** Hop distance between two faces in the simple dual; [-1] if separated
    (cannot happen for a connected primal graph). *)
