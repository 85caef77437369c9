(** Rotation systems (combinatorial embeddings) and their verification.

    A rotation system assigns to every vertex a cyclic (clockwise) order of
    its incident edges; by Edmonds' theorem (cited as [Edm60] in the paper)
    such a system determines an embedding of the graph on an orientable
    surface, and the embedding is planar iff the face count satisfies
    Euler's formula [n - m + f = 2] (for a connected graph).

    This module is the *independent verifier* used throughout the test
    suite: the distributed embedder's output is accepted only if
    {!is_planar_embedding} holds. *)

type t
(** A validated rotation system for a fixed graph. *)

val make : Gr.t -> int array array -> t
(** [make g rot] validates that [rot.(v)] is a permutation of
    [Gr.neighbors g v] for every [v] and packages the system (a copy of
    [rot]; the caller keeps its arrays). O(n + m): each rotation entry
    resolves to its dart through a per-vertex slot map, with no dart
    search. @raise Invalid_argument otherwise. *)

val make_owned : Gr.t -> int array array -> t
(** [make_owned g rot] is [make g rot] without the copy: the result
    takes ownership of [rot] and its rings, which the caller must not
    touch again. Same validation, same exceptions. For callers that
    build the rings only to hand them over. *)

val rotation : t -> int -> int array
(** The cyclic neighbor order at a vertex (starting point arbitrary). *)

val graph : t -> Gr.t

val succ : t -> int -> int -> int
(** [succ r v u] is the neighbor following [u] in the cyclic order at [v].
    @raise Not_found if [u] is not adjacent to [v]. *)

val of_sorted_adjacency : Gr.t -> t
(** The rotation that lists neighbors in increasing id order — usually not
    planar; a convenient arbitrary rotation for tests. *)

val mirror : t -> t
(** The reflected embedding: every cyclic order reversed. Mirroring
    preserves the genus (faces map to reversed faces), which is why a
    part's interface is only ever determined "up to a flip" (Figure 2 of
    the paper). *)

val faces : t -> (int * int) list list
(** Faces as orbits of directed darts under [next (u, v) = (v, succ v u)].
    Every dart appears in exactly one face. *)

val face_next : t -> int -> int
(** [face_next r d] is the successor of dart [d] (a {!Gr} dart id) on
    its face: the dart [v -> succ r v u] for [d = u -> v]. O(1), no
    allocation. *)

val pos : t -> int -> int
(** [pos r d] is the index of dart [d]'s source in the rotation of its
    head: for [d = u -> v], [(rotation r v).(pos r d) = u]. So rotation
    entry [i] of [v] is the dart of [v]'s CSR slice whose [pos] is [i].
    O(1), no allocation. *)

val face_count : t -> int

val genus : t -> int
(** The orientable genus of the embedding, from Euler's formula
    [n - m + f = 2 - 2g] per connected component (computed component-wise
    and summed). [genus r = 0] iff the rotation system is planar. *)

val genus_of_faces :
  n:int ->
  off:int array ->
  srcs:int array ->
  face_next:int array ->
  seen:Bytes.t ->
  queue:int array ->
  int
(** The face-tracing Euler check behind {!genus}, on a raw dart table:
    [off]/[srcs] are CSR offsets and dart sources as in
    {!Gr.dart_offsets}/{!Gr.dart_sources}, and [face_next] maps each
    dart to its successor on its face. [seen] (at least
    [max n darts] bytes) and [queue] (at least [n]) are scratch. The
    result is the genus only if [face_next] is the face permutation of
    a rotation system of that table; callers that build [face_next]
    themselves must check that first. Allocates nothing. *)

val is_planar_embedding : t -> bool
(** [true] iff the rotation system embeds the graph in the plane
    (genus 0). Works for disconnected graphs (each component planar). *)

val face_of_dart : t -> int * int -> (int * int) list
(** The face containing the given directed dart.
    @raise Invalid_argument if the dart is not an edge of the graph. *)
