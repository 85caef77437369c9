(** Incremental planar embedding under edge churn.

    Maintains a genus-0 rotation system of a changing edge set over a
    fixed vertex universe without re-running the planarity kernel from
    scratch on every update:

    - {b insert, fast path}: if the endpoints already share a face of the
      current embedding, the new edge is spliced into that face in time
      proportional to the faces around the smaller-degree endpoint — no
      kernel run at all.
    - {b insert, slow path}: otherwise the scope is the union of the
      biconnected components along one endpoint-to-endpoint path
      (tracked conservatively in a union-find-with-relations over edge
      slots), plus the new edge. The maintainer first re-embeds regions
      around the path: the path grown by radius 0, 1, 2, 4, ... over
      the scope's edges, with every small component of the rest
      absorbed and every large one kept as it is and stood in for by a
      wheel of its boundary. An accepted region rewrites only its own
      vertices' rings. A region the kernel refuses is never a verdict;
      once a region's instance would exceed half of the scope, the
      whole scope goes through the kernel, and only that run can reject
      the insert. Every run is assembled and embedded in a kernel
      workspace the maintainer keeps ({!Lr.embed_pairs}), and its
      checked ring is merged back in place. Rejection (the edge would
      make the graph non-planar) leaves the state untouched. Once the
      workspace has grown to the largest scope, a re-embed allocates
      almost nothing.
    - {b delete}: O(degree) unsplicing — a plane embedding minus an edge
      is still plane. Component records go stale-conservative and are
      re-tightened by scoped re-decomposition, amortized O(1) per
      delete.

    See DESIGN.md §15 for the data structure and the correctness
    argument for merge-back. *)

type t

(** Outcome of {!insert}. *)
type update =
  | Fast  (** spliced into a shared face; no kernel run *)
  | Linked  (** endpoints were in different connected components *)
  | Reembedded of int
      (** accepted by a slow-path kernel run over this many edges (the
          deciding run: a region's instance, or the whole scope) *)
  | Rejected  (** edge would break planarity; state unchanged *)
  | Duplicate  (** edge already present; state unchanged *)

type stats = {
  mutable fast : int;
  mutable linked : int;
  mutable reembedded : int;
  mutable rejected : int;
  mutable duplicates : int;
  mutable deletes : int;
  mutable missing : int;  (** deletes of absent edges *)
  mutable rescopes : int;  (** scoped re-decompositions after deletes *)
  mutable regional : int;
      (** slow-path inserts a region decided (a subset of [reembedded]) *)
  mutable kernel_edges : int;
      (** edges fed through the kernel, over every run: failed regions,
          the deciding run and rejections *)
  mutable face_steps : int;  (** darts visited by fast-path face walks *)
}

val create : Gr.t -> t
(** Embed [g] from scratch and start maintaining it.
    @raise Invalid_argument if [g] is not planar. *)

val of_rotation : Rotation.t -> t
(** Start from an existing embedding (kept verbatim).
    @raise Invalid_argument if it is not genus 0. *)

val insert : t -> int -> int -> update
(** [insert t u v] adds the edge [{u, v}] if doing so keeps the graph
    planar, returning how it was accommodated.
    @raise Invalid_argument on out-of-range or equal endpoints.
    @raise Lr.Embedding_invalid if the slow path's kernel output fails
    its checks or disagrees with the maintained rings (an internal
    inconsistency, never raised on a correct build; the maintainer's
    state is then unspecified). *)

val delete : t -> int -> int -> bool
(** [delete t u v] removes the edge if present; [false] if absent. *)

val mem : t -> int -> int -> bool

val m : t -> int
(** Live edges currently embedded. *)

val live_edges : t -> (int * int) list

val rotation : t -> Rotation.t
(** Materialize the current embedding as an immutable {!Rotation.t}
    (O(n + m); uses the validated-path fast constructor). *)

val validate : t -> bool
(** Full Euler re-check of the maintained embedding (test hook). *)

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
