(** Parts of the embedding algorithm's partition (Section 3 of the paper).

    A part is a connected set of vertices together with the distributed
    machinery the algorithm maintains for it: a leader, a low-depth
    spanning tree used for internal upcasts/downcasts, and the size of its
    compressed interface summary — the number of bits the part ships when
    it takes part in a merge. Creating a part checks that its partial
    embedding exists (all half-embedded edges on one face, via the apex
    construction of {!Constrained}) and reads the realized outer order off
    it; the embedding itself is not kept.

    {e Anchors} implement step 2(e) of the Section 5.3 algorithm: when a
    vertex-coordinated merge around a [P0]-vertex [i] could blow up a
    part's diameter, the paper "splits off a copy" of [i] into the part.
    Here the copy is realized by letting the part's spanning tree route
    through [i] (the congestion on [i]'s real edges is charged normally),
    which restores [O(D)] depth exactly as in the paper. *)

type t = {
  id : int;
  vertices : int list;
  leader : int;  (** maximum id in the part. *)
  tree : int array;
      (** the spanning tree's vertices: the members in [vertices] order,
          then the anchors that are not members. *)
  up : int array;
      (** [up.(i)] is the position in [tree] of [tree.(i)]'s parent; the
          leader's is its own. *)
  plan : Costmodel.plan;
      (** the charge of an aggregation over the part: its member-leader
          tree edges, fixed at install (the tree never changes). *)
  depth : int;  (** the tree's depth, anchors included. *)
  anchors : int list;
  trivial : bool;  (** induces a tree (Definition preceding Def. 3.1). *)
  n_bicon : int;  (** biconnected components of the induced subgraph. *)
  half : (int * int) list;  (** half-embedded edges at creation time. *)
  iface_bits : int;  (** compressed interface size in bits. *)
}

exception Nonplanar_detected of string
(** Raised as soon as some partial embedding fails — for a safe partition
    this certifies the whole network non-planar. *)

type workspace
(** The scratch one run's installs share, sized to the network: a
    constrained-embedding workspace and the stamped arrays and queue of
    the spanning-tree BFS. Parts are installed one at a time, so each
    install reuses it and allocates little beyond the part's own record.
    Not thread-safe: one per run. *)

val workspace : Gr.t -> workspace

val embedding : workspace -> Constrained.workspace
(** The constrained-embedding workspace every install loads into. *)

val create :
  Gr.t ->
  workspace ->
  classify:(int -> int) ->
  half:(int * int) list ->
  id:int ->
  vertices:int list ->
  anchors:int list ->
  t
(** Build a part over the given (connected) vertex set. [classify] maps an
    outside endpoint to its communication class (the embedder passes the
    endpoint's current part id): consecutive half-embedded edges of the
    same class collapse into one compressed interface leaf — the paper's
    "only essential degrees of freedom" compression (its Section 7.1.4).
    The part is loaded into the workspace's [embedding], which holds it
    and its embedding until the next install.
    @raise Nonplanar_detected when no embedding places all half-embedded
    edges on one face. *)

val path_to_leader : t -> int -> int list
(** Tree path from a member (or anchor) up to the leader, inclusive.
    @raise Invalid_argument for a vertex outside the tree. *)

val word : Gr.t -> int
(** Bits of one identifier. *)
