(** Union-find with relations: disjoint sets over a growable universe,
    with a mergeable payload maintained at every set root.

    Path compression and union by rank give amortized near-constant
    operations; the payload merge function runs exactly once per actual
    root merge. The universe only grows — the incremental maintainer
    handles splits by {e abandoning} stale roots and minting fresh exact
    ones from a scoped re-decomposition, never by un-merging. *)

type 'a t

val create : ?capacity:int -> merge:('a -> 'a -> 'a) -> unit -> 'a t
(** [create ~merge ()] is an empty structure. [merge kept absorbed] is
    called on the surviving root's payload and the absorbed root's
    payload; its result becomes the surviving root's payload. *)

val fresh : 'a t -> 'a -> int
(** Mint a new singleton set with the given payload; returns its node id. *)

val length : 'a t -> int
(** Number of nodes ever minted. *)

val find : 'a t -> int -> int
(** The name of [x]'s set: the node id that identifies the set (a
    singleton's own id; after {!union} or {!hang}, the surviving name). *)

val same : 'a t -> int -> int -> bool

val get : 'a t -> int -> 'a
(** Payload at the root of [x]'s set. *)

val set : 'a t -> int -> 'a -> unit
(** Replace the payload at the root of [x]'s set. *)

val union : 'a t -> int -> int -> int
(** Merge two sets (payloads combined by [merge]); returns the surviving
    name, chosen by union by rank over the names. *)

val hang : 'a t -> int -> root:int -> unit
(** [hang t x ~root] folds [x]'s set into the set named [root] (which
    must be a name) and drops [x]'s payload: the caller has already
    folded it into [root]'s. Unlike {!union} it merges no payloads and
    reads no name ranks, so the merged set is named [root] with its rank
    unchanged, and nodes of either set resolve to [root]. The forest
    links the two trees by its own rank, so a fresh [root] goes under a
    larger set's tree and that set's nodes resolve in no more reads than
    before. *)

val abandon : 'a t -> int -> unit
(** Drop the payload at [x]'s root so it can be collected. The caller
    must stop referencing the set afterwards (used when a scoped
    re-decomposition replaces a stale component record with fresh ones). *)
