(** Interval sets: sets of non-negative ints stored as sorted, disjoint,
    non-adjacent [(lo, hi)] runs in flat arrays.

    This is the incremental maintainer's {e edge-set-per-component}
    representation (after the interval-set idiom used for mergeable
    per-group state in constraint compilers): edge slots are allocated
    densely, so a biconnected component's slot set is a few long runs —
    O(runs) union when two components merge, O(cardinal) enumeration
    when a component is re-embedded, O(log runs) membership. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty set; [capacity] pre-sizes the run arrays. *)

val cardinal : t -> int
(** Number of covered integers, in O(1). *)

val mem : t -> int -> bool
(** Membership, in O(log runs). *)

val add : t -> int -> unit
(** Insert one element, coalescing with adjacent runs.
    O(runs) worst case (array shift), O(1) amortized for the dense
    ascending allocation pattern of edge slots.
    @raise Invalid_argument on a negative element. *)

val remove : t -> int -> unit
(** Remove one element (no-op if absent), splitting a run if needed. *)

val union_into : dst:t -> src:t -> unit
(** Destructive union: [dst] becomes [dst ∪ src] by a linear merge of the
    run lists. [src] must not be used afterwards — the maintainer calls
    this exactly once per union-find root merge. *)

val iter : t -> (int -> unit) -> unit
(** Enumerate elements in increasing order; O(cardinal). *)

val intervals : t -> (int * int) list
