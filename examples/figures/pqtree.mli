(** PQ/PC-style interface trees — Observation 3.2 of the paper.

    The {e interface} of a part is the set of cyclic orders of its
    half-embedded edges that some planar embedding of the part realizes.
    The paper observes that this set is exactly captured by the part's
    biconnected-component decomposition: each biconnected component
    contributes a fixed cyclic order up to a flip (a {e Q node}), and each
    cut vertex lets the components around it be permuted freely (a
    {e P node}). Leaves are the half-embedded edges themselves.

    This module is the data structure (the paper's stand-in for compressed
    PQ-trees, see Section 1.2 and Section 7.1.4 of its full version): it
    supports the two degrees of freedom of Figure 4 — flipping a Q node and
    permuting a P node — plus the run-length compression of Section 1.2.
    It serves the figures demo and its tests; the embedder sizes a part's
    interface from the realized outer order instead ([Part.iface_bits]). *)

type 'a t =
  | Leaf of 'a
  | Q of 'a t list  (** fixed order, free only up to reversal. *)
  | P of 'a t list  (** freely permutable children. *)

val leaves : 'a t -> 'a list
(** Left-to-right leaf sequence (one representative order). *)

val size : 'a t -> int
(** Total node count. *)

val flip : 'a t -> path:int list -> 'a t
(** [flip t ~path] reverses the children of the Q node reached by following
    child indices [path] from the root (Figure 4(c)).
    @raise Invalid_argument if the path is invalid or reaches a non-Q node. *)

val permute : 'a t -> path:int list -> perm:int array -> 'a t
(** [permute t ~path ~perm] reorders the children of the P node at [path]
    by the permutation [perm] (Figure 4(d)).
    @raise Invalid_argument if the path is invalid, the node is not a P
    node, or [perm] is not a permutation of its children. *)

val enumerate_orders : 'a t -> 'a list list
(** All leaf orders obtainable by flips and permutations, as linear
    sequences read from the root (exponential; for tests on small trees).
    Duplicates are removed. *)

val count_orders : 'a t -> int
(** [List.length (enumerate_orders t)] without materializing duplicates
    naively — still exponential in the worst case; tests only. *)

val compress : ('a -> 'b) -> 'a t -> ('b * int) t
(** [compress classify t] collapses maximal runs of same-class sibling
    leaves into a single [(class, run-length)] leaf and flattens
    single-child internal nodes. This is the "essential degrees of freedom"
    compression: half-embedded edges that attach consecutively to the same
    destination need not be distinguished when shipping an interface. *)

val bits : leaf_bits:('a -> int) -> 'a t -> int
(** Serialized size in bits: 2 bits of structure per node plus
    [leaf_bits] per leaf. *)

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
