(** The symmetry-breaking routine of Lemma 5.3.

    Input: the inter-part graph of one recursion call (an outerplanar
    graph: the parts hang off the path [P0] inside a planar graph) with a
    proper node coloring — the paper colors each part by its lowest
    [P0]-connection point, and after the same-color vertex-coordinated
    merges, adjacent parts have distinct colors.

    Output, computed from [O(1)] rounds' worth of neighborhood information
    (which Remark 1 turns into [O(D)] network rounds per part-level round):

    - disjoint {e star groups} of size at least two, each inducing a star;
    - a partition of the remaining ("contracted", in the paper's phrasing)
      nodes into {e color-monotone paths} (colors strictly decrease along
      each path; singleton paths are allowed for nodes nothing points at).

    The PODC extended abstract defers the concrete algorithm to its full
    version; this implementation uses minimum-color pointer forests (each
    node points to its smallest-colored smaller neighbor, so pointer chains
    are automatically color-monotone; local minima, then nodes two or more
    others point at, become star centers) and is validated by the property
    tests of [test_symmetry.ml] and measured by experiments E5/E6. See
    DESIGN.md, "Substitutions". *)

type grouping = {
  stars : (int * int list) list;
      (** [(center, leaves)]: disjoint, sizes ≥ 2, each inducing a star. *)
  paths : int list list;
      (** color-monotone paths (decreasing color), partitioning every node
          that is in no star. *)
}

val compute : Gr.t -> colors:int array -> grouping
(** @raise Invalid_argument if the coloring is not proper. *)

val part_level_rounds : int
(** The number of part-level communication rounds the routine needs (a
    constant, as Lemma 5.3 requires); each costs [O(max part depth)]
    network rounds by Remark 1. *)

val check : Gr.t -> colors:int array -> grouping -> bool
(** Test oracle for the guarantees listed above. *)
