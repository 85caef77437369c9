(** Schnyder wood and straight-line grid coordinates.

    Given a triangulation ({!Triangulate}), this module computes a
    {e Schnyder wood} — a partition of the interior edges into three
    trees rooted at the three outer vertices — and from it integer
    coordinates on the [(n-2) × (n-2)] grid such that drawing every
    edge as a straight segment yields a plane drawing (no two edges
    cross). This is Schnyder's classical result, and it is what turns
    the combinatorial embedding the paper's algorithm produces into
    actual geometry that the face-routing engine ({!Route}) can
    navigate.

    Construction, in two phases:

    + a {e canonical ordering} is peeled off the triangulation
      decrementally: starting from an outer face [(a, b, c)], the
      vertex [c] and then repeatedly any boundary vertex incident to no
      chord of the current boundary cycle [a → b → … → a] is removed;
      the removed vertex's boundary successor becomes its parent in
      tree 1 (rooted at [a]), its predecessor the parent in tree 2
      (rooted at [b]), and it becomes the tree-0 (up) parent (rooted
      at [c]) of every interior vertex it uncovers. Chord counts are
      maintained incrementally, so the whole ordering is linear time up
      to the union of vertex degrees.
    + coordinates come from the region-count trick: per tree, the depth
      [p] of every vertex and the subtree size [t]; then a traversal of
      each tree accumulating path sums of the other trees' subtree
      sizes yields region counts [r], and [(r0 - p2, r1 - p0)] is the
      grid point of each interior vertex. The three outer vertices are
      pinned to corners of the grid. All traversals are iterative —
      deep triangulations (paths, trees) must not blow the stack.

    {b Orientation.} The outer face [(a, b, c)] is the face orbit
    ({!Rotation.face_next}) of the first edge's dart. With the tree
    assignment above, every rotation runs counterclockwise in the
    drawing (y up): each interior face orbit is drawn clockwise and the
    outer face counterclockwise. {!Route} relies on this. Every drawing
    is checked before it is returned — grid bounds, distinct points,
    and that face orientation, which also proves it plane.

    The result is deterministic for a given rotation system. *)

type t
(** A Schnyder wood of a triangulation together with its grid
    drawing. *)

val of_triangulation : Triangulate.t -> t
(** Compute the wood and the coordinates. For [n <= 2] the degenerate
    drawing places the vertices at distinct points of the unit grid and
    the tree structure is empty.
    @raise Failure if the drawing fails its check (an internal error). *)

val draw : Rotation.t -> t
(** [draw r] is [of_triangulation (Triangulate.make r)] — the one-call
    pipeline from an embedded graph to grid coordinates.
    @raise Invalid_argument if [r] is not planar. *)

val triangulation : t -> Triangulate.t
(** The underlying triangulation (graph, rotation, virtual-edge tags). *)

val coords : t -> int array * int array
(** [(x, y)] coordinate arrays indexed by vertex. Owned by [t]; callers
    must not mutate them. *)

val coord : t -> int -> int * int
(** [coord t v] is the grid point of vertex [v]. *)

val grid_side : t -> int
(** The grid side length: all coordinates lie in [[0, grid_side t]]²;
    equals [max 1 (n - 2)]. *)

val roots : t -> int * int * int
(** [(r0, r1, r2)] = [(c, a, b)]: the outer vertices used as roots of
    trees 0, 1 and 2 respectively (meaningless placeholders when
    [n <= 2]). *)

val parent : t -> int -> int -> int
(** [parent t i v] is the parent of [v] in tree [i] ([0] up, [1]
    successor, [2] predecessor), or [-1] when [v] is the root of that
    tree or not a member (each tree spans the interior vertices plus
    its own root). *)
