(** Exact primitives and validity checks for straight-line grid drawings.

    All predicates are computed in machine-integer arithmetic, which is
    exact for the coordinate ranges this library produces: Schnyder
    coordinates are bounded by the grid side [n - 2], so every cross
    product here stays far below [max_int]. No floating point is
    involved anywhere, which is what makes the routing engine's
    geometric decisions ({!Route}) deterministic and the test-suite
    verdicts trustworthy.

    Two validity checks are provided, one per scale:

    - {!first_crossing} is the exhaustive O(m²) oracle: it examines
      every pair of edges and reports the first pair that intersects
      anywhere except at a shared endpoint. Definitive on any graph,
      affordable on small ones.
    - {!valid_triangulation_drawing} is the O(n) check for
      triangulations: if every face of the rotation system is drawn
      with the same strict orientation except exactly one (the outer
      face, reversed), the signed faces tile the outer triangle with
      winding number one everywhere, so the drawing is plane. This is
      the gate the big family sweeps use. A plane drawing of a
      triangulation restricts to a plane drawing of any subgraph, so it
      also certifies the drawing of the embedded input graph. *)

val orient_xy : int -> int -> int -> int -> int -> int -> int
(** [orient_xy ax ay bx by cx cy] is the sign of the cross product
    [(b - a) × (c - a)]: [1] when the triangle [a b c] turns
    counterclockwise (in the usual y-up orientation), [-1] when
    clockwise, [0] when collinear. Allocates nothing. *)

val proper_cross_xy :
  int -> int -> int -> int -> int -> int -> int -> int -> bool
(** [proper_cross_xy px py qx qy ax ay bx by] is [true] iff the open
    segments [(p, q)] and [(a, b)] intersect in exactly one point
    interior to both — the strict crossing test face recovery uses to
    pick its exit edge. Allocates nothing. *)

val first_crossing :
  Gr.t -> x:int array -> y:int array -> ((int * int) * (int * int)) option
(** Exhaustive plane-drawing oracle: the first pair of edges that
    intersect anywhere except at a common endpoint, or [None] if the
    drawing is plane. O(m²) — intended for small graphs in tests. *)

type census = {
  ccw : int;  (** triangular faces drawn counterclockwise *)
  cw : int;  (** triangular faces drawn clockwise *)
  flat : int;  (** triangular faces drawn with zero area *)
  other : int;  (** faces that are not triangles *)
}

val face_census : Rotation.t -> x:int array -> y:int array -> census
(** The orientation of every face of a rotation system's drawing, from
    one walk of its face permutation ({!Rotation.face_next}): no face
    lists, no point tuples. *)

val valid_triangulation_drawing :
  Rotation.t -> x:int array -> y:int array -> bool
(** O(n) plane-drawing check for a rotation system whose faces are all
    triangles: [true] iff no face is degenerate (zero area) and exactly
    one face — the outer one — is oriented oppositely to all others.
    By the winding-number argument above this is equivalent to the
    drawing being plane. *)

val distinct : x:int array -> y:int array -> bool
(** [true] iff all coordinate pairs are pairwise distinct. The points
    are bucketed by x with a counting pass over their bounding box and
    each bucket's y values are checked against one stamp array: O(n + w
    + h) time and words for [n] points in a [w × h] box, no sort.
    @raise Invalid_argument if [w] or [h] exceeds [4n + 1024] (a drawing
    on the [(n - 2)]-grid, the only kind this library makes, has both at
    most [n - 1]). *)

val within_grid : x:int array -> y:int array -> side:int -> bool
(** [true] iff every coordinate lies in [[0, side]] (both axes). *)
