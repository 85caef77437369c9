(** Planarity-preserving triangulation of an embedded graph.

    The geometry pipeline (DESIGN.md §14) starts here: a rotation system —
    the embedder's or the LR kernel's output — is completed to a {e maximal}
    planar graph whose every face is a triangle, because that is the input
    the Schnyder-wood coordinate construction ({!Schnyder}) requires. The
    completion happens in three planarity-preserving passes on a mutable
    half-edge copy of the rotation:

    + {e connect}: components beyond the first are attached with one
      bridge edge each (any insertion point keeps genus 0);
    + {e biconnect}: at every vertex, rotation-consecutive neighbors lying
      in different biconnected components are joined, which is always a
      fresh edge (an existing edge would already have merged the blocks)
      and leaves every face a simple cycle;
    + {e triangulate}: each face of length [> 3] is split by fan diagonals,
      shifting the fan apex by one when the wanted chord already exists on
      the far side of the face (the two candidate chords interleave on the
      face cycle, so at most one of them can be present in a planar graph).

    Every edge added by any pass is {e virtual}: it exists so that the
    triangulation is well-formed and carries no capacity in the original
    network, so the routing layer ({!Route}) walks the {!source} graph
    and never traverses or reports it. The original graph's edges and the cyclic
    order of its rotation survive verbatim — the input rotation is the
    restriction of the output rotation to the original edges — so a
    straight-line drawing of the triangulation restricts to a straight-line
    drawing of the input embedding.

    The accepted result is re-validated with the face-tracing Euler check
    (the same discipline as the LR kernel): an internal inconsistency
    raises rather than silently emitting a bad triangulation.

    {b Maximal planar input.} A rotation whose graph already has
    [3n - 6] edges ([n >= 3]) passes the input genus check and is
    returned as is: genus 0 with [3n - 6] edges makes every face a
    triangle, so the passes would add nothing. {!graph} and {!rotation}
    are then the input's own, with no virtual edge.

    {b Cost.} Linear in the input: a half-edge store sized for the
    result, one [Bicon.decompose], one walk per pass, then [Gr.of_pairs]
    on the store's pairs, the rings handed to {!Rotation.make_owned}
    uncopied, and the Euler check. Warm means per phase on
    outerplanar-5000 (7,483 edges, 7,511 fill edges; EXPERIMENTS
    "Geometry build per phase"): input genus check 0.24 ms, seeding the
    store 0.6, connect 0.13, biconnect 0.9 (of it [Bicon.decompose]
    0.7), face fill 0.7, finalize 2.0 ([Gr.of_pairs] 0.76,
    [make_owned] 0.53, the Euler check 0.27). A maximal planar input
    costs the genus check
    alone. *)

type t
(** A triangulation of an embedded input graph, with its virtual edges
    in the order the passes added them. *)

val make : Rotation.t -> t
(** [make r] triangulates the embedded graph of [r].

    For [n >= 3] the result is a maximal planar graph ([3n - 6] edges,
    every face a triangle, connected even if the input was not). For
    [n <= 2] there is nothing to triangulate: the result is the input
    graph (plus a connecting virtual edge when [n = 2] and the vertices
    are isolated), and {!graph} simply echoes it.

    @raise Invalid_argument if [r] is not a planar rotation system
    (genus > 0). *)

val graph : t -> Gr.t
(** The triangulated graph: the input vertices, the input edges, and the
    virtual fill edges. *)

val rotation : t -> Rotation.t
(** The planar rotation system of {!graph}. Restricted to the input
    edges it coincides with the input rotation (same cyclic orders). *)

val source : t -> Rotation.t
(** The input rotation system, as given to {!make}. *)

val virtual_count : t -> int
(** Number of virtual (added) edges: [Gr.m (graph t) - Gr.m] of the
    input. *)

val iter_virtual : t -> (int -> int -> unit) -> unit
(** [iter_virtual t f] calls [f u v] on each virtual edge in the order
    the passes added it, oriented as it was added ([u] is the corner the
    chord was split off at, or the connected side of a bridge). *)
