(** Biconnected-component decomposition (Tarjan lowpoint algorithm).

    Section 3 of the paper represents each part's embedding freedom by its
    biconnected-component decomposition (Observation 3.2); this module is
    that decomposition, in the paper's distributed representation: every
    vertex knows the components it belongs to, every edge belongs to exactly
    one component, and a vertex is a cut vertex iff it belongs to two or
    more components. The implementation is iterative so that long paths
    (e.g. subdivided-[K4] lower-bound graphs) do not overflow the stack.

    Membership is stored as flat CSR arrays (component id per edge plus
    offset tables in both directions), so repeated consumers — the
    triangulator, the interface trees, and the incremental
    maintainer's component-scoped re-runs — can walk a component without
    rebuilding association lists. The list-returning accessors below are
    thin conveniences over the arrays. *)

type t = {
  g : Gr.t;  (** the decomposed graph. *)
  n_components : int;
  comp_of_edge : int array;
      (** dense edge index (see {!Gr.edge_index}) to component id. *)
  comp_edge_offsets : int array;
      (** [n_components + 1] entries: the (dense indices of the) edges of
          component [c] are
          [comp_edge_list.(comp_edge_offsets.(c) .. comp_edge_offsets.(c+1) - 1)]. *)
  comp_edge_list : int array;  (** dense edge indices grouped by component. *)
  comp_vertex_offsets : int array;
      (** [n_components + 1] entries: the vertices of component [c] are
          [comp_vertex_list.(comp_vertex_offsets.(c) .. comp_vertex_offsets.(c+1) - 1)],
          duplicate-free. *)
  comp_vertex_list : int array;  (** vertices grouped by component. *)
  vertex_comp_offsets : int array;
      (** [n + 1] entries: the components containing vertex [v] are
          [vertex_comp_list.(vertex_comp_offsets.(v) .. vertex_comp_offsets.(v+1) - 1)],
          duplicate-free (empty for isolated vertices). *)
  vertex_comp_list : int array;  (** component ids grouped by vertex. *)
  is_cut : bool array;  (** cut (articulation) vertices. *)
}

val decompose : Gr.t -> t

val n_component_edges : t -> int -> int
(** Edge count of a component, in O(1). *)

val iter_component_edges : t -> int -> (int -> unit) -> unit
(** Iterate the dense edge indices of a component. Allocates nothing. *)

val component_edges : t -> int -> Gr.edge list
(** Edges of a component as normalized pairs. *)

val iter_component_vertices : t -> int -> (int -> unit) -> unit
(** Iterate the (duplicate-free) vertex set of a component. Allocates
    nothing. *)

val component_vertices : t -> int -> int list
(** Duplicate-free vertex set of a component. *)

val n_comps_of_vertex : t -> int -> int
(** Number of components containing a vertex, in O(1); [>= 2] iff the
    vertex is a cut vertex, [0] iff it is isolated. *)

val comps_of_vertex : t -> int -> int list
(** Component ids containing a vertex, duplicate-free. *)

val paper_component_id : t -> int -> Gr.edge
(** The paper's component ID: the smallest edge ID (normalized [(u, v)]
    pair, compared lexicographically) among the component's edges. *)

(** The block–cut tree: one node per biconnected component ("block") and one
    per cut vertex, with an edge whenever the cut vertex lies in the block.
    Figure 4(b) of the paper pictures exactly this tree for a part. *)
type block_cut_tree = {
  block_node : int array;  (** tree-node id of each component. *)
  cut_node : (int * int) list;  (** [(vertex, tree-node id)] for each cut vertex. *)
  tree : Gr.t;
}

val block_cut_tree : Gr.t -> t -> block_cut_tree
