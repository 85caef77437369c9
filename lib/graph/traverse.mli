(** Centralized graph traversals: BFS, DFS, connectivity, distances.

    These are the reference implementations that both the tests and the
    driver-side bookkeeping of the distributed embedder use; the simulator's
    distributed BFS is checked against [bfs] in the test suite. *)

type bfs_tree = {
  root : int;
  parent : int array;  (** [parent.(root) = root]; [-1] for unreached. *)
  dist : int array;  (** hop distance from the root; [-1] for unreached. *)
  order : int array;  (** vertices in nondecreasing distance order. *)
}

val bfs : Gr.t -> int -> bfs_tree

val children : bfs_tree -> int list array
(** Children lists of the BFS tree, indexed by vertex. *)

val depth : bfs_tree -> int
(** Maximum distance from the root over reached vertices. *)

val subtree_sizes : Gr.t -> bfs_tree -> int array
(** [subtree_sizes g t] gives, for each vertex, the number of vertices in
    its subtree of the BFS tree (itself included). *)

val is_connected : Gr.t -> bool

val components : Gr.t -> int list list
(** Connected components as vertex lists, ordered by smallest vertex,
    each in BFS order from that vertex. One pass: O(n + m) whatever the
    number of components. *)

val eccentricity : Gr.t -> int -> int
(** Largest hop distance from the vertex; @raise Invalid_argument if the
    graph is disconnected. *)

val diameter : Gr.t -> int
(** Exact diameter by iFUB: a double sweep, then BFS eccentricities from
    the deepest BFS levels of a central root up, stopping once the lower
    bound reaches twice the next level. A few BFS runs on most graphs;
    O(n·m) at worst (every vertex on the root's deepest level).
    [diameter (Gr.empty 0) = 0].
    @raise Invalid_argument if the graph is disconnected. *)

val diameter_bracket : Gr.t -> int * int
(** [(lo, hi)] with [lo <= diameter g <= hi] from two BFS sweeps, O(n + m):
    [lo] is the eccentricity of a vertex farthest from vertex 0, [hi]
    twice vertex 0's eccentricity. @raise Invalid_argument if the graph
    is empty or disconnected. *)

val distances : Gr.t -> int -> int array
(** Hop distances from a source; [-1] for unreachable vertices. *)

type dfs_tree = {
  dfs_root : int;
  dfs_parent : int array;  (** [dfs_parent.(root) = root]; [-1] unreached. *)
  preorder : int array;  (** reached vertices in DFS preorder. *)
  pre_index : int array;  (** position in [preorder]; [-1] unreached. *)
}

val dfs : Gr.t -> int -> dfs_tree
(** Iterative depth-first search (safe on [Θ(n)]-diameter graphs);
    neighbors are explored in increasing id order. *)

val tree_path : bfs_tree -> int -> int list
(** [tree_path t v] is the path from the root to [v] along tree parents
    (inclusive). @raise Invalid_argument if [v] was not reached. *)
