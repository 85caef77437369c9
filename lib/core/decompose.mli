(** The recursive embedding order of Section 4 of the paper.

    Starting from a BFS tree [T] rooted at the globally elected vertex
    [s*], each recursion step takes the subtree [T_s] below a vertex [s],
    finds a {e splitter} vertex [v] whose removal leaves components of at
    most [2|T_s|/3] vertices, and partitions [T_s] into the tree path
    [P0 = s..v] and the subtrees hanging off [P0]. The hanging subtrees are
    recursed on; [P0] is trivial (a BFS-tree path cannot carry chords —
    Lemma 4.1), so the partition is safe.

    Lemma 4.2: every hanging part has at most [2|T_s|/3] vertices and its
    subtree depth strictly decreases, so the recursion depth is at most
    [min{log_1.5 n, depth(T)}] (Lemma 4.3). *)

type call = {
  root : int;  (** [s], the subtree's root. *)
  vertices : int list;  (** the vertices of [T_s]. *)
  subtree_depth : int;  (** depth of [T_s] (0 for a single vertex). *)
  splitter : int;  (** [v]; equal to [root] in base-case calls. *)
  p0 : int list;  (** the tree path [s .. v] (the whole call in base cases). *)
  hanging : call list;  (** the recursive calls on [P1 .. Pk]. *)
  level : int;  (** recursion depth of this call (root call = 0). *)
}

val splitter_of_subtree :
  sizes:(int -> int) -> children:(int -> int list) -> total:int -> int -> int
(** [splitter_of_subtree ~sizes ~children ~total s] walks from [s] toward
    the heaviest child until every component of [T_s - v] (children
    subtrees and the part above [v]) has at most [total / 2] — hence
    certainly [2·total/3] — vertices. [sizes] gives subtree sizes within
    [T_s]. *)

val recursion_tree : Gr.t -> Traverse.bfs_tree -> call
(** Build the whole recursion tree below the BFS root. Calls with at most
    two vertices become leaves whose [p0] covers the entire subtree. *)

val depth : call -> int
(** Maximum [level] in the tree. *)

val count_calls : call -> int

val check : Gr.t -> Traverse.bfs_tree -> call -> bool
(** Test oracle: all Lemma 4.1/4.2 properties hold throughout the tree —
    parts are disjoint, cover the subtree, sizes shrink by the 2/3 factor,
    [p0] induces a path, and each hanging part is connected. *)
