(** Undirected simple graphs on vertices [0 .. n-1].

    This is the network substrate shared by all layers: the CONGEST
    simulator runs on a [Gr.t], the centralized planarity algorithms take a
    [Gr.t], and the distributed embedder's parts carry induced subgraphs.

    Graphs are immutable after construction. Vertices double as the unique
    node identifiers the CONGEST model assumes; [relabel] produces
    id-permuted copies for tests that must not depend on labeling. *)

type t

type edge = int * int
(** An undirected edge, normalized so that [fst e < snd e]. The paper's
    edge-ID [(min id, max id)] (its footnote 5) is exactly this pair. *)

val normalize_edge : int -> int -> edge
(** [normalize_edge u v] is the normalized edge [{u, v}].
    @raise Invalid_argument on a self-loop. *)

(** {1 Construction} *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds the graph with [n] vertices and the given
    edges. Duplicate edges are collapsed. O(n + m): the normalized pairs
    are put in lexicographic order by two stable counting passes.
    @raise Invalid_argument on self-loops or out-of-range endpoints. *)

val of_pairs : n:int -> int array -> int array -> t
(** [of_pairs ~n lo hi] is [of_edges ~n] of the pairs
    [(lo.(i), hi.(i))], with no list: the same edge ids and dart slots.
    The graph takes ownership of both arrays, which are normalized and
    sorted in place. @raise Invalid_argument on arrays of different
    lengths, self-loops or out-of-range endpoints. *)

val empty : int -> t
(** [empty n] is the edgeless graph on [n] vertices. *)

(** {2 Construction into caller arrays} *)

val csr_of_pairs_into :
  n:int ->
  m:int ->
  int array ->
  int array ->
  lo1:int array ->
  hi1:int array ->
  count:int array ->
  xadj:int array ->
  adjncy:int array ->
  dart_uedge:int array ->
  dart_rev:int array ->
  int
(** {!of_pairs} into caller arrays, for callers that keep their own
    grow-only buffers (the LR kernel's workspace).
    [csr_of_pairs_into ~n ~m lo hi ...] normalizes the first [m] pairs
    [(lo.(i), hi.(i))], puts them in lexicographic order and collapses
    duplicates, all in place (bucketing by one end and transposing by
    the other: O(n + m), no comparison sort), and writes the dart table
    of the result. It returns the number [m'] of distinct pairs, which
    then occupy the prefix: edge [e] of the graph {!of_edges} would
    build is the [e]-th of them, and the prefixes of
    [xadj] ([n + 1]), [adjncy], [dart_uedge] and [dart_rev] ([2m'] each)
    equal its {!dart_offsets}, {!dart_sources}, {!dart_edges} and
    {!dart_reversals}. The three dart arrays need [2m] entries; [lo1] and
    [hi1] (at least [m]) and [count] (at least [2n + 2]) are scratch.
    @raise Invalid_argument on self-loops or out-of-range endpoints. *)

(** {1 Basic accessors} *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val id_bits : t -> int
(** Bits in one vertex id, [ceil(log2 n)] with [n] clamped to at least 2:
    the CONGEST word size every message coding is measured in. *)

val degree : t -> int -> int
val neighbors : t -> int -> int array
(** Neighbors of a vertex in increasing order, as a fresh array (an
    O(degree) copy of the vertex's CSR slice; the caller owns it).
    Callers that only iterate should prefer {!iter_neighbors} /
    {!fold_neighbors}, which allocate nothing; hot loops that step
    through a slice index into {!dart_offsets} / {!dart_sources}. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** [iter_neighbors g v f] applies [f] to each neighbor of [v] in
    increasing order. Allocates nothing. *)

val fold_neighbors : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a
(** [fold_neighbors g v ~init ~f] folds over the neighbors of [v] in
    increasing order. Allocates nothing beyond what [f] allocates. *)

val mem_edge : t -> int -> int -> bool
val edges : t -> edge list
(** All edges, normalized, in lexicographic order. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Iterate over normalized edges. *)

val fold_vertices : t -> init:'a -> f:('a -> int -> 'a) -> 'a

(** {1 Edge indexing} *)

val edge_index : t -> int -> int -> int
(** A dense index in [0 .. m-1] for an existing edge, independent of
    endpoint order. @raise Not_found if the edge is absent. *)

val edge_of_index : t -> int -> edge

(** {1 Darts (directed edges)}

    A {e dart} is a directed edge [src -> dst] with a dense id in
    [0 .. darts g - 1]. Ids are grouped by head: the darts pointing into
    [dst] occupy the contiguous range
    [dart_offsets.(dst) .. dart_offsets.(dst+1) - 1], ordered by source
    id ascending — which is exactly the CONGEST engine's documented
    per-round delivery order, so the engine's flat per-dart accounting
    arrays double as sorted inboxes. *)

val darts : t -> int
(** Number of darts: [2 * m]. *)

val dart : t -> src:int -> dst:int -> int
(** The dense id of the dart [src -> dst], in [O(log (degree dst))] with
    no allocation. @raise Not_found if [{src, dst}] is not an edge. *)

val dart_src : t -> int -> int
(** The source endpoint of a dart. *)

val dart_edge : t -> int -> int
(** The dense {e undirected} edge index ({!edge_index}) under a dart. *)

val dart_rev : t -> int -> int
(** The opposite dart: the reversal of [src -> dst] is [dst -> src]. An
    involution, precomputed at construction. Combined with the sorted CSR
    slices this gives a per-node neighbor→dart index: the dart [u -> v] is
    [dart_rev] of the slot of [v] in [u]'s own adjacency slice — one rank
    search in the {e sender}'s slice (cache-hot across a whole outbox)
    instead of a binary search in each recipient's slice. *)

val dart_offsets : t -> int array
(** The CSR offsets ([n + 1] entries): the in-darts of [v] are the slots
    [dart_offsets.(v) .. dart_offsets.(v+1) - 1]. Owned by the graph;
    callers must not mutate. *)

val dart_sources : t -> int array
(** [dart_sources.(d)] is {!dart_src}[ g d], as a flat array for hot
    loops. Owned by the graph; callers must not mutate. *)

val dart_edges : t -> int array
(** [dart_edges.(d)] is {!dart_edge}[ g d], as a flat array for hot
    loops. Owned by the graph; callers must not mutate. *)

val dart_reversals : t -> int array
(** [dart_reversals.(d)] is {!dart_rev}[ g d], as a flat array for hot
    loops. Owned by the graph; callers must not mutate. *)

(** {1 Derived graphs} *)

val induced : t -> int list -> t * int array * (int -> int)
(** [induced g vs] is the subgraph induced by the (duplicate-free) vertex
    list [vs], as [(h, old_of_new, new_of_old)]: vertex [i] of [h]
    corresponds to [old_of_new.(i)] in [g], and [new_of_old v] maps a [g]
    vertex to its [h] index (or raises [Not_found] if [v] is not in [vs]). *)

val add_edges : t -> (int * int) list -> t
(** A copy of the graph with the given extra edges (duplicates collapsed). *)

val union_vertices : t -> more:int -> (int * int) list -> t
(** [union_vertices g ~more extra] extends [g] with [more] fresh vertices
    (numbered [n g .. n g + more - 1]) and the extra edges. Used by the
    apex/stub construction of the constrained embedder. *)

val relabel : t -> int array -> t
(** [relabel g perm] renames vertex [v] to [perm.(v)]; [perm] must be a
    permutation of [0 .. n-1]. *)
