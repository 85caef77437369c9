(** Linear-time planarity testing and embedding: the left-right
    (de Fraysseix–Rosenstiehl / Brandes) algorithm.

    This is the production kernel behind {!Planarity.embed}: a DFS
    orientation with lowpoints and nesting-order sorted adjacency lists,
    the conflict-pair constraint stack, and rotation-system extraction
    from the resolved left/right edge sides. Every rotation this module
    returns has already passed the independent face-tracing Euler check
    in {!Rotation}; the test suites also check it against a quadratic
    DMP oracle.

    All entry points run one core over a {!workspace}: [embed],
    [is_planar] and [is_planar_edges] on a fresh one, a caller that
    embeds many small graphs (the incremental maintainer's scoped
    re-runs) on one it keeps.

    {b Cost.} Every phase is a linear pass over flat arrays held in
    locals, with no helper call on a hot path; the two nesting-order
    sorts start from bucket counts the phases before them took, and the
    dart table is built by transposition ({!Gr.csr_of_pairs_into}), not
    by a sort. Bounds checks and both ring checks stay on. A warm
    {!embed_pairs} (on a workspace that has seen the size) costs about
    160 ns per edge on maxplanar-2000 and 110 on grids on a shared
    2-core host, about a sixth of it the ring checks, and allocates a
    constant 26 words (BENCH_kernels.json [warm_pairs_*]). *)

type result =
  | Planar of Rotation.t  (** a rotation system verified genus 0. *)
  | Nonplanar

exception Embedding_invalid of string
(** Internal-inconsistency alarm: the constraint phase accepted the
    input but the extracted rotation failed validation. Never raised on
    a correct build; it exists so a kernel bug cannot silently pass an
    invalid embedding downstream. Callers that check state derived from
    the kernel's output (the incremental maintainer's merge-back) raise
    it too. *)

val embed : Gr.t -> result
(** Planarity test plus embedding, in [O(n + m)] time. Works on any
    simple graph, connected or not (each component roots its own DFS).
    Accepted inputs are re-validated by {!Rotation.is_planar_embedding}
    before being returned. *)

val is_planar : Gr.t -> bool
(** The test alone (orientation + constraint phases, no embedding
    extraction): the cheapest verdict, used by deletion loops such as
    {!Kuratowski.witness}. *)

val is_planar_edges : n:int -> Gr.edge array -> mask:bool array -> bool
(** [is_planar_edges ~n edges ~mask] tests the graph on [n] vertices
    whose edge set is [edges.(i)] for every [i] with [mask.(i)]. The
    CSR adjacency is built directly from the masked array — no [Gr.t]
    construction, no sorting — so a caller probing many single-edge
    deletions (e.g. Kuratowski witness extraction) can reuse one edge
    array and flip mask bits in O(1) between probes. Edges must be
    normalized and duplicate-free among the unmasked entries. *)

(** {1 Reusable workspace}

    A caller-owned, grow-only store for everything one kernel run
    needs: the input pairs, the CSR dart table built from them, the
    core's per-vertex and per-edge arrays, the temporaries of its
    phases, and the output ring. Capacities only grow, so once a
    workspace has seen its largest graph, {!embed_pairs} allocates
    nothing. A workspace is not thread-safe: give each domain its own.

    {b Ring contract.} After [embed_pairs ws ~n ~m] returns [true], let
    [off = offsets ws], [src = sources ws] and [ring = ring ws]. The
    dart table is the one [Gr.of_edges ~n] builds from the same pairs
    (same edge ids, same dart slots), so the darts into vertex [v]
    are the slots [off.(v) .. off.(v+1) - 1], slot [d] being the dart
    [src.(d) -> v]. The same range of [ring] lists those darts in
    clockwise rotation order, and [src.(ring.(off.(v) + i))] is entry
    [i] of [v]'s rotation under {!embed} of that graph, bit for bit.
    The ring has passed both checks {!Rotation.make} and the Euler
    check make: each vertex's ring is a permutation of its own slots,
    and the rotation has genus 0. All four arrays belong to the
    workspace, may be longer than their live prefix, and are overwritten
    by the next run. *)

type workspace

val workspace : unit -> workspace
(** An empty workspace; the first run sizes it. *)

val pairs : workspace -> m:int -> int array * int array
(** [pairs ws ~m] grows the workspace's pair buffers to hold at least
    [m] pairs and returns them as [(lo, hi)]; the caller writes edge
    [i] as [(lo.(i), hi.(i))], in either orientation. Growing discards
    earlier contents, so call it before writing. *)

val embed_pairs : workspace -> n:int -> m:int -> bool
(** [embed_pairs ws ~n ~m] embeds the graph on [n] vertices whose edges
    are the first [m] pairs written through {!pairs}: the pairs are
    sorted and deduplicated in place and the dart table built exactly as
    {!Gr.of_edges} does ({!Gr.csr_of_pairs_into}), then the kernel runs
    on the result. [true] means planar, with the rotation in {!ring} under
    the ring contract above; [false] means non-planar, and leaves the
    ring unspecified. The pairs are consumed.
    @raise Invalid_argument on self-loops, out-of-range endpoints or
    [m] beyond the last {!pairs} reservation.
    @raise Embedding_invalid if the ring fails {!check_ring}. *)

val check_ring : workspace -> unit
(** The two checks {!embed_pairs} applies to the ring of its last
    accepted run: every vertex's ring must be a permutation of its own
    dart slots, and the face-tracing Euler check
    ({!Rotation.genus_of_faces}, the function behind {!Rotation.genus})
    must find genus 0. Exposed so tests can corrupt a ring and see it
    refused. @raise Embedding_invalid otherwise. *)

val edges : workspace -> int
(** Distinct edges of the last {!embed_pairs} input. *)

val offsets : workspace -> int array
(** CSR offsets of the last {!embed_pairs} input ([n + 1] live). *)

val sources : workspace -> int array
(** Dart sources of the last {!embed_pairs} input ([2m] live). *)

val ring : workspace -> int array
(** The output ring ([2m] live); see the ring contract. *)
