(** Geographic face-routing query engine over Schnyder coordinates.

    The engine answers point-to-point routing queries on the {e real}
    input graph using only the grid coordinates ({!Schnyder}) and the
    embedding's rotation — the greedy-face-greedy (GFG) discipline:

    - {e greedy mode}: forward to the neighbor strictly closest to the
      destination (squared Euclidean distance, exact integers) as long
      as one closer than the current vertex exists;
    - {e face recovery}: at a local minimum [p], walk the faces of the
      plane subdivision stabbed by the segment [p → t]. Each face is
      scanned combinatorially (the rotation's face orbits restricted to
      real edges); the walk crosses into the next face at the boundary
      edge whose intersection with the segment is furthest along it,
      comparing intersection parameters as exact fractions (128-bit
      cross-multiplication — no floating point, no misordering). The
      moment any vertex strictly closer to [t] than [p] is reached,
      greedy mode resumes.

    On a plane straight-line drawing of a connected graph this is the
    classical guaranteed-delivery argument: within a recovery episode
    the crossing parameter increases strictly, across episodes the
    anchor distance decreases strictly, so every query terminates at
    the destination. Virtual triangulation edges are never traversed —
    recovery happens on the real faces — so reported routes use input
    edges only. A generous hop budget backstops internal invariants;
    exhausting it yields {!Stuck} rather than a wrong route.

    Queries are read-only on the engine, so batches parallelize over a
    {!Pool} with plain array slots per query. A query's state is one
    record of its own; past that, a hop allocates only its path cell. *)

type t
(** A routing engine, built once per graph in O(n + m): coordinates,
    the rotation as CSR slices over the graph's dart offsets with an
    out-dart per slot, the rotation's face permutation on the graph's
    dart ids ({!Rotation.face_next}) and component ids. Immutable. *)

type outcome =
  | Delivered of {
      path : int list;  (** [src .. dst], real edges only *)
      hops : int;  (** [List.length path - 1] *)
      greedy_hops : int;  (** hops taken in greedy mode *)
      face_hops : int;  (** hops taken inside face recovery *)
      recoveries : int;  (** number of recovery episodes *)
    }
  | Unreachable  (** src and dst lie in different components *)
  | Stuck of {
      at : int;  (** vertex where the hop budget ran out *)
      hops : int;
    }
      (** Hop budget exhausted — never expected on validated drawings;
          the test suite and the bench gate treat this as failure. *)

val make : Schnyder.t -> t
(** Build the engine from a drawing. The routing graph is the drawing's
    {e source} graph (the real input edges), not the triangulation. *)

val graph : t -> Gr.t
(** The real graph queries are routed on. *)

val schnyder : t -> Schnyder.t
(** The drawing the engine was built from. *)

val route : t -> int -> int -> outcome
(** [route t src dst] routes one query.
    @raise Invalid_argument if [src] or [dst] is not a vertex. *)

val route_batch : ?pool:Pool.t -> t -> (int * int) array -> outcome array
(** Answer a batch of queries; result slot [i] answers query [i].
    With [?pool] the queries are spread across the pool's domains (the
    engine is immutable and each domain records hops in its own buffer,
    so this is safe); results are identical to the serial run. *)
