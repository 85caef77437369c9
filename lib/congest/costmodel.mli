(** Exact cost accounting for driver-orchestrated phases.

    The recursion of the embedding algorithm is orchestrated by a driver
    (the usual way to present a synchronous algorithm as globally scheduled
    phases). Each phase's communication is charged here, on the {e actual}
    trees, paths and payload sizes of the run, under the per-edge
    bandwidth [B]:

    - routing [s] bits along a path of [ℓ] edges, pipelined in
      [B]-bit chunks, takes [ℓ + ⌈s/B⌉ - 1] rounds;
    - a tree aggregation (or broadcast) where member [v] contributes
      [bits_of v] takes [depth + ⌈L/B⌉] rounds, where [L] is the heaviest
      per-edge load it induces (each member's payload loads every tree edge
      between it and the root) — the standard pipelining bound;
    - phases on vertex-disjoint parts run in parallel: {!branch_max}
      advances the clock by the maximum branch duration, which is how the
      paper's "recurse on all parts in parallel" is charged.

    All charged bits also land in the per-edge tallies of the underlying
    {!Metrics.t}, so congestion (experiment E7) reflects these phases
    too. *)

type t
(** One cost-model clock, bound to a graph and a metrics accumulator. *)

val create :
  ?bandwidth:int -> ?trace:Trace.t -> ?round_base:int -> Gr.t -> Metrics.t -> t
(** The metrics object receives every charge. Default bandwidth:
    {!Network.default_bandwidth}. When a [trace] is given, {!phase},
    {!span_open}/{!span_close} and {!note} append span/note events to
    it, with round numbers offset by [round_base] (default 0) — the
    rounds the run had already consumed before this cost model took over
    the clock. *)

val bandwidth : t -> int
(** The per-edge bits-per-round budget every charge is computed under. *)

val clock : t -> int
(** Rounds elapsed so far in charged phases. *)

val span_open : t -> string -> unit
(** Open a named trace span at the current round (see {!span_close}),
    a no-op without a trace. The round is [round_base + clock], the
    position on the run's unified timeline. *)

val span_close : t -> ?attrs:(string * int) list -> unit -> unit
(** Close the innermost open span, with attributes known only at the end
    (e.g. the merge schedule's survivor counts). *)

val note : t -> string -> int -> unit
(** Record a named scalar observation at the current round. *)

val advance : t -> int -> unit
(** Add a fixed number of rounds (e.g. [O(1)]-round local steps). *)

val charge_path : t -> int list -> bits:int -> unit
(** Route [bits] along the vertex path (consecutive vertices must be
    adjacent in the graph). A path of one vertex charges nothing. *)

val charge_tree : t -> root:int -> parent:(int -> int) -> members:int list -> bits_of:(int -> int) -> unit
(** Gather/scatter of {e distinct} payloads between [root] and [members]
    over the tree given by [parent]: member [v]'s [bits_of v] loads every
    tree edge between [v] and the root. Covers both directions — the
    formula is symmetric. *)

type plan = {
  slots : int array;
      (** the directed metrics slots ({!Metrics.add_dir_bits_at}) of the
          tree edges on the member-root paths, each once. *)
  depth : int;  (** the deepest member's distance to the root. *)
}
(** A combining aggregation's charge, fixed by its tree and members alone:
    a tree that does not change (a part's, a recursion call's) is walked
    once and charged from its plan thereafter. *)

val aggregate_plan :
  t -> root:int -> parent:(int -> int) -> members:int list -> plan
(** Walk the members' paths to [root] over the tree given by [parent]
    and collect their plan. Charges nothing.
    @raise Not_found when a parent is not a neighbour in the graph.
    @raise Invalid_argument ["Costmodel: broken tree"] when a walk loops
    or reaches a vertex that is its own parent before [root]. *)

val charge_plan : t -> plan -> bits:int -> unit
(** Combining aggregation (convergecast of a fold, or a broadcast of one
    value) over a plan's edges: every edge carries [bits] once; takes
    [depth + ⌈bits/B⌉ - 1] rounds (pipelined in chunks). *)

val charge_aggregate : t -> root:int -> parent:(int -> int) -> members:int list -> bits:int -> unit
(** {!charge_plan} of the {!aggregate_plan}: the errors are the walk's,
    raised before anything is charged. *)

val note_dir_bits : t -> u:int -> v:int -> int -> unit
(** [note_dir_bits t ~u ~v bits] adds [bits] to the tally of the directed
    edge [u -> v] without advancing the clock — for callers that schedule
    several concurrent shipments and account rounds themselves (e.g. the
    restricted path-coordinated merge). *)

val branch_max : t -> (unit -> unit) list -> unit
(** Run the branch thunks as parallel phases: each starts at the current
    clock; afterwards the clock is the maximum branch end. Edge-bit charges
    accumulate normally (branches are expected to touch disjoint edges). *)

val phase : t -> string -> (unit -> 'a) -> 'a
(** Label the rounds consumed by the thunk in the metrics' phase table,
    and as a trace span when tracing. *)
