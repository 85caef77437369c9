(** Synchronous message-passing engine for the CONGEST model.

    Execution proceeds in synchronous rounds. In each round every node
    reads the messages delivered over its incident edges, updates its
    state, and emits at most [bandwidth] bits per incident edge (the
    CONGEST restriction: one [O(log n)]-bit message per edge per round).
    Exceeding the budget raises {!Bandwidth_exceeded} — the simulator
    enforces the model rather than silently queueing.

    The engine runs until {e quiescence}: a round in which no node sends
    any message. Nodes in a real deployment would detect termination with
    standard echo techniques at the same asymptotic cost; the simulator
    plays the global observer, which is the usual convention for measuring
    round complexity.

    The entry point is {!exec}: a flat-array engine over the graph's dart
    tables ({!Gr.dart_offsets}) whose round loop allocates nothing per
    message — sends are pushed straight into the engine's round queue
    and each node reads its mail through a reused {!Inbox} view — and
    whose per-round cost is [O(active + messages)] rather than [O(n)].
    Every knob — domain count, bandwidth, round guard, observation
    sinks, fault plan — travels in one {!Config.t} value.

    A {!protocol} has one shape: it pushes its sends through a [send]
    function and reads its mail through an {!Inbox}. The list shape of
    earlier versions (state and outbox lists returned from each call)
    is kept only as a test oracle, [List_shape] under [test/oracles]. *)

(** A node's mail for one round: a read-only view onto engine-owned
    arrays (or, for {!scoped}, the caller's).

    {b Delivery order guarantee:} messages are sorted by sender id
    (ascending), and several messages from the same sender arrive in the
    order that sender sent them. Protocols may rely on this; it is
    deterministic by construction.

    {b Lifetime:} an inbox is valid only during the [round] call that
    receives it. The engine reuses the view for the next node; once the
    call returns the view reads as empty and {!src}/{!msg} raise. Copy
    out what must outlive the call. *)
module Inbox : sig
  type 'm t

  val length : 'm t -> int

  val src : 'm t -> int -> int
  (** [src t i] is the sender of the [i]-th message.
      @raise Invalid_argument unless [0 <= i < length t]. *)

  val msg : 'm t -> int -> 'm
  (** [msg t i] is the [i]-th message.
      @raise Invalid_argument unless [0 <= i < length t]. *)

  val fold : ('a -> int -> 'm -> 'a) -> 'a -> 'm t -> 'a
  (** [fold f acc t] folds [f acc src msg] in delivery order. *)

  val scoped : srcs:int array -> msgs:'m array -> ('m t -> 'a) -> 'a
  (** [scoped ~srcs ~msgs f] calls [f] with an inbox holding the
      messages [msgs.(i)] from [srcs.(i)] in index order, and zeroes
      that inbox when [f] returns or raises, so it keeps the lifetime
      contract above. The one way to hand a protocol's [round] a
      hand-built inbox (layers that rewrite another protocol's
      traffic, such as {!Reliable}, and tests). The caller gives the
      order; {!exec}'s guarantee is not re-checked.
      @raise Invalid_argument if [srcs] and [msgs] differ in length. *)
end

type 'm send = int -> 'm -> unit
(** [send dst msg] puts [msg] on the edge to neighbor [dst] this round.

    The engine charges the message at once: its bits count against the
    edge's budget, the metrics and trace sinks record it, and a
    non-neighbor [dst] or an over-budget edge raises from inside [send].
    Delivery happens next round, ordered as {!Inbox} documents, with one
    sender's messages kept in the order it called [send]. Sends made
    before a protocol itself raises have already been observed: they
    are part of the prefix the sinks saw before the error.

    An engine error raised by [send] ({!Bandwidth_exceeded}, the
    non-neighbor [Invalid_argument]) ends the run, and a protocol should
    let it propagate. One that catches it cannot hide it: the error is
    sticky, so every later [send] in the call raises it again without
    charging anything, and the engine raises it once more when the call
    returns. The run ends with the first error and the observations it
    had made when that error struck. (Under a fault plan the engine
    stages sends and raises these errors after the round's calls,
    outside protocol code.)

    A [send] is valid only during the [init]/[round] call that received
    it.
    @raise Invalid_argument if called after that call has returned. *)

type ('s, 'm) protocol = {
  init : Gr.t -> int -> 'm send -> 's;
      (** initial state of each node, sending its round-0 messages
          through [send]. A node knows only its own id and its neighbor
          ids, as in the paper's input model. *)
  round : Gr.t -> int -> 's -> 'm Inbox.t -> 'm send -> 's;
      (** [round g v state inbox send] processes the messages delivered
          this round and returns the new state; destinations passed to
          [send] must be neighbors of [v]. *)
  msg_bits : 'm -> int;
      (** the size in bits charged for a message — the protocol declares
          its own coding, the engine enforces the budget. *)
}
(** A node-level synchronous protocol: what a node does at wake-up and
    in every round in which it receives mail. *)

exception Bandwidth_exceeded of { round : int; u : int; v : int; bits : int }
(** A node pushed more than [bandwidth] bits over one directed edge in
    one round — the CONGEST restriction, enforced rather than queued. *)

exception No_quiescence of { round : int; active : int; messages : int }
(** Raised by {!exec} when [max_rounds] elapse without quiescence:
    [round] is the livelock guard's limit, [active] the number of nodes
    still holding undelivered mail, [messages] the number of messages
    sent in the last executed round — enough to tell a protocol that
    never converges from one that is merely slow. *)

val default_bandwidth : Gr.t -> int
(** [16 * ceil(log2 n)] bits — the [O(log n)] budget with an explicit
    constant, recorded in every experiment output. *)

type report = {
  messages : int;  (** messages sent across the whole run. *)
  bits : int;  (** total bits of those messages. *)
  max_message_bits : int;  (** largest single message. *)
  max_round_edge_bits : int;
      (** largest per-directed-edge load within one round — the value the
          bandwidth budget was checked against. *)
  active_peak : int;  (** most nodes computing in any one round. *)
  verdict : Bounds.verdict option;
      (** present iff the observer carried a bounds request. *)
}
(** The engine's own summary of a run, tallied from flat counters
    independently of any {!Metrics.t} sink — available even under
    {!Observe.none}. *)

type 's run_result = { states : 's array; rounds : int; report : report }
(** What {!exec} returns: every node's final state, the number of rounds
    executed, and the engine's {!report}. *)

(** The run configuration. One value carries every engine knob, so call
    sites build it once — [Config.default |> Config.with_domains 4] —
    and thread it through {!Proto}, {!Embedder} and {!Certify} instead
    of re-threading five optional labels per layer. *)
module Config : sig
  type t = {
    domains : int;  (** domains executing the round loop (default 1). *)
    bandwidth : int option;  (** per-edge bits per round; default
            {!default_bandwidth}. *)
    max_rounds : int option;  (** livelock guard; default [16n + 64]. *)
    observe : Observe.t;  (** observation sinks (default {!Observe.none}). *)
    faults : Fault.plan option;
        (** fault plan; composes with any [domains], which then
            changes only wall time — see {!exec}. *)
  }

  val default : t
  (** Sequential, unobserved, fault-free: [domains = 1], default
      bandwidth and round guard. *)

  val with_domains : int -> t -> t
  val with_bandwidth : int -> t -> t
  val with_max_rounds : int -> t -> t
  val with_observe : Observe.t -> t -> t

  val make :
    ?domains:int ->
    ?bandwidth:int ->
    ?max_rounds:int ->
    ?observe:Observe.t ->
    ?faults:Fault.plan ->
    unit ->
    t
  (** Labelled constructor, for call sites migrating from the old
      optional-argument style: unspecified fields are {!default}'s. *)
end

val exec : ?config:Config.t -> Gr.t -> ('s, 'm) protocol -> 's run_result
(** Run to quiescence under [config] (default {!Config.default}). The
    final states, the executed round count and the {!report} come back
    together; everything else — a metrics accumulator, a trace journal,
    a bounds verdict — is requested via the config's [observe] sink.
    Successive runs on the same metrics sink continue one round
    timeline: this run's round numbers are offset by [Metrics.rounds]
    at entry.

    There is one round loop. Each round the nodes on the worklist
    compute; one serial merge walks their sends in node order, feeding
    the sinks and staging the next round's recipients; then the next
    round's mail is laid out by a stable counting scatter. With no fault
    plan installed (the default) the worklist is the nodes that got
    mail, the run ends at the first round with no mail, and the loop is
    allocation-free per round and per message at every domain count,
    with delivery order exactly as documented on {!Inbox}.

    A {!Fault.plan} changes the worklist, the delivery and the stop
    rule, not which loop runs. Every live node takes a step {e every}
    round (with an empty inbox when nothing arrived), which is the clock
    timeout-driven recovery layers such as {!Reliable} run on. The merge
    draws each send's fate (drop, duplicate, reorder, delay) as it walks
    it, and the surviving copies wait in a pending store sized by the
    copies in flight; each round delivers the copies due then, losing
    those addressed to a down node, sorted by sender (a reordered copy
    under its random key) and, under [adversarial], permuted. The run
    ends only after the plan's grace period of quiet rounds, and not
    before its last scheduled crash or restart. Fault events are counted
    into the metrics sink ({!Metrics.faults}) and recorded on the trace
    timeline ({!Trace.on_fault}). Same plan spec + same seed ⇒ identical
    run. DESIGN.md §9 specifies the fault model precisely.

    [domains > 1] splits each round's worklist into up to [domains]
    contiguous chunks that compute on a pool of domains; each chunk
    charges its nodes' sends as they are made, and everything
    order-sensitive — the sinks, staging, every fault draw — happens in
    the serial merge. The result — states, rounds, report, fault stats
    and the full metrics/trace timelines — is {b bit-identical} to the
    [domains = 1] run, with or without a plan, including which error is
    raised and what the sinks saw before it; the differential suite pins
    this across domain counts. One restriction comes with
    [domains > 1]: the protocol's [init] and [round] closures must be
    pure up to their returned values, because they run concurrently for
    different nodes. [init] is called exactly once per node.
    DESIGN.md §9, §10 and §13 specify the fault model, the parallel
    engine and the sharded round loop.
    @raise Bandwidth_exceeded when a node over-sends on an edge.
    @raise No_quiescence if [max_rounds] elapse without quiescence — a
    livelock guard for buggy protocols.
    @raise Invalid_argument if a node addresses a non-neighbor, if
    [domains < 1], or if the fault plan crashes a node outside
    [[0, n)]. *)
