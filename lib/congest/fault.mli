(** Deterministic fault injection for the CONGEST engine.

    A {e fault plan} describes a controlled departure from the clean
    synchronous model: per-message drop / duplication / reordering
    probabilities, bounded extra delivery delay (asynchrony within the
    round structure), scheduled node crashes with optional restarts, and
    an adversarial delivery mode that permutes every inbox. Installing a
    plan in {!Network.exec} (its config's [faults]) does not switch
    loops: the engine's one round loop steps every live node each round
    (a clock for timer-driven recovery), draws each message's fate as
    its merge walks the round's sends, and delivers the copies due in a
    round from a pending store; with no plan installed it does none of
    this and allocates nothing per round. The precise semantics
    of each fault kind are specified in DESIGN.md §9.

    {b Determinism.} Every random decision is drawn from one splitmix64
    stream owned by the plan and seeded at construction. The engine
    consumes the stream in a deterministic order — message fates in
    sequential send order, then adversarial inbox shuffles in ascending
    recipient order — so two runs of the same protocol on the same graph
    with plans built from the same spec and seed are identical — same
    states, same rounds, same fault events, same trace. The stream is
    the same at every domain count: with [domains > 1] the engine still
    draws every decision serially, in the order a one-domain run makes
    them, so the domain count changes only wall time. [test_fault.ml]
    asserts both.

    A plan is mutable (the stream position and the {!stats} counters
    advance as the engine consults it); build a fresh plan, or
    {!reset} an existing one, for every run that must be reproducible. *)

type crash = {
  node : int;  (** the node that fails. *)
  at : int;  (** first round (within one [exec] run) the node is down. *)
  restart : int option;
      (** first round the node is up again; [None] = permanent crash. *)
}
(** One scheduled crash: the node takes no step and receives nothing in
    rounds [at <= r < restart]; it resumes from its {e held} state (a warm
    restart — crash amnesia is out of scope). Rounds are relative to the
    [exec] run the plan is installed in. *)

type spec = {
  drop : float;  (** per-message loss probability, in [[0,1]]. *)
  duplicate : float;  (** per-message duplication probability. *)
  reorder : float;
      (** per-copy probability of losing its place in the sender's FIFO
          order (the copy sorts under a random key instead of its send
          sequence number). *)
  delay : float;  (** per-copy probability of a late delivery. *)
  max_delay : int;
      (** a delayed copy arrives [1..max_delay] rounds after its normal
          next-round delivery (uniform); must be [>= 1]. *)
  adversarial : bool;
      (** permute every delivered inbox (seeded Fisher–Yates), voiding
          the sorted-by-sender delivery-order guarantee. *)
  crashes : crash list;
  grace : int;
      (** quiescence patience: a run under the plan stops only after [grace]
          consecutive rounds with no sends and nothing in flight (gives
          timer-driven protocols, e.g. {!Reliable} retransmission, room
          to wake up); must be [>= 1]. *)
}
(** What can go wrong, and how often. Build one by overriding
    {!default}: [{ Fault.default with drop = 0.05 }]. *)

val default : spec
(** The all-zero spec: no drops, no duplicates, no reordering, no
    delays ([max_delay = 3] for when [delay] is raised), no crashes,
    fair delivery, [grace = 8]. *)

type plan
(** A spec bound to a seeded random stream plus the run's fault
    counters. *)

val make : ?spec:spec -> seed:int -> unit -> plan
(** [make ~spec ~seed ()] compiles the spec (default {!default}) into a
    plan. @raise Invalid_argument if a probability is outside [[0,1]],
    [max_delay < 1], [grace < 1], or a crash has [at < 0] or
    [restart <= at]. *)

val spec : plan -> spec

val reset : plan -> unit
(** Rewind the random stream to the seed and zero the {!stats} — the
    plan will drive an identical run again. *)

type stats = {
  dropped : int;  (** messages lost on the wire. *)
  duplicated : int;  (** messages delivered twice. *)
  reordered : int;  (** copies that lost their FIFO place. *)
  delayed : int;  (** copies delivered late. *)
  crash_lost : int;  (** deliveries discarded at a down node. *)
  crashes : int;  (** crash transitions executed. *)
  restarts : int;  (** restart transitions executed. *)
}

val stats : plan -> stats
(** What the plan actually did to the run so far. Deterministic given
    the seed; equality of stats is part of the determinism contract. *)

(** {2 Engine-facing interface}

    The functions below are consulted by {!Network.exec}'s round loop
    when the plan is installed: {!fate} in its serial merge, once per
    send in sequential send order; {!transitions}, {!down} and
    {!note_crash_lost} at the start of each round's delivery; {!permute}
    on each delivered inbox, in ascending recipient order. Library users
    normally never call them. They mutate the plan's stream and counters
    in that order, which is what makes the whole run reproducible. *)

type delivery = {
  offset : int;
      (** extra rounds beyond the normal next-round delivery ([0] =
          on time). *)
  key : int option;
      (** [Some k]: sort this copy under random key [k] instead of its
          send sequence number (a reordering). *)
}

val fate : plan -> delivery list
(** Decide what happens to one sent message: [[]] = dropped; one or (on
    duplication) two deliveries otherwise, each with its own delay and
    reordering draws. Updates {!stats}. *)

val down : plan -> node:int -> round:int -> bool
(** Is the node crashed (and not yet restarted) in this round? *)

val transitions : plan -> round:int -> (int * [ `Crash | `Restart ]) list
(** The crash/restart transitions scheduled for this round, in spec
    order. The engine calls this exactly once per round; the call counts
    the transitions into {!stats}. *)

val note_crash_lost : plan -> unit
(** Count one delivery discarded at a down node (the engine discards;
    the plan only keeps the score). *)

val permute : plan -> 'a array -> pos:int -> len:int -> unit
(** Seeded in-place Fisher–Yates shuffle of [a.(pos .. pos + len - 1)]
    — the adversarial inbox permutation. Consumes no randomness when
    [len < 2]. *)

val horizon : plan -> int
(** The last round mentioned by the crash schedule (0 if none): the
    engine refuses to declare quiescence earlier, so a restart
    scheduled after a lull still happens. *)

val grace : plan -> int
(** The spec's quiescence patience (see {!type:spec}). *)
