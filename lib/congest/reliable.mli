(** Reliable, in-order, exactly-once delivery over a faulty network.

    {!wrap} turns any {!Network.protocol} into one that survives the
    message-level faults of a {!Fault.plan} — drops, duplicates,
    reordering, delay, adversarial inbox permutation — without changing
    the inner protocol at all. The classic machinery: every payload gets
    a per-link sequence number, receivers acknowledge cumulatively and
    deliver exactly once in sequence order (buffering out-of-order
    arrivals, discarding duplicates), and senders retransmit the oldest
    unacknowledged packet when its timeout expires. The inner protocol
    therefore sees exactly the inbox contract documented on
    {!Network.Inbox} — ascending sender id, per-sender send
    order — even in adversarial delivery mode.

    Retransmission timers need a clock, which the engine provides under
    a fault plan by stepping every live node every round; with no plan
    installed nothing is ever lost, so no timer needs
    to fire and the wrapper is pure constant-factor overhead (one header
    per payload, one ack per inbox).

    What the wrapper cannot do: carry a message to a node that never
    comes back. Against crash-restart outages it recovers (deliveries to
    a down node are discarded by the engine, so the sender retransmits
    until the restart); against a {e permanent} crash the sender
    retransmits forever and the run ends with {!Network.No_quiescence} —
    reliable delivery to a dead peer is impossible, not expensive.

    DESIGN.md §9 specifies the interplay with each fault kind. *)

type 'm packet =
  | Data of { seq : int; payload : 'm }
      (** one inner-protocol message, tagged with its per-link sequence
          number. *)
  | Ack of { upto : int }
      (** cumulative acknowledgement: every sequence number [<= upto]
          of this link has been received. *)

type ('s, 'm) state
(** The wrapped per-node state: the inner state plus one send/receive
    channel per incident link. *)

val inner_state : ('s, 'm) state -> 's
(** The inner protocol's current state (e.g. to read final results out
    of a raw {!Network.exec} run on a wrapped protocol). *)

type counters = {
  mutable retransmits : int;  (** timed-out packets sent again. *)
  mutable dup_discards : int;  (** received copies discarded as already
                                   delivered or already buffered. *)
  mutable out_of_order : int;  (** arrivals ahead of the next expected
                                   sequence number, buffered. *)
}

val counters : unit -> counters
(** A fresh all-zero counter record to pass to {!wrap} when the
    recovery work itself is the measurement (bench/chaos.ml does). *)

val wrap :
  ?timeout:int ->
  ?stats:counters ->
  ('s, 'm) Network.protocol ->
  (('s, 'm) state, 'm packet) Network.protocol
(** [wrap proto] is the sequence-numbered, acknowledged, retransmitting
    version of [proto]. [timeout] (default [6], must be [>= 2]) is the
    number of rounds a sender waits on the oldest unacknowledged packet
    of a link before retransmitting it; keep it above the plan's
    [max_delay] plus the two-round ack round trip or spurious (harmless,
    but chatty) retransmissions occur. All [stats] updates across all
    nodes accumulate into the one record given.

    Overhead per message: a {!packet} header of {!header_bits} on every
    payload, one cumulative ack per received inbox, plus retransmissions
    under loss — budget bandwidth accordingly (or use {!exec}, which
    does). @raise Invalid_argument if [timeout < 2]. *)

val header_bits : int
(** Bits charged for a packet header (sequence number plus tag); an
    [Ack] costs exactly this, a [Data] costs this plus its payload. *)

val exec :
  ?domains:int ->
  ?bandwidth:int ->
  ?max_rounds:int ->
  ?observe:Observe.t ->
  ?faults:Fault.plan ->
  ?timeout:int ->
  ?stats:counters ->
  Gr.t ->
  ('s, 'm) Network.protocol ->
  's Network.run_result
(** Run [proto] wrapped, unwrap the result: drop-in for
    {!Network.exec} when the link layer should be reliable. [bandwidth]
    is the {e inner} protocol's per-edge budget (default
    {!Network.default_bandwidth}); the engine itself is given
    [3 * bandwidth + 128] bits so headers, acks and retransmissions fit
    — a constant factor, preserving the CONGEST [O(log n)] regime.
    [domains] passes through to the engine: with a plan installed,
    [domains > 1] shards the round loop's compute and returns the same
    run as [domains = 1] (see {!Network.exec}). The report (messages, bits, bursts) describes the
    wire, overhead included; the returned states are the inner ones.
    @raise Network.Bandwidth_exceeded, Network.No_quiescence,
    Invalid_argument as {!Network.exec}. *)
