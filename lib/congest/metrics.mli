(** Communication metrics of a CONGEST execution (real or cost-charged):
    rounds, message count, total bits, per-edge and per-directed-edge bit
    loads, the largest single message, and a per-round activity
    histogram.

    The per-edge tallies are the data behind experiment E7 ("no pair of
    adjacent nodes needs to exchange more than [Õ(D)] bits", Section 1.2
    of the paper); the per-round log and the per-directed-edge bursts are
    what the {!Trace} journal and the {!Bounds} checker consume.

    Two layers feed a [t]:
    - {!Network.exec} records every real message with its direction
      ({!add_message_at}), the per-round totals ({!record_round}) and the
      per-edge-per-round bursts ({!note_round_edge_at});
    - {!Costmodel} records charged (pipelined) shipments via
      {!add_dir_bits} / {!add_dir_bits_at} — those are spread over many
      rounds by construction, so they contribute to totals but not to
      single-round bursts or the round log. *)

type round_record = {
  round : int;  (** position on the run's unified round timeline. *)
  active : int;  (** nodes that computed in this round. *)
  messages : int;  (** messages sent in this round. *)
  bits : int;  (** total bits of those messages. *)
}
(** One round's activity summary, as recorded by {!record_round}. *)

type t
(** A mutable metrics accumulator. *)

val create : Gr.t -> t
(** A fresh, all-zero accumulator for runs on the given graph. *)

val rounds : t -> int
(** Rounds accumulated so far (real and cost-charged). *)

val messages : t -> int
(** Real messages recorded so far. *)

val total_bits : t -> int
(** Total bits recorded so far (real messages plus charged shipments). *)

val max_edge_bits : t -> int
(** The largest number of bits exchanged over any single edge. *)

val edge_bits : t -> int -> int
(** Bits exchanged over the edge with the given dense index (both
    directions combined). *)

val max_message_bits : t -> int
(** The largest single message recorded by a real protocol run — the
    paper's [O(log n)] per-message budget is asserted against this. *)

val max_round_edge_bits : t -> int
(** The largest number of bits pushed through one directed edge in one
    real round (the CONGEST bandwidth is asserted against this). *)

val active_peak : t -> int
(** The most nodes active in any recorded round. *)

val round_log : t -> round_record list
(** The per-round activity records, in chronological order. Rounds of
    successive protocol runs on the same metrics continue the same
    timeline (they are offset by the rounds already accumulated). *)

val iter_dir :
  t ->
  (src:int -> dst:int -> bits:int -> messages:int -> burst:int -> unit) ->
  unit
(** Iterate over the directed edges that carried traffic: total [bits],
    message count and the largest single-round [burst] of the direction
    [src -> dst]. *)

val add_rounds : t -> int -> unit
(** Advance the round count by the given number of (real or charged)
    rounds. *)

val add_message : t -> u:int -> v:int -> bits:int -> unit
(** Record one real message of [bits] bits sent from [u] to [v].
    @raise Not_found if the edge does not exist. *)

val add_message_at : t -> dir:int -> bits:int -> unit
(** {!add_message} by precomputed directed slot [dir = 2·e + s] where [e]
    is the dense undirected edge index and [s] is [0] for the
    min-id → max-id direction, [1] otherwise. The flat-array engine
    derives [dir] from the dart tables in O(1) instead of re-resolving
    the edge per message. *)

val dart_dir : Gr.t -> int -> dst:int -> int
(** [dart_dir g d ~dst] is the directed slot (see {!add_message_at}) of
    the dart [d] of [g], whose head is [dst] — the slot the CSR slice of
    [dst] reaches it by, with no edge search. *)

val add_dir_bits : t -> u:int -> v:int -> bits:int -> unit
(** Charge [bits] shipped from [u] to [v] (cost-model layer: updates the
    directed and undirected totals, but neither message counts nor
    bursts — charged shipments are pipelined over many rounds). *)

val add_dir_bits_at : t -> dir:int -> bits:int -> unit
(** {!add_dir_bits} by precomputed directed slot (see {!add_message_at}):
    the cost model's stored charge plans hold these slots. *)

val record_round : t -> round:int -> active:int -> messages:int -> bits:int -> unit
(** Append one per-round activity record ({!Network.exec} calls this for
    every executed round). *)

val note_round_edge : t -> u:int -> v:int -> bits:int -> unit
(** Record that the directed edge [u -> v] carried [bits] bits within a
    single round (feeds the burst maxima). *)

val note_round_edge_at : t -> dir:int -> bits:int -> unit
(** {!note_round_edge} by precomputed directed slot (see
    {!add_message_at}). *)

val phase : t -> string -> int -> unit
(** Record that a named phase consumed the given number of rounds (the
    rounds themselves must be added separately via {!add_rounds} — phases
    are an annotation for reporting). *)

val phases : t -> (string * int) list
(** Accumulated per-phase rounds, in execution order. *)

val note_fault : t -> kind:string -> unit
(** Count one injected fault of the given kind (the engine calls this
    under a fault plan; the kind vocabulary is documented at
    {!Trace.type-event}). *)

val faults : t -> (string * int) list
(** Per-kind injected-fault counts, in order of first appearance —
    empty for a clean run. *)
