(** Structured tracing of a CONGEST execution.

    A trace is an append-only journal of {e events} — named spans opened
    and closed at simulated rounds, per-round activity records, optional
    per-message records, and scalar notes — that decomposes a run into
    the phases the paper argues about (leader election, the recursion
    levels, the merge schedule of each call). {!Network.exec} feeds round
    and message events; {!Costmodel} and the embedder feed spans; the
    result is written as a machine-readable JSON journal
    ({!write_json}) or summarized as a per-phase table ({!pp_summary}).

    Spans nest: {!span_open}/{!span_close} maintain a stack, and every
    closed span records its name, nesting depth, start and end rounds,
    and a list of integer attributes (recursion depth, part counts,
    payload sizes, ...). Round numbers are supplied by the caller — the
    trace itself holds no clock — so real simulator rounds and
    cost-model rounds land on one timeline.

    Traces are bounded: past [max_events] events the journal drops new
    events (counted in {!dropped}) rather than growing without limit, so
    tracing a large run degrades gracefully. *)

type attr = string * int
(** A named integer attribute attached to a span or note. *)

type event =
  | Span_open of { name : string; round : int }
      (** A named phase began at [round]. *)
  | Span_close of { name : string; round : int; attrs : attr list }
      (** The innermost open phase ended at [round]. *)
  | Round of { round : int; active : int; messages : int; bits : int }
      (** One executed simulator round: how many nodes computed, how many
          messages they sent, and the total bits of those messages. *)
  | Message of { round : int; src : int; dst : int; bits : int }
      (** Recorded only when the trace was created with
          [~keep_messages:true]. *)
  | Fault of { round : int; kind : string; src : int; dst : int }
      (** One injected fault (see {!Fault}): [kind] is ["drop"],
          ["duplicate"], ["reorder"], ["delay"], ["crash-lost"],
          ["crash"] or ["restart"]; node-level events carry the node in
          [src] and [-1] in [dst]. Always recorded (fault events are rare
          and load-bearing, unlike per-message records). *)
  | Note of { name : string; value : int; round : int }
      (** A named scalar observation. *)
(** Everything the journal can record. *)

type span = {
  name : string;
  depth : int;  (** nesting depth at open time (outermost = 0). *)
  start_round : int;
  end_round : int;
  attrs : attr list;
}
(** One completed span, assembled from its open/close event pair. *)

type t
(** A mutable, append-only trace journal. *)

val create : ?keep_messages:bool -> ?max_events:int -> unit -> t
(** A fresh, empty trace. [keep_messages] (default [false]) records
    every individual message — precise but heavy; [max_events] (default
    [200_000]) bounds the journal. *)

val keep_messages : t -> bool
(** Whether this trace records individual messages. *)

val span_open : t -> string -> round:int -> unit
(** Open a named span at the given round (see {!span_close}). *)

val span_close : t -> ?attrs:attr list -> round:int -> unit -> unit
(** Close the innermost open span. @raise Invalid_argument if none. *)

val with_span : t option -> string -> clock:(unit -> int) -> (unit -> 'a) -> 'a
(** [with_span tr name ~clock f] wraps [f] in a span whose start and end
    rounds are read from [clock]; a [None] trace runs [f] bare. The span
    is closed even if [f] raises. *)

val on_round : t -> round:int -> active:int -> messages:int -> bits:int -> unit
(** Record one executed simulator round ({!Network.exec} calls this). *)

val on_message : t -> round:int -> src:int -> dst:int -> bits:int -> unit
(** No-op unless [keep_messages] was set. *)

val on_fault : t -> round:int -> kind:string -> src:int -> dst:int -> unit
(** Record one injected fault on the round timeline (the fault-aware
    engine calls this; see the {!type:event} constructor for the kind
    vocabulary). *)

val note : t -> string -> int -> round:int -> unit
(** Record a named scalar observation at the given round. *)

val events : t -> event list
(** All recorded events, in order. *)

val spans : t -> span list
(** Completed spans, in order of their {e open} events. *)

val open_spans : t -> int
(** Spans opened but not yet closed (non-zero after an aborted run). *)

val open_span_names : t -> string list
(** The names of the spans still open, innermost first — after an
    aborted run, the head is the phase that was executing when the run
    died (the [trace] CLI prints it in its livelock diagnosis). *)

val dropped : t -> int
(** Events discarded because the [max_events] bound was hit. *)

val summary : t -> (string * int * int * int) list
(** Per-phase aggregation of the completed spans, in order of first
    appearance: [(name, count, total_rounds, max_rounds)] where a span
    contributes [end_round - start_round] rounds. Parallel branches
    overlap on the timeline, so totals are span-rounds, not wall-clock
    rounds. *)

val pp_summary : Format.formatter -> t -> unit
(** The {!summary} as an aligned table, plus a dropped-events warning
    when the journal overflowed. *)

val write_json :
  ?name:string ->
  ?meta:(string * int) list ->
  ?metrics:Metrics.t ->
  out_channel ->
  t ->
  unit
(** Emit the JSON journal (schema ["distplanar-trace/1"], documented in
    EXPERIMENTS.md): run metadata, completed spans, notes, the per-round
    histogram and per-directed-edge load table of [metrics] when given,
    fault events when any were recorded, and individual messages when
    kept. *)

val to_json_string :
  ?name:string -> ?meta:(string * int) list -> ?metrics:Metrics.t -> t -> string
(** {!write_json} into a string (tests diff against this). *)
