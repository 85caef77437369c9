(** The unified observation sink of a CONGEST run.

    Everything the engine can report about an execution is requested
    through one value: a {!Metrics.t} accumulator for the quantitative
    record (rounds, per-edge loads, bursts), a {!Trace.t} journal for
    the event timeline, and an optional {!Bounds} specification that
    makes the run check itself against Theorem 1.1's inequalities and
    return the verdict in its report. {!Network.exec} fans each recorded
    event out to whichever sinks are present; an {!none} observer makes
    the engine run at full speed with only its own flat counters.

    The same value is accepted by the higher layers ({!Proto}, the
    embedder), so one observer threads a whole pipeline onto a single
    metrics timeline and trace journal — this replaces the pre-redesign
    pattern of separate [?metrics]/[?trace] optional arguments on every
    entry point. *)

type t
(** A bundle of observation requests: zero or one of each sink kind. *)

type bounds = {
  d : int;  (** the network diameter the caller measured or knows. *)
  c_rounds : int option;  (** round-bound constant; [None] = default. *)
  c_bits : int option;  (** message-bits constant; [None] = default. *)
}
(** A self-check request: the inputs {!Bounds.check} needs beyond what
    the run itself provides. Build one with {!bounds_spec}. *)

val none : t
(** Observe nothing: the engine keeps only the flat counters of its own
    {!Network.report}. *)

val make : ?metrics:Metrics.t -> ?trace:Trace.t -> ?bounds:bounds -> unit -> t
(** Compose an observer from the sinks given; omitted arguments mean
    "don't record that". [make ()] is {!none}. *)

val of_metrics : Metrics.t -> t
(** Shorthand for [make ~metrics ()]. *)

val of_trace : Trace.t -> t
(** Shorthand for [make ~trace ()]. *)

val bounds_spec : ?c_rounds:int -> ?c_bits:int -> d:int -> unit -> bounds
(** A bounds request: after the run, {!Network.exec} evaluates
    {!Bounds.check} (with the run's actual bandwidth) and stores the
    verdict in the result's report. If no metrics sink was given, the
    engine accumulates into a private one so the verdict is still
    computable. *)

val metrics : t -> Metrics.t option
(** The metrics sink, if one was requested. *)

val trace : t -> Trace.t option
(** The trace journal, if one was requested. *)

val bounds : t -> bounds option
(** The bounds request, if one was made. *)
