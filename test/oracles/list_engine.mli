(** The pre-redesign CONGEST engine, semantics preserved exactly
    (including its per-round hashtable implementation): the differential
    oracle [test_engine_diff] runs beside [Network.exec]. *)

val run :
  ?bandwidth:int ->
  ?max_rounds:int ->
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  Gr.t ->
  ('s, 'm) Network.protocol ->
  's array
(** Run to quiescence and return the final states. Bandwidth defaults
    to [Network.default_bandwidth].
    @raise Network.Bandwidth_exceeded when a node over-sends on an edge.
    @raise Invalid_argument if a node addresses a non-neighbor.
    @raise Failure if [max_rounds] (default [16 * n + 64]) elapse without
    quiescence. *)
