(** Reproducible edge-churn traces over a planar pool graph, for
    benchmarking and differential-testing {!Incremental}. *)

type op = Insert of int * int | Delete of int * int

type trace = {
  n : int;  (** vertex universe *)
  initial : (int * int) list;  (** edges present before the first update *)
  ops : op array;
}

val make :
  seed:int ->
  updates:int ->
  insert_pct:int ->
  ?fresh_prob:float ->
  ?hold:float ->
  Gr.t ->
  trace
(** [make ~seed ~updates ~insert_pct g] builds a trace over the edge pool
    of the (planar) graph [g]: a [hold] fraction (default 0.3) of the
    pool starts absent, then each update inserts a random absent pool
    edge with probability [insert_pct]% and deletes a random present one
    otherwise. With [fresh_prob = 0.] (the default) every insert is a
    pool edge, so a trace whose state stays within the pool never forces
    a planarity rejection; a positive [fresh_prob] mixes in random
    non-pool pairs to exercise the rejection path. Deterministic in
    [seed]. *)

val initial_graph : trace -> Gr.t

val apply : Incremental.t -> op -> unit

val replay : Incremental.t -> trace -> unit
(** Apply every op in order (results discarded; see
    {!Incremental.stats}). *)
