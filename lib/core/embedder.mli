(** The distributed planar embedding algorithm of Theorem 1.1 —
    the repository's core entry point.

    On a connected planar network with [n] nodes and diameter [D], the run
    elects the maximum-id node, builds a BFS tree rooted there and counts
    [n] with real message-passing protocols ({!Proto.elect}: a scaffold
    election, then one pass that climbs the scaffold tree and sends a BFS
    wave out of the maximum id, [O(D)] rounds and, on id layouts not
    adversarial to its fixed mix, [O(m log n)] messages), decomposes the
    tree by the recursive embedding order of Section 4, merges partial
    embeddings per Section 5,
    and ends with every node holding the clockwise cyclic order of its
    incident edges in one fixed planar drawing. Round complexity is
    measured (real rounds for the protocol phases, the documented cost
    model for the orchestrated phases) and is expected to scale as
    [O(D·min{log n, D})]; the trivial baseline of {!Baseline} scales as
    [O(n + D)].

    Non-planar inputs are rejected: some partial embedding fails, which —
    because the maintained partition is safe (Definition 3.1) — certifies
    a forbidden minor. *)

type report = {
  n : int;
  m : int;
  bandwidth : int;  (** bits per edge per round. *)
  leader : int;
  bfs_depth : int;
  rounds : int;  (** total simulated rounds. *)
  phases : (string * int) list;
      (** rounds per phase, in order: [leader-election+bfs] (phase 1's
          two protocol runs, [n] counted on the way) and
          [recursive-embedding] (the cost-model recursion). *)
  total_bits : int;
  max_edge_bits : int;  (** E7: worst pairwise communication. *)
  recursion_depth : int;
  recursion_calls : int;
  max_parts_at_restricted_merge : int;  (** E6. *)
  merges_pairwise : int;
  merges_star : int;
  merges_vertex : int;
  merges_path : int;
  retired_parts : int;
  safety_checks : int;  (** E8: validated merges (checks mode only). *)
  iface_bits_shipped : int;
  installs : int;  (** parts installed, fresh or merged. *)
  install_vertices : int;
      (** Σ|part| over those installs: the vertices the install workspace
          loaded. *)
  metrics : Metrics.t;
      (** the run's full accounting — per-round records, per-directed-edge
          loads and bursts, the largest single message — for the {!Bounds}
          checker and the {!Trace} JSON journal. *)
}

type outcome = {
  rotation : Rotation.t option;  (** [None] iff the input is not planar. *)
  report : report;
}

val run :
  ?config:Network.Config.t ->
  ?mode:Part.mode ->
  ?checks:bool ->
  ?base_size:int ->
  Gr.t ->
  outcome
(** @raise Invalid_argument on an empty or disconnected network.
    [mode] defaults to [Faithful]; [checks] (default off) validates every
    merge against the safety invariants.

    Every engine knob rides in [config] ({!Network.Config.t}, default
    {!Network.Config.default}) and is forwarded to the phase-1 protocol
    runs ({!Network.exec}'s sharded round loop): results and the whole
    observation timeline are bit-identical for any [domains] value. A config bandwidth of [None] resolves to
    {!Network.default_bandwidth}.

    A fault plan in the config ({!Fault.plan}) subjects the run's real
    message-passing — phase 1's two election runs — to the plan's
    drops, duplicates, reordering, delays and crash-restarts, with the
    protocols {!Reliable}-wrapped so the leader, every BFS distance and
    every BFS parent (the smallest-id neighbor one layer closer, as in
    the clean run) are still exact, and so is the rotation;
    the recursion's cost-model phases are orchestrated, not
    message-passing, and proceed unchanged. Rounds and fault events land
    on the same metrics/trace timeline as the clean run ([distplanar
    chaos] is the command-line front end; DESIGN.md §9 specifies the
    model). Composes with any [domains], as at the engine level.

    Observation goes through the config's one [observe] sink: a metrics
    sink there becomes the run's accounting (and is returned in the
    report; otherwise the embedder creates its own), and a trace sink
    makes the run decompose into named spans on one round timeline: the
    phase-1 protocols (one [leader-election+bfs] span over per-round
    events from the simulator), one [recurse.d<level>] span per recursion
    call, and one [schedule.merge] span per merge schedule, with
    part/survivor counts as span attributes. A bounds request inside [observe] is ignored — the
    embedder spans several protocol runs plus the cost model, so check
    {!Bounds} post-hoc on the report's metrics. *)
