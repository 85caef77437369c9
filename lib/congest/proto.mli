(** Real message-passing protocols run on the {!Network} engine.

    These implement the paper's "preliminaries" phase (Section 2): from
    nothing but their own id and their neighbors' ids, the nodes elect the
    maximum-id vertex as the root [s*], build a BFS tree rooted there, and
    aggregate values (e.g. the node count [n]) over it. Each is checked
    against its centralized counterpart in the test suite, and
    {!leader_bfs} against the max-id flood it replaced.

    All entry points take one [?config] ({!Network.Config.t}, default
    {!Network.Config.default}) carrying every engine knob — observation
    sinks, bandwidth, domain count, round guard, fault plan — and
    forward it to {!Network.exec}. Build it with the [with_*] pipeline
    or [Network.Config.make].

    A config with a fault plan runs the protocol {!Reliable}-wrapped
    under the plan, so the primitive computes the same result
    over lossy, reordering, crash-restarting links — at the price of
    acknowledgement traffic, retransmission rounds and the plan's
    quiescence grace period. Without a plan, execution is bit-identical
    at every [domains]. A plan composes
    with any [domains] too: the result is the same at every domain
    count. *)

type bfs_state = {
  leader : int;  (** maximum id in the network. *)
  dist : int;  (** hop distance to the leader. *)
  parent : int;
      (** BFS parent: the smallest-id neighbor one layer closer to the
          leader ([leader]'s parent is itself). *)
}
(** What every node knows when {!leader_bfs} quiesces. *)

val leader_bfs : ?config:Network.Config.t -> Gr.t -> bfs_state array
(** Every node learns the maximum id [M], its hop distance to [M] and a
    BFS parent. The network must be connected and non-empty.

    Two engine runs, each message at most two words ([2 * Gr.id_bits]):

    + {b Scaffold.} Flood the best candidate while relaxing distances,
      as a max-id flood does, but order candidates by a fixed bijective
      mix of the id (splitmix64's finalizer). A node re-announces only
      when its candidate improves, so the run ends with a BFS tree T′
      rooted at [R = argmax rank] after [ecc(R) + 1] rounds.
    + {b One fused pass over T′.} A convergecast of (subtree size, max
      id) climbs T′, each node remembering which child reported the
      max; the root sends a one-word token carrying [n] down that path
      to [M]; [M] starts a BFS wave of [(leader, dist)] messages with
      the max-id flood's relax rule (adopt a larger leader, or the same
      leader at a smaller distance), plus a tie-break: at the same
      leader and distance, take the smaller sender as parent, without
      re-announcing. The wave reaches a node at
      distance [d] from [M] in one inbox from its whole previous layer,
      in ascending sender order, so the parent is the smallest-id such
      neighbor — exactly the state a max-id flood leaves. Takes
      [ecc(R) + dist(R, M) + ecc(M) + 1] rounds.

    {b Rounds.} At most [2 ecc(R) + dist(R, M) + ecc(M) + 2 <= 4D + 2]
    on a fault-free run (each term is at most [D]).

    {b Messages.} Run 2 sends [(n - 1) + dist(R, M) + 2m]. Run 1 sends
    [deg v] messages each time [v] changes candidate, which happens
    when a candidate is the best by rank of all nodes at its distance
    or closer: [O(log n)] times per node when the ranks are in no
    relation to the graph, so [O(m log n)] in all. That holds for id
    layouts that are not adversarial to the fixed mix — the generators'
    numberings, which made the max-id flood send [Θ(m·D)] (path-5k:
    25.0 M messages, now about 0.1 M). An id layout built against the
    mix, with rank growing along the graph, still costs [O(m·D)].

    Under a fault plan both runs are {!Reliable}-wrapped and the states
    still equal the clean run's: [leader] and [dist] because both relax
    rules converge under delayed delivery, and [parent] because every
    neighbor one layer closer announces its final state to the node, and
    the tie-break keeps the smallest of them whatever order they arrive
    in. *)

val elect : ?config:Network.Config.t -> Gr.t -> bfs_state array * int
(** {!leader_bfs} together with the node count [n], which [M] learns
    from the token — so a caller that needs [n] at the leader pays no
    further pass. *)

val convergecast :
  ?config:Network.Config.t ->
  Gr.t ->
  parent:int array ->
  root:int ->
  values:int array ->
  op:(int -> int -> int) ->
  value_bits:int ->
  int
(** Aggregate [values] with the associative-commutative [op] up the given
    tree (leaves start; every node forwards the fold of its subtree):
    returns the root's total after [depth] rounds. *)

val subtree_sizes :
  ?config:Network.Config.t ->
  Gr.t ->
  parent:int array ->
  root:int ->
  int array
(** Every node learns the size of its own subtree of the given tree (the
    primitive behind the splitter search of Section 4): a convergecast in
    which each node retains its accumulated count. Takes [depth] rounds. *)

val broadcast :
  ?config:Network.Config.t ->
  Gr.t ->
  parent:int array ->
  root:int ->
  value:int ->
  value_bits:int ->
  int array
(** Push [value] from the root down the tree; returns each node's received
    copy. *)

(** {2 The raw protocols}

    The tree primitives above each run one of these on {!Network.exec}.
    They are exposed so the differential suite can pin them, state for
    state and event for event, against their list-shaped originals. They take the
    same arguments and raise the same [Invalid_argument] on bad arrays. *)

type cc_state = {
  pending : int;  (** children not yet reported. *)
  acc : int;  (** fold of the node's value and the reports so far. *)
  done_ : bool;  (** reported to the parent (never set at the root). *)
}
(** A node's state in {!convergecast} and {!subtree_sizes}. *)

val convergecast_protocol :
  Gr.t ->
  parent:int array ->
  root:int ->
  values:int array ->
  op:(int -> int -> int) ->
  value_bits:int ->
  (cc_state, int) Network.protocol

val subtree_sizes_protocol :
  Gr.t -> parent:int array -> root:int -> (cc_state, int) Network.protocol

val broadcast_protocol :
  Gr.t ->
  parent:int array ->
  root:int ->
  value:int ->
  value_bits:int ->
  (int option, int) Network.protocol
