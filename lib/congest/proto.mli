(** Real message-passing protocols run on the {!Network} engine.

    These implement the paper's "preliminaries" phase (Section 2): from
    nothing but their own id and their neighbors' ids, the nodes elect the
    maximum-id vertex as the root [s*], build a BFS tree rooted there, and
    aggregate values (e.g. the node count [n]) over it. Each is checked
    against its centralized counterpart in the test suite.

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
  parent : int;  (** BFS parent ([leader]'s parent is itself). *)
}
(** What every node knows when {!leader_bfs} quiesces. *)

val leader_bfs : ?config:Network.Config.t -> Gr.t -> bfs_state array
(** Flood the maximum id while relaxing distances: quiesces in [O(D)]
    rounds with every node knowing the leader, its BFS distance and a BFS
    parent. The network must be connected and non-empty. *)

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

    Each entry point above runs one of these on {!Network.exec}. They are
    exposed so the differential suite can pin them, state for state and
    event for event, against their list-shaped originals. They take the
    same arguments and raise the same [Invalid_argument] on bad arrays. *)

type cc_state = {
  pending : int;  (** children not yet reported. *)
  acc : int;  (** fold of the node's value and the reports so far. *)
  done_ : bool;  (** reported to the parent (never set at the root). *)
}
(** A node's state in {!convergecast} and {!subtree_sizes}. *)

val leader_bfs_protocol : Gr.t -> (bfs_state, int * int) Network.protocol

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
