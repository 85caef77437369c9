(** Compact distributed certification of a planar embedding
    (a proof-labeling scheme in the style of Feuilloley–Fraigniaud–
    Montealegre–Rapaport–Rémila–Todinca, {e Compact Distributed
    Certification of Planar Graphs}, PODC 2020 — see PAPERS.md).

    The embedder runs once; a production network re-verifies its output
    forever, locally, without re-running anything global. A centralized
    {e prover} ({!prove}) looks at the accepted rotation system and
    assigns every node a short {e certificate}; from then on, any node
    can trigger a {e verification round} ({!verify}): every node sends
    one [O(log n)]-bit message per incident edge, reads its neighbors'
    messages, and accepts or rejects — {b one} CONGEST round, no
    recursion, no leader. The scheme is

    - {e complete}: certificates produced by {!prove} from a genus-0
      rotation of a connected graph are accepted by every node, and
    - {e sound}: if the rotation system is {e not} a planar embedding,
      then {e no} certificate assignment whatsoever makes all nodes
      accept — at least one node rejects (the mutation suite in
      [test/test_certify.ml] attacks this claim mechanically).

    The certificate of node [v] is the spanning-tree record
    [(root, parent, depth)] plus Euler bookkeeping [(nv, ne, nf)] — the
    vertex / edge / face-leader counts of [v]'s subtree — and, for each
    in-dart [u -> v], the name of the dart leading its face orbit and
    the number of face-walk steps to it. Tree fields are [O(log n)]
    bits; each dart record is [O(log n)] bits, so a node stores
    [O((1 + deg v) log n)] bits and the whole network [O(n log n)] —
    by planarity the average degree is below 6, hence [O(log n)] bits
    per node amortized (DESIGN.md §12 gives the layout, the exact bit
    accounting and the soundness argument). Every verification message
    fits the default [16⌈log₂ n⌉] CONGEST bandwidth.

    Soundness rests on two locally-checkable global facts: the
    [(root, parent, depth)] fields form a spanning tree whose subtree
    sums pin [n], [m] and the face count [f] at the root, where Euler's
    formula [n - m + f = 2] is checked; and the per-dart
    [(leader, dist)] fields prove [f] counts {e face orbits} exactly
    once each — along every orbit the leader name must be constant,
    [dist] must step down by one, and a dart claiming [dist = 0] must
    {e be} the named leader, so each orbit contributes exactly one
    leader and over- or under-counting faces is impossible. *)

type t = {
  graph : Gr.t;  (** the network the certificates were issued for. *)
  root : int array;  (** per node: the claimed root (leader) id. *)
  parent : int array;  (** per node: spanning-tree parent ([root]'s is itself). *)
  depth : int array;  (** per node: spanning-tree depth. *)
  nv : int array;  (** per node: vertices in its subtree. *)
  ne : int array;  (** per node: edges owned by its subtree (an edge is
                       owned by its max-id endpoint). *)
  nf : int array;  (** per node: face leaders owned by its subtree (a
                       face is owned by the head of its leader dart). *)
  leader_u : int array;  (** per dart [d]: source of [d]'s face-orbit leader. *)
  leader_v : int array;  (** per dart [d]: head of [d]'s face-orbit leader. *)
  dist : int array;
      (** per dart [d]: face-walk steps from [d] to its orbit's leader. *)
}
(** A certificate assignment: one record per node, the per-dart fields
    stored flat over the graph's dense dart ids (node [v] holds the
    slots of its in-darts, [Gr.dart_offsets g.(v) ..]). The fields are
    exposed — the adversarial test suite mutates them directly; use
    {!prove} to build an honest assignment. *)

type size = {
  nodes : int;
  total_bits : int;  (** certificate bits across the whole network. *)
  mean_bits : float;  (** per-node average. *)
  max_bits : int;  (** the largest single node's certificate. *)
  word : int;  (** [⌈log₂ n⌉], the comparison yardstick. *)
}
(** Certificate-size accounting, from the declared field widths (ids
    [⌈log₂ n⌉] bits, counts and distances sized to their ranges). *)

val size : t -> size

val prove : Rotation.t -> t
(** The honest prover: BFS spanning tree from the maximum id (the
    repo's leader convention), subtree counts by reverse BFS order, and
    per-orbit leaders (the lexicographically least dart of each face)
    with exact face-walk distances. Works mechanically on {e any}
    rotation system of a connected graph — on a non-planar one the
    resulting certificates simply fail Euler at the root, which the
    negative tests rely on.
    @raise Invalid_argument on an empty or disconnected graph. *)

val corrupt : seed:int -> k:int -> t -> t
(** [corrupt ~seed ~k certs] is a fresh assignment in which [k] distinct
    nodes (chosen by the seeded stream) each had one uniformly random
    bit of their certificate flipped — any field, tree or dart slot,
    within its declared width, so the flip always changes the value.
    The original is untouched. Soundness demands every such corruption
    be rejected; [distplanar certify --corrupt k\@seed] asserts it.
    @raise Invalid_argument if [k < 0] or [k > n]. *)

(** {2 The one-round verifier} *)

type state = {
  waiting : int;  (** neighbors not yet heard from. *)
  bad : int;  (** smallest violated-check code so far; [0] = none. *)
  sum_nv : int;  (** children's subtree-vertex claims received so far. *)
  sum_ne : int;
  sum_nf : int;
  settled : bool;  (** all neighbors heard, final checks done. *)
}
(** The verifier's per-node protocol state. Violation codes (the [bad]
    field, smallest kept — the merge is order-independent, so the
    verdict is identical under any delivery schedule): [1] root-id
    mismatch with a neighbor, [2] malformed parent/depth fields, [3]
    root self-check failed, [4] depth not one more than the parent's,
    [5] subtree sums don't add up, [6] Euler's formula fails at the
    root, [7] face-leader name changes along an orbit, [8] face
    distance fails to step down, [9] a dart claims [dist = 0] without
    being its orbit's leader, [10] verification never completed.
    {!reason_name} renders them. *)

type msg
(** What a node sends each neighbor: its tree record plus the face
    record of the one dart whose orbit successor the recipient holds. *)

val protocol : Rotation.t -> t -> (state, msg) Network.protocol
(** The raw one-round protocol, exposed so the engine-differential
    suite can pin it bit-identical across engines and shard counts.
    Round 0 sends every certificate field once per incident edge;
    round 1 checks and quiesces. Pure closures — safe under
    [?domains]. *)

type outcome = {
  accept : bool array;  (** per-node verdict. *)
  reasons : int array;  (** per-node violation code ([0] = accepted). *)
  all_accept : bool;  (** the global verdict: every node accepted. *)
  rounds : int;  (** verification rounds executed — [1] on the clean
                     engine (0 on a single-node network). *)
  report : Network.report;
      (** the engine's wire accounting; on a clean (fault-free) run its
          [verdict] field carries the Bounds self-check of the one-round
          claim — [rounds <= 1] and every message within [16⌈log₂ n⌉]
          bits. *)
  size : size;  (** the certificate-size accounting of the run. *)
}

val verify : ?config:Network.Config.t -> Rotation.t -> t -> outcome
(** Run the distributed verifier on {!Network.exec} under [config]
    (default {!Network.Config.default}). Observation threads through
    the config's [observe] exactly as in {!Proto}: a metrics sink
    counts the certificate bits on the wire, a trace sink gets a
    [certify.verify] span, and unless the caller installed their own
    bounds request a clean run self-checks the one-round claim
    ([Observe.bounds_spec ~c_rounds:1 ~d:0]) and returns the verdict in
    [report]. A config with a fault plan routes the round through
    {!Reliable} on the fault-aware engine — more rounds (acks,
    retransmissions, the grace period), same verdict — at the config's
    [domains], which changes only wall time.
    @raise Invalid_argument if the certificates were issued for a
    different graph than the rotation's. *)

val reason_name : int -> string
(** Human-readable name of a violation code ([0] -> ["accepted"]). *)
