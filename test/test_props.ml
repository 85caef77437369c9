(* Property sweep over the generator families and the simulator.

   Four groups:
   - rotation validity: on every family in Gen, the embedder's verdict
     matches the centralized DMP verdict, accepted rotations are genus-0,
     and their face count satisfies Euler's formula [n - m + f = 2]
     (computed independently through Dual);
   - determinism & quiescence: running a protocol or the full embedder
     twice on identical inputs yields bit-identical states, round counts
     and per-round metrics, and every tier-1 family quiesces strictly
     before the engine's round limit;
   - delivery order: the documented inbox guarantee (sorted by sender id,
     per-sender outbox order preserved) observed by order-sensitive
     protocols;
   - phase 1: [Proto.leader_bfs] leaves every node in the state the
     max-id flood it replaced leaves, on every family above and at every
     domain count, in O(m log n) messages on the layouts that made the
     flood send Θ(m·D). *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rotation validity + Euler across the families                       *)
(* ------------------------------------------------------------------ *)

let euler_holds r =
  let g = Rotation.graph r in
  let d = Dual.make r in
  Gr.n g - Gr.m g + Dual.n_faces d = 2

let verify_family name g =
  let centralized = Dmp.is_planar g in
  let o = Embedder.run g in
  match o.Embedder.rotation with
  | None ->
      check_bool (name ^ ": rejection matches DMP") false centralized
  | Some r ->
      check_bool (name ^ ": acceptance matches DMP") true centralized;
      check_bool (name ^ ": genus 0") true (Rotation.is_planar_embedding r);
      check_bool (name ^ ": Euler n-m+f=2") true (euler_holds r)

let fixed_families =
  [
    ("path 17", Gen.path 17);
    ("cycle 24", Gen.cycle 24);
    ("star 12", Gen.star 12);
    ("complete 4", Gen.complete 4);
    ("complete 5", Gen.complete 5);
    ("K2,3", Gen.complete_bipartite 2 3);
    ("K3,3", Gen.k33 ());
    ("K5", Gen.k5 ());
    ("petersen", Gen.petersen ());
    ("wheel 9", Gen.wheel 9);
    ("ladder 6", Gen.ladder 6);
    ("fan 11", Gen.fan 11);
    ("grid 4x5", Gen.grid 4 5);
    ("triangular grid 3x4", Gen.triangular_grid 3 4);
    ("toroidal grid 3x3", Gen.toroidal_grid 3 3);
    ("binary tree 15", Gen.binary_tree 15);
    ("K4 subdivision 3", Gen.k4_subdivision 3);
    ("subdivided wheel", Gen.subdivide (Gen.wheel 6) 2);
    ("subdivided K5", Gen.subdivide (Gen.k5 ()) 2);
  ]

let test_fixed_families () =
  (* The slowest sweep in the suite: every family runs a full embedder
     pipeline, and the runs are independent — exactly the shape the
     inter-run pool exists for. DOMAINS (the CI multicore job sets it)
     overrides the hardware default; failures unwrap to the underlying
     Alcotest error so the report reads as if the sweep were serial. *)
  let fams = Array.of_list fixed_families in
  let jobs =
    match Option.bind (Sys.getenv_opt "DOMAINS") int_of_string_opt with
    | Some k when k > 0 -> k
    | _ -> Pool.default_jobs ()
  in
  try
    ignore
      (Pool.map ~jobs (Array.length fams) (fun i ->
           let (name, g) = fams.(i) in
           verify_family name g))
  with Pool.Task_failed { exn; _ } -> raise exn

let seed_prop name build =
  QCheck.Test.make ~count:12 ~name
    QCheck.(int_range 0 10_000)
    (fun seed ->
      verify_family (Printf.sprintf "%s seed=%d" name seed) (build seed);
      true)

let random_families =
  [
    ("random tree", fun seed -> Gen.random_tree ~seed 20);
    ("random maximal planar", fun seed -> Gen.random_maximal_planar ~seed 30);
    ("random planar", fun seed -> Gen.random_planar ~seed ~n:24 ~m:40);
    ( "random outerplanar",
      fun seed -> Gen.random_outerplanar ~seed ~n:20 ~chord_prob:0.5 );
    ( "random connected graph",
      fun seed -> Gen.random_connected_graph ~seed ~n:16 ~m:24 );
  ]

let random_family_props =
  List.map (fun (name, build) -> seed_prop name build) random_families

let test_relabelled () =
  (* Vertex numbering must not matter: relabel a grid by a random
     permutation and re-verify. *)
  List.iter
    (fun seed ->
      let g = Gen.grid 4 6 in
      let p = Gen.random_permutation ~seed (Gr.n g) in
      let edges =
        List.map (fun (u, v) -> (p.(u), p.(v))) (Gr.edges g)
      in
      let h = Gr.of_edges ~n:(Gr.n g) edges in
      verify_family (Printf.sprintf "relabelled grid seed=%d" seed) h)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Determinism & quiescence                                            *)
(* ------------------------------------------------------------------ *)

let metrics_equal name a b =
  check (name ^ ": rounds") (Metrics.rounds a) (Metrics.rounds b);
  check (name ^ ": messages") (Metrics.messages a) (Metrics.messages b);
  check (name ^ ": total bits") (Metrics.total_bits a) (Metrics.total_bits b);
  check (name ^ ": max message bits") (Metrics.max_message_bits a)
    (Metrics.max_message_bits b);
  check (name ^ ": max burst") (Metrics.max_round_edge_bits a)
    (Metrics.max_round_edge_bits b);
  check_bool (name ^ ": round log") true
    (Metrics.round_log a = Metrics.round_log b)

let test_protocol_deterministic () =
  List.iter
    (fun (name, g) ->
      let run () =
        let m = Metrics.create g in
        let states =
          Proto.leader_bfs
            ~config:(Network.Config.make ~observe:(Observe.of_metrics m) ())
            g
        in
        (states, m)
      in
      let (s1, m1) = run () in
      let (s2, m2) = run () in
      check_bool (name ^ ": identical states") true (s1 = s2);
      metrics_equal name m1 m2)
    [
      ("grid 6x6", Gen.grid 6 6);
      ("maxplanar 60", Gen.random_maximal_planar ~seed:7 60);
      ("cycle 30", Gen.cycle 30);
    ]

let rotations_equal r1 r2 =
  let g = Rotation.graph r1 in
  let ok = ref true in
  for v = 0 to Gr.n g - 1 do
    if Rotation.rotation r1 v <> Rotation.rotation r2 v then ok := false
  done;
  !ok

let test_embedder_deterministic () =
  List.iter
    (fun (name, g) ->
      let o1 = Embedder.run g in
      let o2 = Embedder.run g in
      let r1 = o1.Embedder.report and r2 = o2.Embedder.report in
      check (name ^ ": rounds") r1.Embedder.rounds r2.Embedder.rounds;
      check (name ^ ": total bits") r1.Embedder.total_bits
        r2.Embedder.total_bits;
      metrics_equal name r1.Embedder.metrics r2.Embedder.metrics;
      match (o1.Embedder.rotation, o2.Embedder.rotation) with
      | Some a, Some b ->
          check_bool (name ^ ": identical rotation") true (rotations_equal a b)
      | None, None -> Alcotest.failf "%s: expected planar" name
      | _ -> Alcotest.failf "%s: runs disagree on planarity" name)
    [
      ("grid 5x6", Gen.grid 5 6);
      ("cycle 30", Gen.cycle 30);
      ("maxplanar 80", Gen.random_maximal_planar ~seed:3 80);
      ("K4 subdivision 4", Gen.k4_subdivision 4);
    ]

let test_quiescence () =
  (* The engine's default limit is 16n + 64; every tier-1 family must
     quiesce strictly below it (leader_bfs is O(D) ≪ that). *)
  List.iter
    (fun (name, g) ->
      let m = Metrics.create g in
      let _ =
        Proto.leader_bfs
          ~config:(Network.Config.make ~observe:(Observe.of_metrics m) ())
          g
      in
      let limit = (16 * Gr.n g) + 64 in
      check_bool
        (Printf.sprintf "%s: quiesced (%d < %d)" name (Metrics.rounds m) limit)
        true
        (Metrics.rounds m < limit))
    [
      ("path 40", Gen.path 40);
      ("cycle 40", Gen.cycle 40);
      ("star 25", Gen.star 25);
      ("grid 7x7", Gen.grid 7 7);
      ("maxplanar 100", Gen.random_maximal_planar ~seed:11 100);
    ]

(* ------------------------------------------------------------------ *)
(* Delivery order                                                      *)
(* ------------------------------------------------------------------ *)

(* Leaves of a star send their id to the center in round 0; the center
   records its inbox verbatim. The documented guarantee says the inbox
   arrives sorted by sender id. *)
let collect_inbox_protocol =
  List_shape.of_lists {
    List_shape.init =
      (fun _g v -> ([], if v = 0 then [] else [ (0, v) ]));
    round = (fun _g _v st inbox -> (st @ inbox, []));
    msg_bits = (fun _ -> 8);
  }

let test_inbox_sorted_by_sender () =
  let n = 12 in
  let g = Gen.star n in
  let states = (Network.exec g collect_inbox_protocol).Network.states in
  let senders = List.map fst states.(0) in
  check_bool "every leaf heard" true
    (List.length senders = n - 1);
  check_bool "inbox sorted by sender id" true
    (List.sort compare senders = senders)

(* One sender, several messages in one outbox: they must arrive in the
   order the sender listed them. *)
let test_same_sender_order () =
  let g = Gen.path 2 in
  let proto =
    List_shape.of_lists {
      List_shape.init =
        (fun _g v -> ([], if v = 0 then [ (1, 10); (1, 20); (1, 30) ] else []));
      round = (fun _g _v st inbox -> (st @ inbox, []));
      msg_bits = (fun _ -> 8);
    }
  in
  (* Three messages share the edge in round 0; give them room. *)
  let states =
    (Network.exec ~config:(Network.Config.make ~bandwidth:64 ()) g proto)
      .Network.states
  in
  check_bool "outbox order preserved" true
    (states.(1) = [ (0, 10); (0, 20); (0, 30) ])

(* An order-observing protocol (its state folds the inbox in delivery
   order, non-commutatively) must still be reproducible run to run. *)
let test_order_observing_deterministic () =
  let g = Gen.grid 5 5 in
  let proto =
    List_shape.of_lists {
      List_shape.init =
        (fun g v ->
          (v, List.map (fun u -> (u, v)) (Array.to_list (Gr.neighbors g v))));
      round =
        (fun _g _v st inbox ->
          (* Non-commutative fold: delivery order changes the state. *)
          (List.fold_left (fun acc (src, x) -> (acc * 31) + (src lxor x)) st inbox,
           []));
      msg_bits = (fun _ -> 16);
    }
  in
  let s1 = (Network.exec g proto).Network.states in
  let s2 = (Network.exec g proto).Network.states in
  check_bool "order-observing states identical" true (s1 = s2)

(* ------------------------------------------------------------------ *)
(* Phase 1 against the max-id flood                                    *)
(* ------------------------------------------------------------------ *)

(* Every family of this file (the random ones at three seeds each, the
   relabelled grids at theirs), the degenerate sizes, and the shapes
   whose diameter or degree is extreme. *)
let phase1_families =
  let seeded =
    List.concat_map
      (fun (name, build) ->
        List.map (fun seed -> (Printf.sprintf "%s seed=%d" name seed, build seed))
          [ 1; 2; 3 ])
      (random_families
      @ [
          ( "relabelled grid",
            fun seed ->
              let g = Gen.grid 4 6 in
              Gr.relabel g (Gen.random_permutation ~seed (Gr.n g)) );
        ])
  in
  fixed_families @ seeded
  @ [
      ("n=1", Gen.path 1);
      ("n=2", Gen.path 2);
      ("star 40", Gen.star 40);
      ("path 200", Gen.path 200);
      ("binary tree 127", Gen.binary_tree 127);
      ("cycle 101", Gen.cycle 101);
      ("grid 7x7", Gen.grid 7 7);
      ("maxplanar 100", Gen.random_maximal_planar ~seed:11 100);
    ]

let test_leader_bfs_matches_flood () =
  List.iter
    (fun (name, g) ->
      let want = List_oracles.max_id_leader_bfs g in
      List.iter
        (fun domains ->
          let config = Network.Config.make ~domains () in
          let (got, n) = Proto.elect ~config g in
          let label = Printf.sprintf "%s [domains=%d]" name domains in
          check_bool (label ^ ": states equal the max-id flood's") true
            (got = want);
          check (label ^ ": n learned") (Gr.n g) n)
        [ 1; 2; 4 ])
    phase1_families

let phase1_messages g =
  let m = Metrics.create g in
  ignore
    (Proto.leader_bfs
       ~config:(Network.Config.make ~observe:(Observe.of_metrics m) ())
       g);
  Metrics.messages m

(* Phase 1 sends at most [c · m · ⌈log₂ n⌉] messages, c = 3
   ([Gr.id_bits] is ⌈log₂ n⌉ for n >= 2), on paths and cycles of 16 to
   3000 nodes and square-ish grids of 16 to 2600, each with its
   generator numbering (ids growing along the graph: the
   max-id flood's Θ(m·D) layout), with reversed ids, and under a seeded
   random relabelling. Measured worst c over those ranges (n >= 64 in
   brackets): path 2.32 (1.97), cycle 2.61 (1.89), grid 1.90 (1.78) for
   the generator and reversed layouts; 2.93 (2.54) for random ones. At
   the bench sizes: path-5k 1.59, cycle-2k 1.70, grid-40x40 1.42. *)
let prop_phase1_messages_m_log_n =
  let shapes =
    QCheck.Gen.(
      oneof
        [
          map (fun n -> ("path", Gen.path n)) (int_range 16 3000);
          map (fun n -> ("cycle", Gen.cycle n)) (int_range 16 3000);
          map (fun r -> ("grid", Gen.grid r (r + 1))) (int_range 4 50);
        ])
  in
  let layouts = QCheck.Gen.(pair (int_range 0 2) (int_range 0 10_000)) in
  QCheck.Test.make ~count:40
    ~name:"phase-1 messages <= 3 m ceil(log2 n) on path, cycle, grid"
    (QCheck.make
       ~print:(fun ((fam, g), (layout, seed)) ->
         Printf.sprintf "%s n=%d layout=%d seed=%d" fam (Gr.n g) layout seed)
       (QCheck.Gen.pair shapes layouts))
    (fun ((_, g), (layout, seed)) ->
      let n = Gr.n g in
      let g =
        match layout with
        | 0 -> g
        | 1 -> Gr.relabel g (Array.init n (fun v -> n - 1 - v))
        | _ -> Gr.relabel g (Gen.random_permutation ~seed n)
      in
      phase1_messages g <= 3 * Gr.m g * Gr.id_bits g)

(* The two inputs the flood was worst on among the pipeline bench's and
   the scaling probe's: 249,600 and 24,999,999 messages. *)
let test_phase1_messages_pinned () =
  let grid = phase1_messages (Gen.grid 40 40)
  and path = phase1_messages (Gen.path 5000) in
  check_bool (Printf.sprintf "grid-40x40: %d <= 55,000" grid) true (grid <= 55_000);
  check_bool (Printf.sprintf "path-5k: %d <= 150,000" path) true (path <= 150_000)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest random_family_props in
  Alcotest.run "props"
    [
      ( "rotation validity",
        [
          Alcotest.test_case "fixed families" `Quick test_fixed_families;
          Alcotest.test_case "relabelled" `Quick test_relabelled;
        ]
        @ qcheck );
      ( "determinism",
        [
          Alcotest.test_case "protocol runs" `Quick test_protocol_deterministic;
          Alcotest.test_case "embedder runs" `Quick test_embedder_deterministic;
          Alcotest.test_case "quiescence" `Quick test_quiescence;
        ] );
      ( "delivery order",
        [
          Alcotest.test_case "sorted by sender" `Quick
            test_inbox_sorted_by_sender;
          Alcotest.test_case "same-sender order" `Quick test_same_sender_order;
          Alcotest.test_case "order-observing determinism" `Quick
            test_order_observing_deterministic;
        ] );
      ( "phase 1",
        [
          Alcotest.test_case "leader_bfs equals the max-id flood" `Quick
            test_leader_bfs_matches_flood;
          QCheck_alcotest.to_alcotest prop_phase1_messages_m_log_n;
          Alcotest.test_case "messages on grid-40x40 and path-5k" `Quick
            test_phase1_messages_pinned;
        ] );
    ]
