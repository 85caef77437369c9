(* The fault-injection layer: determinism of seeded fault plans, the
   semantics of each fault kind, and recovery through the Reliable
   link layer — up to the full embedder producing Euler-verified
   embeddings over lossy links (ISSUE 3 acceptance criteria).

   The companion guarantees — that with no plan installed the engine is
   bit-identical to the pre-fault one — live in test_engine_diff.ml. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let cfg = Network.Config.make

let to_all g v msg =
  Gr.fold_neighbors g v ~init:[] ~f:(fun acc w -> (w, msg) :: acc)

(* Max-id flood: monotone, so it converges to the right answer under any
   delivery schedule in which every message (or a retransmission of its
   content) eventually arrives. *)
let flood =
  Network.of_lists {
    Network.init = (fun g v -> (v, to_all g v v));
    round =
      (fun g v best inbox ->
        let best' = List.fold_left (fun acc (_, x) -> max acc x) best inbox in
        if best' = best then (best, []) else (best', to_all g v best'));
    msg_bits = (fun _ -> 12);
  }

(* Each node posts k numbered messages to every neighbor in its round-0
   outbox; receivers accumulate (sender, value) in delivery order.
   Exposes exactly-once and per-sender-FIFO violations directly. *)
let streamer k =
  Network.of_lists {
    Network.init =
      (fun g v ->
        let outs =
          Gr.fold_neighbors g v ~init:[] ~f:(fun acc w ->
              acc @ List.init k (fun i -> (w, (v, i + 1))))
        in
        ([], outs));
    round = (fun _g _v seen inbox -> (seen @ inbox, []));
    msg_bits = (fun _ -> 24);
  }

let lossy_spec =
  {
    Fault.default with
    Fault.drop = 0.1;
    duplicate = 0.05;
    reorder = 0.1;
    delay = 0.1;
    max_delay = 3;
  }

let fault_events tr =
  List.filter_map
    (function
      | Trace.Fault { round; kind; src; dst } -> Some (round, kind, src, dst)
      | _ -> None)
    (Trace.events tr)

let run_observed ?spec ?(domains = 1) ~seed g proto =
  let plan = Fault.make ?spec ~seed () in
  let m = Metrics.create g in
  let tr = Trace.create () in
  let r =
    Network.exec
      ~config:
        (cfg ~bandwidth:4096 ~domains
           ~observe:(Observe.make ~metrics:m ~trace:tr ())
           ~faults:plan ())
      g proto
  in
  (r, m, tr, plan)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_same_seed_same_run () =
  let g = Gen.grid 6 7 in
  let (r1, m1, t1, p1) = run_observed ~spec:lossy_spec ~seed:42 g flood in
  let (r2, m2, t2, p2) = run_observed ~spec:lossy_spec ~seed:42 g flood in
  check_bool "states" true (r1.Network.states = r2.Network.states);
  check "rounds" r1.Network.rounds r2.Network.rounds;
  check_bool "fault stats" true (Fault.stats p1 = Fault.stats p2);
  check_bool "fault counts in metrics" true (Metrics.faults m1 = Metrics.faults m2);
  check_bool "trace events (incl. fault timeline)" true
    (Trace.events t1 = Trace.events t2);
  check_bool "round log" true (Metrics.round_log m1 = Metrics.round_log m2)

let test_reset_replays () =
  let g = Gen.grid 5 5 in
  let plan = Fault.make ~spec:lossy_spec ~seed:9 () in
  let r1 = Network.exec ~config:(cfg ~faults:plan ()) g flood in
  let s1 = Fault.stats plan in
  Fault.reset plan;
  let r2 = Network.exec ~config:(cfg ~faults:plan ()) g flood in
  check_bool "reset replays states" true (r1.Network.states = r2.Network.states);
  check "reset replays rounds" r1.Network.rounds r2.Network.rounds;
  check_bool "reset replays stats" true (s1 = Fault.stats plan)

let test_seeds_differ () =
  (* Not a tautology (two seeds could coincide), but these two do not —
     and must keep not doing so, or determinism is broken somewhere. *)
  let g = Gen.grid 6 7 in
  let (_, _, _, p1) = run_observed ~spec:lossy_spec ~seed:1 g flood in
  let (_, _, _, p2) = run_observed ~spec:lossy_spec ~seed:2 g flood in
  check_bool "different seeds draw different faults" false
    (Fault.stats p1 = Fault.stats p2)

(* ------------------------------------------------------------------ *)
(* Fault-kind semantics                                                *)
(* ------------------------------------------------------------------ *)

let test_zero_fault_plan_is_benign () =
  (* An all-zero plan runs on the clocked engine — more rounds (the
     grace tail) but the same fixpoint for an idempotent protocol, and
     not a single fault event. *)
  let g = Gen.grid 5 6 in
  let clean = Network.exec ~config:(cfg ~bandwidth:4096 ()) g flood in
  let (r, m, tr, plan) = run_observed ~seed:7 g flood in
  check_bool "same final states" true (clean.Network.states = r.Network.states);
  check_bool "no fault events" true (fault_events tr = []);
  check_bool "no fault counts" true (Metrics.faults m = []);
  check_bool "no fault stats" true
    (Fault.stats plan
    = {
        Fault.dropped = 0;
        duplicated = 0;
        reordered = 0;
        delayed = 0;
        crash_lost = 0;
        crashes = 0;
        restarts = 0;
      });
  check_bool "grace tail adds rounds" true
    (r.Network.rounds >= clean.Network.rounds)

let test_drop_only_loses_messages () =
  let g = Gen.grid 8 8 in
  let spec = { Fault.default with Fault.drop = 0.2 } in
  let (_, m, tr, plan) = run_observed ~spec ~seed:3 g flood in
  let st = Fault.stats plan in
  check_bool "messages were dropped" true (st.Fault.dropped > 0);
  check "no duplicates" 0 st.Fault.duplicated;
  check "no reorders" 0 st.Fault.reordered;
  check "no delays" 0 st.Fault.delayed;
  check "metrics agree with plan" st.Fault.dropped
    (try List.assoc "drop" (Metrics.faults m) with Not_found -> 0);
  let traced_drops =
    List.length (List.filter (fun (_, k, _, _) -> k = "drop") (fault_events tr))
  in
  check "trace agrees with plan" st.Fault.dropped traced_drops

let test_crash_restart_schedule () =
  (* A silent outage in the middle of a flood: events on the timeline,
     stats counted, and — because flood keeps re-announcing only on
     improvement — the restarted node still converges via its neighbors'
     later traffic being... absent. So run reliable: the wrapper
     retransmits into the outage until the restart. *)
  let g = Gen.cycle 12 in
  let spec =
    {
      Fault.default with
      Fault.crashes = [ { Fault.node = 5; at = 2; restart = Some 9 } ];
    }
  in
  let plan = Fault.make ~spec ~seed:11 () in
  let tr = Trace.create () in
  let r =
    Reliable.exec ~observe:(Observe.of_trace tr) ~faults:plan g flood
  in
  let st = Fault.stats plan in
  check "one crash" 1 st.Fault.crashes;
  check "one restart" 1 st.Fault.restarts;
  check_bool "outage discarded deliveries" true (st.Fault.crash_lost > 0);
  let evs = fault_events tr in
  check_bool "crash event on timeline" true
    (List.exists (fun (r, k, s, d) -> k = "crash" && s = 5 && d = -1 && r >= 0) evs);
  check_bool "restart event on timeline" true
    (List.exists (fun (_, k, s, _) -> k = "restart" && s = 5) evs);
  (* Everyone, including the crashed node, ends with the true maximum. *)
  Array.iter (fun s -> check "flood fixpoint" 11 s) r.Network.states

let test_permanent_crash_blocks_reliable () =
  (* Reliable delivery to a dead node is impossible: the sender
     retransmits until the livelock guard trips. *)
  let g = Gen.path 3 in
  let spec =
    { Fault.default with Fault.crashes = [ { Fault.node = 2; at = 1; restart = None } ] }
  in
  let plan = Fault.make ~spec ~seed:1 () in
  (try
     ignore (Reliable.exec ~max_rounds:200 ~faults:plan g flood);
     Alcotest.fail "expected No_quiescence"
   with Network.No_quiescence _ -> ());
  check_bool "deliveries were discarded at the dead node" true
    ((Fault.stats plan).Fault.crash_lost > 0)

let test_spec_validation () =
  let expect_invalid name f =
    try
      ignore (f ());
      Alcotest.fail (name ^ ": expected Invalid_argument")
    with Invalid_argument _ -> ()
  in
  expect_invalid "drop > 1" (fun () ->
      Fault.make ~spec:{ Fault.default with Fault.drop = 1.5 } ~seed:0 ());
  expect_invalid "negative delay prob" (fun () ->
      Fault.make ~spec:{ Fault.default with Fault.delay = -0.1 } ~seed:0 ());
  expect_invalid "max_delay < 1" (fun () ->
      Fault.make ~spec:{ Fault.default with Fault.max_delay = 0 } ~seed:0 ());
  expect_invalid "grace < 1" (fun () ->
      Fault.make ~spec:{ Fault.default with Fault.grace = 0 } ~seed:0 ());
  expect_invalid "restart before crash" (fun () ->
      Fault.make
        ~spec:
          {
            Fault.default with
            Fault.crashes = [ { Fault.node = 0; at = 5; restart = Some 5 } ];
          }
        ~seed:0 ());
  expect_invalid "reliable timeout" (fun () -> Reliable.wrap ~timeout:1 flood)

(* ------------------------------------------------------------------ *)
(* Reliable recovery                                                   *)
(* ------------------------------------------------------------------ *)

let test_reliable_exactly_once_in_order () =
  (* Under drops + duplicates + reordering + delays + adversarial
     permutation, every receiver must see every sender's stream exactly
     once, in order. *)
  let g = Gen.grid 4 4 in
  let k = 6 in
  let spec = { lossy_spec with Fault.adversarial = true } in
  let plan = Fault.make ~spec ~seed:17 () in
  let stats = Reliable.counters () in
  let r = Reliable.exec ~bandwidth:4096 ~faults:plan ~stats g (streamer k) in
  check_bool "the recovery layer actually worked" true
    (stats.Reliable.retransmits > 0 || stats.Reliable.out_of_order > 0);
  Array.iteri
    (fun v seen ->
      List.iter
        (fun (from, (sender, _)) -> check "sender field consistent" sender from)
        seen;
      Gr.fold_neighbors g v ~init:() ~f:(fun () w ->
          let got =
            List.filter_map
              (fun (from, (_, x)) -> if from = w then Some x else None)
              seen
          in
          check_bool
            (Printf.sprintf "node %d got %d's full stream in order" v w)
            true
            (got = List.init k (fun i -> i + 1))))
    r.Network.states

let test_leader_bfs_over_lossy_links () =
  List.iter
    (fun (name, g) ->
      let plan = Fault.make ~spec:lossy_spec ~seed:23 () in
      let faulty = Proto.leader_bfs ~config:(cfg ~faults:plan ()) g in
      let clean = Proto.leader_bfs g in
      check_bool
        (name ^ ": leader election + BFS identical over lossy links")
        true
        (Array.for_all2
           (fun a b ->
             a.Proto.leader = b.Proto.leader && a.Proto.dist = b.Proto.dist)
           faulty clean))
    [
      ("grid 6x5", Gen.grid 6 5);
      ("cycle 20", Gen.cycle 20);
      ("random tree", Gen.random_tree ~seed:4 30);
      ("maximal planar", Gen.random_maximal_planar ~seed:5 30);
    ]

let embed_families =
  [
    ("grid 6x6", Gen.grid 6 6);
    ("cycle 24", Gen.cycle 24);
    ("wheel 12", Gen.wheel 12);
    ("binary tree 15", Gen.binary_tree 15);
    ("k4 subdivision", Gen.k4_subdivision 6);
    ("outerplanar", Gen.random_outerplanar ~seed:8 ~n:20 ~chord_prob:0.4);
    ("maximal planar", Gen.random_maximal_planar ~seed:8 35);
    ("random planar", Gen.random_planar ~seed:8 ~n:24 ~m:40);
  ]

let test_embedder_over_lossy_links () =
  (* The acceptance bar: drop rate 0.1 (plus the other message faults),
     embedder wrapped in reliable, Euler-verified embedding on all test
     families. *)
  List.iter
    (fun (name, g) ->
      let plan = Fault.make ~spec:lossy_spec ~seed:31 () in
      let o = Embedder.run ~config:(cfg ~faults:plan ()) g in
      match o.Embedder.rotation with
      | None -> Alcotest.fail (name ^ ": embedder lost a planar graph")
      | Some rot ->
          check_bool (name ^ ": Euler check passes") true
            (Rotation.is_planar_embedding rot);
          check_bool (name ^ ": faults actually fired") true
            ((Fault.stats plan).Fault.dropped > 0))
    embed_families

let test_embedder_determinism_under_faults () =
  let g = Gen.grid 6 6 in
  let run () =
    let plan = Fault.make ~spec:lossy_spec ~seed:13 () in
    let o = Embedder.run ~config:(cfg ~faults:plan ()) g in
    (o.Embedder.report.Embedder.rounds, Fault.stats plan)
  in
  let (r1, s1) = run () in
  let (r2, s2) = run () in
  check "same seed, same embedder rounds" r1 r2;
  check_bool "same seed, same fault stats" true (s1 = s2)

(* ------------------------------------------------------------------ *)
(* Sharded fault engine (faults x domains > 1)                         *)
(* ------------------------------------------------------------------ *)

let test_sharded_same_seed_same_run () =
  (* A fault plan composes with [domains > 1] and the run replays:
     states, rounds, fault stats, metrics and the trace timeline. *)
  let g = Gen.grid 6 7 in
  let (r1, m1, t1, p1) =
    run_observed ~spec:lossy_spec ~domains:2 ~seed:42 g flood
  in
  let (r2, m2, t2, p2) =
    run_observed ~spec:lossy_spec ~domains:2 ~seed:42 g flood
  in
  check_bool "states" true (r1.Network.states = r2.Network.states);
  check "rounds" r1.Network.rounds r2.Network.rounds;
  check_bool "report" true (r1.Network.report = r2.Network.report);
  check_bool "fault stats" true (Fault.stats p1 = Fault.stats p2);
  check_bool "fault counts in metrics" true
    (Metrics.faults m1 = Metrics.faults m2);
  check_bool "trace events (incl. fault timeline)" true
    (Trace.events t1 = Trace.events t2);
  check_bool "round log" true (Metrics.round_log m1 = Metrics.round_log m2)

let test_domain_counts_replay () =
  (* Under faults the domain count changes only wall time: every fault
     decision is drawn serially from the plan's one stream, in the order
     a one-domain run draws it. Lossy, adversarial and crash plans, and
     the embedder, replay bit for bit at 2, 3 and 4 domains. *)
  let observed ~spec ~seed g proto domains =
    let (r, m, t, p) = run_observed ~spec ~domains ~seed g proto in
    ( r.Network.states,
      r.Network.rounds,
      r.Network.report,
      Fault.stats p,
      Metrics.faults m,
      Metrics.round_log m,
      Trace.events t )
  in
  let crash_spec =
    {
      lossy_spec with
      Fault.crashes =
        [
          { Fault.node = 5; at = 2; restart = Some 9 };
          { Fault.node = 17; at = 0; restart = Some 4 };
        ];
    }
  in
  let replays name ~spec ~seed g proto =
    let run = observed ~spec ~seed g proto in
    let ((_, _, _, stats, _, _, _) as one) = run 1 in
    check_bool (name ^ ": faults fired") true
      (stats.Fault.dropped > 0 && stats.Fault.delayed > 0);
    List.iter
      (fun d ->
        check_bool
          (Printf.sprintf "%s: domains=%d replays domains=1" name d)
          true
          (run d = one))
      [ 2; 3; 4 ]
  in
  replays "lossy" ~spec:lossy_spec ~seed:42 (Gen.grid 6 7) flood;
  replays "adversarial"
    ~spec:{ lossy_spec with Fault.adversarial = true }
    ~seed:43 (Gen.grid 6 7) (streamer 3);
  replays "crash" ~spec:crash_spec ~seed:11 (Gen.cycle 24)
    (Reliable.wrap flood);
  let embed domains =
    let g = Gen.grid 6 6 in
    let plan = Fault.make ~spec:lossy_spec ~seed:31 () in
    let o = Embedder.run ~config:(cfg ~faults:plan ~domains ()) g in
    let rep = o.Embedder.report in
    ( Option.map
        (fun rot -> Array.init (Gr.n g) (Rotation.rotation rot))
        o.Embedder.rotation,
      (rep.Embedder.rounds, rep.Embedder.phases, rep.Embedder.total_bits),
      Fault.stats plan,
      Metrics.faults rep.Embedder.metrics,
      Metrics.round_log rep.Embedder.metrics )
  in
  let one = embed 1 in
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "embedder grid 6x6: domains=%d replays domains=1" d)
        true (embed d = one))
    [ 2; 3; 4 ]

let test_tiny_graphs () =
  (* The clocked loop seeds its state array from node 0's real init, so
     it must not call any init when there is no node 0. Each node's
     silent init reads its adjacency, as real protocols do. *)
  let silent =
    Network.of_lists
      {
        Network.init = (fun g v -> (Gr.degree g v, []));
        round = (fun _g _v st _inbox -> (st, []));
        msg_bits = (fun _ -> 1);
      }
  in
  List.iter
    (fun n ->
      let g = if n = 0 then Gr.of_edges ~n:0 [] else Gen.path n in
      List.iter
        (fun domains ->
          let name = Printf.sprintf "n=%d, domains=%d" n domains in
          let plan = Fault.make ~spec:lossy_spec ~seed:5 () in
          let r =
            Network.exec ~config:(cfg ~domains ~faults:plan ()) g silent
          in
          check_bool (name ^ ": states") true
            (r.Network.states = Array.init n (Gr.degree g));
          check (name ^ ": rounds") 0 r.Network.rounds)
        [ 1; 2 ])
    [ 0; 1; 2 ]

let test_sharded_crash_schedule () =
  (* Deterministic scheduled faults must land on the same rounds no
     matter how the nodes are sharded: the crash/restart pair fires
     exactly once each, deliveries into the outage are discarded, and
     reliable flood still converges to the true maximum. *)
  let g = Gen.cycle 12 in
  let spec =
    {
      Fault.default with
      Fault.crashes = [ { Fault.node = 5; at = 2; restart = Some 9 } ];
    }
  in
  let run () =
    let plan = Fault.make ~spec ~seed:11 () in
    let r = Reliable.exec ~domains:2 ~faults:plan g flood in
    (r, Fault.stats plan)
  in
  let (r1, s1) = run () in
  let (r2, s2) = run () in
  check "one crash" 1 s1.Fault.crashes;
  check "one restart" 1 s1.Fault.restarts;
  check_bool "outage discarded deliveries" true (s1.Fault.crash_lost > 0);
  Array.iter (fun s -> check "flood fixpoint" 11 s) r1.Network.states;
  check_bool "sharded crash run replays" true
    (r1.Network.states = r2.Network.states
    && r1.Network.rounds = r2.Network.rounds
    && s1 = s2)

let test_sharded_embedder_over_lossy_links () =
  (* The end-to-end bar at domains = 2: the reliable-wrapped embedder
     over lossy links still produces Euler-verified embeddings, and the
     whole run replays for a fixed seed. *)
  List.iter
    (fun (name, g) ->
      let run () =
        let plan = Fault.make ~spec:lossy_spec ~seed:31 () in
        let o = Embedder.run ~config:(cfg ~faults:plan ~domains:2 ()) g in
        (o, Fault.stats plan)
      in
      let (o1, s1) = run () in
      let (_, s2) = run () in
      (match o1.Embedder.rotation with
      | None -> Alcotest.fail (name ^ ": embedder lost a planar graph")
      | Some rot ->
          check_bool (name ^ ": Euler check passes") true
            (Rotation.is_planar_embedding rot));
      check_bool (name ^ ": faults actually fired") true (s1.Fault.dropped > 0);
      check_bool (name ^ ": sharded run replays") true (s1 = s2))
    [
      ("grid 6x6", Gen.grid 6 6);
      ("wheel 12", Gen.wheel 12);
      ("maximal planar", Gen.random_maximal_planar ~seed:8 35);
    ]

let test_chaos_sweep_jobs_identical () =
  (* The `distplanar chaos --jobs/--domains` contract, pinned at the
     library level: a seed sweep over the sharded faulty engine prints
     byte-identical rows whether the sweep runs serially or fanned out
     over Pool.map — each run builds its own plan, so the only shared
     state is the read-only graph. *)
  let g = Gen.grid 6 6 in
  let one i =
    let seed = 100 + i in
    let plan = Fault.make ~spec:lossy_spec ~seed () in
    let o = Embedder.run ~config:(cfg ~faults:plan ~domains:2 ()) g in
    let s = Fault.stats plan in
    let verdict =
      match o.Embedder.rotation with
      | Some rot when Rotation.is_planar_embedding rot -> "planar, Euler ok"
      | Some _ -> "EULER CHECK FAILED"
      | None -> "NOT PLANAR"
    in
    Printf.sprintf
      "seed=%d rounds=%d drops=%d dups=%d reorders=%d delays=%d verdict=%s"
      seed o.Embedder.report.Embedder.rounds s.Fault.dropped s.Fault.duplicated
      s.Fault.reordered s.Fault.delayed verdict
  in
  let render jobs = Array.to_list (Pool.map ~jobs 6 one) in
  let serial = render 1 in
  let pooled = render 4 in
  List.iter
    (fun row ->
      check_bool (row ^ ": embeds correctly") true
        (String.length row > 0
        && String.sub row (String.length row - 8) 8 = "Euler ok"))
    serial;
  check_bool "pooled sweep output = serial sweep output" true (serial = pooled)

let () =
  Alcotest.run "fault"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same run" `Quick test_same_seed_same_run;
          Alcotest.test_case "reset replays" `Quick test_reset_replays;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
        ] );
      ( "fault kinds",
        [
          Alcotest.test_case "zero-fault plan is benign" `Quick
            test_zero_fault_plan_is_benign;
          Alcotest.test_case "drop-only" `Quick test_drop_only_loses_messages;
          Alcotest.test_case "crash + restart" `Quick test_crash_restart_schedule;
          Alcotest.test_case "permanent crash blocks reliable" `Quick
            test_permanent_crash_blocks_reliable;
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
        ] );
      ( "reliable recovery",
        [
          Alcotest.test_case "exactly-once, in-order" `Quick
            test_reliable_exactly_once_in_order;
          Alcotest.test_case "leader+BFS over lossy links" `Quick
            test_leader_bfs_over_lossy_links;
          Alcotest.test_case "embedder over lossy links" `Quick
            test_embedder_over_lossy_links;
          Alcotest.test_case "embedder determinism under faults" `Quick
            test_embedder_determinism_under_faults;
        ] );
      ( "sharded faults",
        [
          Alcotest.test_case "same seed + domains, same run" `Quick
            test_sharded_same_seed_same_run;
          Alcotest.test_case "domain counts replay the same run" `Quick
            test_domain_counts_replay;
          Alcotest.test_case "empty and tiny graphs" `Quick test_tiny_graphs;
          Alcotest.test_case "crash schedule honored across shards" `Quick
            test_sharded_crash_schedule;
          Alcotest.test_case "embedder over lossy links, domains=2" `Quick
            test_sharded_embedder_over_lossy_links;
          Alcotest.test_case "chaos sweep: jobs don't change output" `Quick
            test_chaos_sweep_jobs_identical;
        ] );
    ]
