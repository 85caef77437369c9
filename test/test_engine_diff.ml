(* Differential test of the flat-array engine against the pre-redesign
   one.

   List_engine.run (a test-only oracle) keeps the historical
   per-round-hashtable implementation precisely so this suite can execute both engines on the same protocol
   and graph and demand bit-identical final states, round counts,
   metrics (totals, bursts, per-directed-edge loads, the round log) and
   trace journals (including individual message events) — across every
   generator family, fixed and seeded, and across protocols that probe
   the delivery-order guarantee and multi-message edges. A final group
   checks the engines agree on errors too, and that the new round loop's
   allocation is independent of n. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Probe protocols                                                     *)
(* ------------------------------------------------------------------ *)

let to_all g v msg =
  Gr.fold_neighbors g v ~init:[] ~f:(fun acc w -> (w, msg) :: acc)

(* One spontaneous burst, then silence. *)
let hello =
  List_shape.of_lists {
    List_shape.init = (fun g v -> (v, to_all g v v));
    round = (fun _g _v st _inbox -> (st, []));
    msg_bits = (fun _ -> 8);
  }

(* Max-id flood: multi-round, quiesces in O(D). *)
let flood =
  List_shape.of_lists {
    List_shape.init = (fun g v -> (v, to_all g v v));
    round =
      (fun g v best inbox ->
        let best' = List.fold_left (fun acc (_, x) -> max acc x) best inbox in
        if best' = best then (best, []) else (best', to_all g v best'));
    msg_bits = (fun _ -> 12);
  }

(* Order-observing: the state is a non-commutative fold of the inbox in
   delivery order, and keeps propagating for a fixed number of hops — any
   divergence in inbox ordering between the engines shows up in the final
   hashes. *)
let order_hash ttl =
  List_shape.of_lists {
    List_shape.init = (fun g v -> ((v, ttl), to_all g v v));
    round =
      (fun g v (h, t) inbox ->
        let h' =
          List.fold_left
            (fun acc (src, x) -> (acc * 1_000_003) + (src lxor (x * 31)))
            h inbox
        in
        if t = 0 then ((h', 0), [])
        else ((h', t - 1), to_all g v (h' land 0xffff)));
    msg_bits = (fun _ -> 16);
  }

(* Several messages per edge per round: exercises per-sender outbox order
   and the cumulative per-edge load accounting. *)
let double_talk rounds_left =
  List_shape.of_lists {
    List_shape.init =
      (fun g v ->
        ( rounds_left,
          Gr.fold_neighbors g v ~init:[] ~f:(fun acc w ->
              (w, 2 * v) :: (w, (2 * v) + 1) :: acc) ));
    round =
      (fun g v t inbox ->
        if t = 0 || inbox = [] then (t, [])
        else
          ( t - 1,
            Gr.fold_neighbors g v ~init:[] ~f:(fun acc w ->
                (w, t) :: (w, t + v) :: acc) ));
    msg_bits = (fun _ -> 8);
  }

(* The certification verifier (ISSUE 6) as a probe protocol: an init
   burst of record-carrying messages plus a one-round fold with a
   min-merge — pins the one-round verifier bit-identical across engines
   and shard counts. Non-planar families verify the certificates of an
   arbitrary rotation (they reject — the protocol still runs the same
   wire schedule, which is all this suite cares about). *)
let certify_proto g =
  let r =
    match Planarity.embed g with
    | Planarity.Planar r -> r
    | Planarity.Nonplanar -> Rotation.of_sorted_adjacency g
  in
  Certify.protocol r (Certify.prove r)

let run_legacy proto g =
  let m = Metrics.create g in
  let tr = Trace.create ~keep_messages:true () in
  let states =
    List_engine.run ~bandwidth:4096 ~metrics:m ~trace:tr g proto
  in
  (states, m, tr)

let run_exec proto g =
  let m = Metrics.create g in
  let tr = Trace.create ~keep_messages:true () in
  (* [faults] is left at its [None] default on purpose: every diff in
     this file also pins the dispatcher's no-plan path to the clean
     engine, so the fault layer cannot perturb a clean run even by one
     event. *)
  let r =
    Network.exec
      ~config:
        (Network.Config.make ~bandwidth:4096
           ~observe:(Observe.make ~metrics:m ~trace:tr ())
           ())
      g proto
  in
  (r, m, tr)

let run_exec_sharded ~domains proto g =
  let m = Metrics.create g in
  let tr = Trace.create ~keep_messages:true () in
  let r =
    Network.exec
      ~config:
        (Network.Config.make ~domains ~bandwidth:4096
           ~observe:(Observe.make ~metrics:m ~trace:tr ())
           ())
      g proto
  in
  (r, m, tr)

(* Domain counts for the sequential-vs-sharded sweep: one chunk (the
   inline path), even and odd splits, and more chunks than some rounds
   have active nodes. CI's multicore job adds its own count via
   DOMAINS. *)
let sweep_points =
  let base = [ 1; 2; 3; 4; 7 ] in
  match Sys.getenv_opt "DOMAINS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some k when k > 1 && not (List.mem k base) -> base @ [ k ]
      | _ -> base)
  | None -> base

let dir_table m =
  let rows = ref [] in
  Metrics.iter_dir m (fun ~src ~dst ~bits ~messages ~burst ->
      rows := (src, dst, bits, messages, burst) :: !rows);
  List.rev !rows

let metrics_equal name a b =
  check (name ^ ": rounds") (Metrics.rounds a) (Metrics.rounds b);
  check (name ^ ": messages") (Metrics.messages a) (Metrics.messages b);
  check (name ^ ": total bits") (Metrics.total_bits a) (Metrics.total_bits b);
  check (name ^ ": max edge bits") (Metrics.max_edge_bits a)
    (Metrics.max_edge_bits b);
  check (name ^ ": max message bits") (Metrics.max_message_bits a)
    (Metrics.max_message_bits b);
  check (name ^ ": max burst") (Metrics.max_round_edge_bits a)
    (Metrics.max_round_edge_bits b);
  check (name ^ ": active peak") (Metrics.active_peak a) (Metrics.active_peak b);
  check_bool (name ^ ": round log") true
    (Metrics.round_log a = Metrics.round_log b);
  check_bool (name ^ ": per-directed-edge table") true
    (dir_table a = dir_table b)

let diff_one name proto g =
  let (s_old, m_old, t_old) = run_legacy proto g in
  let (r_new, m_new, t_new) = run_exec proto g in
  check_bool (name ^ ": states") true (s_old = r_new.Network.states);
  check (name ^ ": result rounds") (Metrics.rounds m_old) r_new.Network.rounds;
  metrics_equal name m_old m_new;
  check_bool (name ^ ": trace events") true
    (Trace.events t_old = Trace.events t_new);
  (* The engine's own report must agree with the metrics sink. *)
  check (name ^ ": report messages") (Metrics.messages m_new)
    r_new.Network.report.Network.messages;
  check (name ^ ": report bits") (Metrics.total_bits m_new)
    r_new.Network.report.Network.bits;
  check (name ^ ": report max message") (Metrics.max_message_bits m_new)
    r_new.Network.report.Network.max_message_bits;
  check (name ^ ": report burst") (Metrics.max_round_edge_bits m_new)
    r_new.Network.report.Network.max_round_edge_bits;
  check (name ^ ": report active peak") (Metrics.active_peak m_new)
    r_new.Network.report.Network.active_peak

(* The sharded loop against the sequential one: same exec entry point,
   a [~domains] config versus the default — states, rounds, report, the
   full metrics sink and the message-level trace journal must all be
   bit-identical at every domain count. Each count is exercised three
   ways, because the merge takes a different path for each: fully
   observed (metrics + message-keeping trace: the merge walks every
   queue), metrics-only (the same walk, no trace emission), and
   unobserved (the benchmark hot path: counter folds only). *)
let diff_sharded name proto g =
  let (r_seq, m_seq, t_seq) = run_exec proto g in
  let bare config =
    Network.exec ~config:(Network.Config.with_bandwidth 4096 config) g proto
  in
  let r_bare = bare Network.Config.default in
  let metrics_only config =
    let m = Metrics.create g in
    let config =
      config
      |> Network.Config.with_bandwidth 4096
      |> Network.Config.with_observe (Observe.make ~metrics:m ())
    in
    (Network.exec ~config g proto, m)
  in
  let (r_mseq, m_mseq) = metrics_only Network.Config.default in
  List.iter
    (fun k ->
      let name = Printf.sprintf "%s[domains=%d]" name k in
      let (r_k, m_k, t_k) = run_exec_sharded ~domains:k proto g in
      check_bool (name ^ ": states") true (r_seq.Network.states = r_k.Network.states);
      check (name ^ ": rounds") r_seq.Network.rounds r_k.Network.rounds;
      check_bool (name ^ ": report") true
        (r_seq.Network.report = r_k.Network.report);
      metrics_equal name m_seq m_k;
      check_bool (name ^ ": trace events") true
        (Trace.events t_seq = Trace.events t_k);
      let cfg = Network.Config.make ~domains:k () in
      let r_b = bare cfg in
      check_bool (name ^ ": unobserved states") true
        (r_bare.Network.states = r_b.Network.states);
      check (name ^ ": unobserved rounds") r_bare.Network.rounds
        r_b.Network.rounds;
      check_bool (name ^ ": unobserved report") true
        (r_bare.Network.report = r_b.Network.report);
      let (r_m, m_m) = metrics_only cfg in
      check_bool (name ^ ": metrics-only states") true
        (r_mseq.Network.states = r_m.Network.states);
      check_bool (name ^ ": metrics-only report") true
        (r_mseq.Network.report = r_m.Network.report);
      metrics_equal (name ^ ": metrics-only") m_mseq m_m)
    sweep_points

let diff_all_protocols name g =
  let certify = certify_proto g in
  diff_one (name ^ "/hello") hello g;
  diff_one (name ^ "/flood") flood g;
  diff_one (name ^ "/order-hash") (order_hash 5) g;
  diff_one (name ^ "/double-talk") (double_talk 4) g;
  diff_one (name ^ "/certify") certify g;
  diff_sharded (name ^ "/hello") hello g;
  diff_sharded (name ^ "/flood") flood g;
  diff_sharded (name ^ "/order-hash") (order_hash 5) g;
  diff_sharded (name ^ "/double-talk") (double_talk 4) g;
  diff_sharded (name ^ "/certify") certify g

let fixed_families =
  [
    ("path 13", Gen.path 13);
    ("path 2", Gen.path 2);
    ("cycle 17", Gen.cycle 17);
    ("star 9", Gen.star 9);
    ("grid 5x7", Gen.grid 5 7);
    ("triangular grid 3x4", Gen.triangular_grid 3 4);
    ("toroidal grid 4x4", Gen.toroidal_grid 4 4);
    ("binary tree 15", Gen.binary_tree 15);
    ("complete 6", Gen.complete 6);
    ("K3,3", Gen.k33 ());
    ("petersen", Gen.petersen ());
    ("wheel 9", Gen.wheel 9);
    ("ladder 6", Gen.ladder 6);
    ("fan 11", Gen.fan 11);
  ]

let test_fixed_families () =
  List.iter (fun (name, g) -> diff_all_protocols name g) fixed_families

let seeded_props =
  let prop name build =
    QCheck.Test.make ~count:10 ~name
      QCheck.(int_range 0 10_000)
      (fun seed ->
        diff_all_protocols (Printf.sprintf "%s seed=%d" name seed) (build seed);
        true)
  in
  [
    prop "diff random connected" (fun seed ->
        Gen.random_connected_graph ~seed ~n:30 ~m:60);
    prop "diff random tree" (fun seed -> Gen.random_tree ~seed 40);
    prop "diff random maximal planar" (fun seed ->
        Gen.random_maximal_planar ~seed 40);
    prop "diff random outerplanar" (fun seed ->
        Gen.random_outerplanar ~seed ~n:25 ~chord_prob:0.4);
    prop "diff random planar" (fun seed ->
        Gen.random_planar ~seed ~n:24 ~m:40);
  ]

(* ------------------------------------------------------------------ *)
(* Error parity                                                        *)
(* ------------------------------------------------------------------ *)

let test_bandwidth_parity () =
  (* Two 10-bit messages on one edge against a 16-bit budget: both
     engines must blame the same edge at the same cumulative count. *)
  let g = Gen.path 2 in
  let proto =
    List_shape.of_lists {
      List_shape.init = (fun _g v -> ((), [ (1 - v, 0); (1 - v, 1) ]));
      round = (fun _g _v st _inbox -> (st, []));
      msg_bits = (fun _ -> 10);
    }
  in
  let payload run =
    try
      run ();
      Alcotest.fail "expected Bandwidth_exceeded"
    with Network.Bandwidth_exceeded { round; u; v; bits } -> (round, u, v, bits)
  in
  let p_old =
    payload (fun () -> ignore (List_engine.run ~bandwidth:16 g proto))
  in
  let p_new =
    payload (fun () ->
        ignore
          (Network.exec ~config:(Network.Config.make ~bandwidth:16 ()) g proto))
  in
  check_bool "identical Bandwidth_exceeded payloads" true (p_old = p_new);
  List.iter
    (fun k ->
      let p_shard =
        payload (fun () ->
            ignore
              (Network.exec
                 ~config:(Network.Config.make ~domains:k ~bandwidth:16 ())
                 g proto))
      in
      check_bool
        (Printf.sprintf "sharded Bandwidth_exceeded payload [domains=%d]" k)
        true (p_old = p_shard))
    [ 2; 4 ]

(* A violation deep into a run: a token walks a long path, and the node
   that receives it at hop [boom] over-sends against the budget. The
   erring round comes after many committed ones; the raised payload and
   the observation prefix must still match the sequential run exactly —
   the merge may not observe past the error. *)
let test_deep_oversend_parity () =
  let n = 24 and boom = 10 in
  let g = Gen.path n in
  let proto =
    List_shape.of_lists {
      List_shape.init = (fun _g v -> ((), if v = 0 then [ (1, 1) ] else []));
      round =
        (fun _g v st inbox ->
          match inbox with
          | [ (_, t) ] ->
              if t = boom then (st, [ (v + 1, t); (v + 1, t) ])
              else if v + 1 < n then (st, [ (v + 1, t + 1) ])
              else (st, [])
          | _ -> (st, []));
      msg_bits = (fun _ -> 10);
    }
  in
  let observed config =
    let m = Metrics.create g in
    let tr = Trace.create ~keep_messages:true () in
    let config = Network.Config.with_observe (Observe.make ~metrics:m ~trace:tr ()) config in
    let p =
      try
        ignore (Network.exec ~config g proto);
        Alcotest.fail "expected Bandwidth_exceeded"
      with Network.Bandwidth_exceeded { round; u; v; bits } -> (round, u, v, bits)
    in
    (p, Metrics.messages m, Metrics.total_bits m, Trace.events tr)
  in
  let seq = observed (Network.Config.make ~bandwidth:16 ()) in
  let (p_seq, _, _, _) = seq in
  let (rnd, _, _, _) = p_seq in
  check "violation is mid-run" boom rnd;
  List.iter
    (fun k ->
      check_bool
        (Printf.sprintf "deep payload and prefix [domains=%d]" k)
        true
        (observed (Network.Config.make ~domains:k ~bandwidth:16 ()) = seq))
    [ 2; 3; 4; 7 ]

let test_non_neighbor_parity () =
  let g = Gr.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let proto =
    List_shape.of_lists {
      List_shape.init = (fun _g v -> ((), if v = 0 then [ (2, 0) ] else []));
      round = (fun _g _v st _inbox -> (st, []));
      msg_bits = (fun _ -> 1);
    }
  in
  let msg run =
    try
      run ();
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument m -> m
  in
  let m_old = msg (fun () -> ignore (List_engine.run g proto)) in
  let m_new = msg (fun () -> ignore (Network.exec g proto)) in
  Alcotest.(check string) "identical Invalid_argument messages" m_old m_new;
  List.iter
    (fun k ->
      let m_shard =
        msg (fun () ->
            ignore
              (Network.exec ~config:(Network.Config.make ~domains:k ()) g proto))
      in
      Alcotest.(check string)
        (Printf.sprintf "sharded Invalid_argument message [domains=%d]" k)
        m_old m_shard)
    [ 2; 3 ]

(* A sharded run that dies must leave the same observation prefix the
   sequential engine leaves: everything the sinks saw before the raise,
   nothing more — whether the violation sits in the last chunk, whose
   sibling chunks had already queued their own sends, or in the first,
   whose siblings' sends a sequential sweep never makes. *)
let test_sharded_error_observation () =
  let g = Gen.path 4 in
  (* Node [bad] over-sends to neighbor [dst] at init; every other node
     sends one legal message to each neighbor. *)
  let proto bad dst =
    List_shape.of_lists {
      List_shape.init =
        (fun g v ->
          if v = bad then ((), [ (dst, 0); (dst, 1) ])
          else ((), to_all g v v));
      round = (fun _g _v st _inbox -> (st, []));
      msg_bits = (fun _ -> 10);
    }
  in
  let observed proto domains =
    let m = Metrics.create g in
    let tr = Trace.create ~keep_messages:true () in
    (try
       ignore
         (Network.exec
            ~config:
              (Network.Config.make ~domains ~bandwidth:16
                 ~observe:(Observe.make ~metrics:m ~trace:tr ())
                 ())
            g proto);
       Alcotest.fail "expected Bandwidth_exceeded"
     with Network.Bandwidth_exceeded _ -> ());
    (Metrics.messages m, Metrics.total_bits m, Trace.events tr)
  in
  List.iter
    (fun (bad, dst) ->
      let proto = proto bad dst in
      let seq = observed proto 1 in
      List.iter
        (fun k ->
          check_bool
            (Printf.sprintf
               "error-path observation prefix [node %d, domains=%d]" bad k)
            true
            (observed proto k = seq))
        [ 2; 3; 4 ])
    [ (3, 2); (1, 2); (0, 1) ];
  (* Two chunks fail in one round: node 1 over-sends, node 3 addresses a
     non-neighbor. A sequential sweep stops at node 1, so its
     [Bandwidth_exceeded] must win at every domain count. *)
  let both =
    List_shape.of_lists {
      List_shape.init =
        (fun _g v ->
          if v = 1 then ((), [ (2, 0); (2, 1) ])
          else if v = 3 then ((), [ (0, 0) ])
          else ((), []));
      round = (fun _g _v st _inbox -> (st, []));
      msg_bits = (fun _ -> 10);
    }
  in
  let seq = observed both 1 in
  List.iter
    (fun k ->
      check_bool
        (Printf.sprintf "lowest chunk's error wins [domains=%d]" k)
        true
        (observed both k = seq))
    [ 2; 3; 4 ]

let test_domains_validation () =
  let g = Gen.path 4 in
  let expect_invalid what config =
    try
      ignore (Network.exec ~config g hello);
      Alcotest.fail ("expected Invalid_argument for " ^ what)
    with Invalid_argument _ -> ()
  in
  expect_invalid "domains=0" (Network.Config.make ~domains:0 ());
  expect_invalid "domains=-3" (Network.Config.default |> Network.Config.with_domains (-3));
  (* A fault plan composes with a sharded run: the sharded clocked
     engine accepts it and completes. *)
  let fresh () = Fault.make ~spec:{ Fault.default with drop = 0.1 } ~seed:7 () in
  ignore
    (Network.exec
       ~config:(Network.Config.make ~domains:2 ~faults:(fresh ()) ())
       g hello);
  ignore
    (Network.exec
       ~config:(Network.Config.make ~domains:1 ~faults:(fresh ()) ())
       g hello)

let test_livelock_contracts () =
  (* Same livelock, two documented signals: Failure from the oracle,
     No_quiescence from the new engine. *)
  let g = Gen.path 2 in
  let proto =
    List_shape.of_lists {
      List_shape.init = (fun _g v -> ((), [ (1 - v, 0) ]));
      round = (fun _g v st _inbox -> (st, [ (1 - v, 0) ]));
      msg_bits = (fun _ -> 1);
    }
  in
  (try
     ignore (List_engine.run ~max_rounds:7 g proto);
     Alcotest.fail "expected Failure"
   with Failure _ -> ());
  (try
     ignore
       (Network.exec ~config:(Network.Config.make ~max_rounds:7 ()) g proto);
     Alcotest.fail "expected No_quiescence"
   with Network.No_quiescence { round; active; messages } ->
     check "round" 7 round;
     check "active" 2 active;
     check "messages" 2 messages);
  (* The sharded loop must surface the identical payload: the livelock
     check fires at the same round with the same census. *)
  List.iter
    (fun k ->
      try
        ignore
          (Network.exec
             ~config:(Network.Config.make ~domains:k ~max_rounds:7 ())
             g proto);
        Alcotest.fail "expected No_quiescence"
      with Network.No_quiescence { round; active; messages } ->
        check (Printf.sprintf "round [domains=%d]" k) 7 round;
        check (Printf.sprintf "active [domains=%d]" k) 2 active;
        check (Printf.sprintf "messages [domains=%d]" k) 2 messages)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Allocation regression                                               *)
(* ------------------------------------------------------------------ *)

(* OCaml 5 folds minor-heap allocation into [quick_stat] only at a minor
   collection, so one is forced first; otherwise a reading lags by up to
   a whole minor heap, depending on where the last collection fell. *)
let words_now () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* A single token circling a large ring: exactly one active node and one
   message per round. If the round loop allocated O(n) per round (the old
   engine's fresh inbox array and whole-network scans), the words-per-
   round figure would be >= n; the flat-array loop must stay at a small
   constant (a handful of cons cells and tuples per delivered message). *)
let token_ring_words ?(config = Network.Config.default) n ttl =
  let g = Gen.cycle n in
  let next v src = if (v + 1) mod n = src then (v + n - 1) mod n else (v + 1) mod n in
  let proto =
    List_shape.of_lists {
      List_shape.init = (fun _g v -> ((), if v = 0 then [ (1, ttl) ] else []));
      round =
        (fun _g v st inbox ->
          match inbox with
          | [ (src, t) ] when t > 0 -> (st, [ (next v src, t - 1) ])
          | _ -> (st, []));
      msg_bits = (fun _ -> 16);
    }
  in
  let before = words_now () in
  let r =
    Network.exec
      ~config:(Network.Config.with_max_rounds (ttl + 8) config)
      g proto
  in
  let after = words_now () in
  check "token ran out" (ttl + 1) r.Network.rounds;
  after -. before

let per_round_words config n =
  ignore (token_ring_words ~config n 16);
  (* warm-up *)
  let short = token_ring_words ~config n 500 in
  let long = token_ring_words ~config n 1_500 in
  (long -. short) /. 1_000.

let test_quiescent_round_allocation () =
  let n = 5_000 in
  let per_round = per_round_words Network.Config.default n in
  (* One active node, one message: a round's marginal allocation must be
     a small constant, nowhere near n words. *)
  check_bool
    (Printf.sprintf "per-round allocation is O(1): %.1f words/round" per_round)
    true
    (per_round < 100.)

(* The sharded loop without observation is the benchmark hot path: its
   merge folds counters and buffers nothing, so a round's marginal
   allocation is the same small constant as the one-chunk loop's — not
   O(messages), and certainly not O(n). *)
let test_parallel_round_allocation () =
  let n = 5_000 in
  List.iter
    (fun domains ->
      let config = Network.Config.make ~domains () in
      let per_round = per_round_words config n in
      check_bool
        (Printf.sprintf
           "unobserved parallel rounds allocate O(1) [domains=%d]: %.1f \
            words/round"
           domains per_round)
        true
        (per_round < 100.))
    [ 2; 4 ]

(* The native max-id flood: reads its inbox through the view and
   announces through [send], so a run allocates only its states and the
   engine's arrays. *)
let native_flood =
  let to_all g v x send =
    let offs = Gr.dart_offsets g and nbr = Gr.dart_sources g in
    for d = offs.(v + 1) - 1 downto offs.(v) do
      send nbr.(d) x
    done
  in
  {
    Network.init =
      (fun g v send ->
        to_all g v v send;
        v);
    round =
      (fun g v best inbox send ->
        let best' = Network.Inbox.fold (fun acc _ x -> max acc x) best inbox in
        if best' <> best then to_all g v best' send;
        best');
    msg_bits = (fun _ -> 12);
  }

(* The sharded loop queues every send in flat per-chunk arrays, so a
   whole two-domain flood — states, queues, pool — stays under one word
   per message, like the one-chunk loop. *)
let test_sharded_words_per_message () =
  let g = Gen.grid 60 60 in
  List.iter
    (fun domains ->
      let config = Network.Config.make ~domains ~bandwidth:4096 () in
      ignore (Network.exec ~config g native_flood);
      let before = words_now () in
      let r = Network.exec ~config g native_flood in
      let words = words_now () -. before in
      let wpm = words /. float r.Network.report.Network.messages in
      check_bool
        (Printf.sprintf "native flood [domains=%d]: %.3f words/message <= 1"
           domains wpm)
        true (wpm <= 1.))
    [ 1; 2 ]

(* [init] runs exactly once per node at every domain count. *)
let test_init_once () =
  let g = Gen.grid 7 9 in
  List.iter
    (fun domains ->
      let calls = Atomic.make 0 in
      let proto =
        {
          native_flood with
          Network.init =
            (fun g v send ->
              Atomic.incr calls;
              native_flood.Network.init g v send);
        }
      in
      ignore
        (Network.exec ~config:(Network.Config.make ~domains ~bandwidth:4096 ()) g proto);
      check (Printf.sprintf "init calls [domains=%d]" domains) (Gr.n g)
        (Atomic.get calls))
    [ 1; 2; 4 ]

let () =
  let seeded = List.map QCheck_alcotest.to_alcotest seeded_props in
  Alcotest.run "engine-diff"
    [
      ( "old vs new",
        [ Alcotest.test_case "fixed families" `Quick test_fixed_families ]
        @ seeded );
      ( "error parity",
        [
          Alcotest.test_case "bandwidth payloads" `Quick test_bandwidth_parity;
          Alcotest.test_case "deep over-send payloads" `Quick
            test_deep_oversend_parity;
          Alcotest.test_case "non-neighbor messages" `Quick
            test_non_neighbor_parity;
          Alcotest.test_case "livelock contracts" `Quick test_livelock_contracts;
          Alcotest.test_case "sharded error observation" `Quick
            test_sharded_error_observation;
          Alcotest.test_case "config validation" `Quick test_domains_validation;
        ] );
      ( "sharding",
        [ Alcotest.test_case "init runs once per node" `Quick test_init_once ] );
      ( "allocation",
        [
          Alcotest.test_case "quiescent rounds allocate O(1)" `Quick
            test_quiescent_round_allocation;
          Alcotest.test_case "unobserved parallel rounds allocate O(1)" `Quick
            test_parallel_round_allocation;
          Alcotest.test_case "sharded flood words per message" `Quick
            test_sharded_words_per_message;
        ] );
    ]
