(* Chaos benchmark: what fault injection and the reliable link layer
   cost, and how the embedder degrades (in rounds, never in
   correctness) as links get worse.

   Three sections, all seeded and reproducible:

     overhead   one flood three ways: a clean Network.exec, the same
                exec under an all-zero fault plan (the "policy" run:
                every live node steps every round, and a grace tail of
                quiet rounds) and Reliable.exec under that plan, which
                adds sequence numbers, acks and the retransmission
                machinery when nothing ever goes wrong. The reliable
                run's allocation is reported per node-step.
     sweep      Embedder.run ~faults across drop rates on grid and
                cycle networks: rounds-to-completion vs loss, with the
                Euler verdict checked on every run.
     crash      a crash-restart outage under leader election + BFS with
                reliable links: the run recovers and agrees with the
                clean one.

   Results go to BENCH_chaos.json and stdout, with the host's core
   count ("cores") and OCaml version. Walls are monotonic wall-clock
   seconds, the median of 5 runs. Every engine run here uses one
   domain; --jobs only fans the sweep's independent runs out.

     dune exec bench/chaos.exe              # full sweep
     dune exec bench/chaos.exe -- --quick   # CI smoke: small cases,
                                            # exit 1 on any wrong result
     dune exec bench/chaos.exe -- --out F   # write the JSON to F *)

(* Max-id flood — dense traffic, a fixpoint every node can verify. *)
let flood =
  {
    Network.init =
      (fun g v send ->
        Gr.iter_neighbors g v (fun w -> send w v);
        v);
    round =
      (fun g v best inbox send ->
        let best' = Network.Inbox.fold (fun acc _ x -> max acc x) best inbox in
        if best' <> best then Gr.iter_neighbors g v (fun w -> send w best');
        best');
    msg_bits = (fun _ -> 20);
  }

let zero_plan ~seed = Fault.make ~spec:Fault.default ~seed ()

(* ------------------------------------------------------------------ *)
(* Section 1: reliable-link overhead with nothing going wrong          *)
(* ------------------------------------------------------------------ *)

type overhead = {
  o_name : string;
  o_n : int;
  clean_rounds : int;
  reliable_rounds : int;
  clean_wall : float;
  policy_wall : float;
  reliable_wall : float;
  policy_words_per_node_step : float;
  words_per_node_step : float;
  retransmits : int;
  o_ok : bool;
}

(* One counted run (its result and allocated words), then the median
   wall of five more. *)
let measure f =
  let x, _, words = Harness.counted f in
  let _, wall = Harness.median_of ~reps:5 f in
  (x, wall, words)

let run_overhead name g =
  let exec faults =
    let config = Network.Config.make ~bandwidth:4096 ?faults () in
    Network.exec ~config g flood
  in
  let clean, clean_wall, _ = measure (fun () -> exec None) in
  let policy, policy_wall, policy_words =
    measure (fun () -> exec (Some (zero_plan ~seed:1)))
  in
  let (reliable, stats), reliable_wall, words =
    measure (fun () ->
        let stats = Reliable.counters () in
        ( Reliable.exec ~bandwidth:4096 ~faults:(zero_plan ~seed:1) ~stats g
            flood,
          stats ))
  in
  let n = Gr.n g in
  let c =
    {
      o_name = name;
      o_n = n;
      clean_rounds = clean.Network.rounds;
      reliable_rounds = reliable.Network.rounds;
      clean_wall;
      policy_wall;
      reliable_wall;
      (* Under a plan every live node steps every round. *)
      policy_words_per_node_step =
        policy_words /. float_of_int (max 1 (n * policy.Network.rounds));
      words_per_node_step =
        words /. float_of_int (max 1 (n * reliable.Network.rounds));
      retransmits = stats.Reliable.retransmits;
      (* With zero faults nothing is ever lost: both faulted runs must
         reach the clean fixpoint, and the reliable one never
         retransmits. *)
      o_ok =
        policy.Network.states = clean.Network.states
        && reliable.Network.states = clean.Network.states
        && stats.Reliable.retransmits = 0;
    }
  in
  Printf.printf
    "overhead %-16s n=%-6d clean %4d rounds %7.3fs   policy %7.3fs   \
     reliable %4d rounds %7.3fs (x%.2f policy, %.1f words/node-step, %d \
     retransmits)  %s\n%!"
    c.o_name c.o_n c.clean_rounds c.clean_wall c.policy_wall c.reliable_rounds
    c.reliable_wall
    (c.reliable_wall /. max 1e-9 c.policy_wall)
    c.words_per_node_step c.retransmits
    (if c.o_ok then "ok" else "WRONG RESULT");
  c

(* ------------------------------------------------------------------ *)
(* Section 2: embedder rounds-to-completion vs drop rate               *)
(* ------------------------------------------------------------------ *)

type sweep = {
  s_name : string;
  s_n : int;
  drop : float;
  s_seed : int;
  s_clean_rounds : int;
  s_rounds : int;
  dropped : int;
  euler_ok : bool;
}

let run_sweep ~jobs name g ~drops ~seed =
  let clean = Embedder.run g in
  let clean_rounds = clean.Embedder.report.Embedder.rounds in
  (* Each drop rate is an independent fault-injected run with its own
     plan, so the sweep fans out over the Pool when --jobs asks; records
     come back in drop order and are printed serially, so the output and
     the JSON are byte-identical at any job count. The wall-timed
     overhead section and the sequential crash section stay serial. *)
  let drops = Array.of_list drops in
  let rows =
    Pool.map ~jobs (Array.length drops) (fun i ->
        let drop = drops.(i) in
        let plan = Fault.make ~spec:{ Fault.default with drop } ~seed () in
        let o = Embedder.run ~config:(Network.Config.make ~faults:plan ()) g in
        let st = Fault.stats plan in
        let euler_ok =
          match o.Embedder.rotation with
          | Some rot -> Rotation.is_planar_embedding rot
          | None -> false
        in
        {
          s_name = name;
          s_n = Gr.n g;
          drop;
          s_seed = seed;
          s_clean_rounds = clean_rounds;
          s_rounds = o.Embedder.report.Embedder.rounds;
          dropped = st.Fault.dropped;
          euler_ok;
        })
  in
  Array.to_list rows
  |> List.map (fun c ->
         Printf.printf
           "sweep    %-16s n=%-6d drop=%.2f  %5d rounds (clean %5d, %+.1f%%)  \
            %5d dropped  %s\n%!"
           c.s_name c.s_n c.drop c.s_rounds c.s_clean_rounds
           (100.0
           *. (float_of_int c.s_rounds -. float_of_int c.s_clean_rounds)
           /. float_of_int (max 1 c.s_clean_rounds))
           c.dropped
           (if c.euler_ok then "euler ok" else "EULER FAILED");
         c)

(* ------------------------------------------------------------------ *)
(* Section 3: crash-restart recovery under reliable leader+BFS         *)
(* ------------------------------------------------------------------ *)

type crash_case = {
  c_name : string;
  c_n : int;
  c_node : int;
  c_at : int;
  c_restart : int;
  c_clean_rounds : int;
  c_rounds : int;
  crash_lost : int;
  c_ok : bool;
}

let run_crash name g ~node ~at ~restart =
  let bandwidth = Network.default_bandwidth g in
  let clean = Metrics.create g in
  let clean_states =
    Proto.leader_bfs
      ~config:
        (Network.Config.make ~observe:(Observe.of_metrics clean) ~bandwidth ())
      g
  in
  let spec =
    { Fault.default with crashes = [ { Fault.node; at; restart = Some restart } ] }
  in
  let plan = Fault.make ~spec ~seed:5 () in
  let m = Metrics.create g in
  let states =
    Proto.leader_bfs
      ~config:
        (Network.Config.make ~observe:(Observe.of_metrics m) ~faults:plan
           ~bandwidth ())
      g
  in
  let st = Fault.stats plan in
  let agree = ref true in
  Array.iteri
    (fun v s ->
      if
        s.Proto.leader <> clean_states.(v).Proto.leader
        || s.Proto.dist <> clean_states.(v).Proto.dist
      then agree := false)
    states;
  let c =
    {
      c_name = name;
      c_n = Gr.n g;
      c_node = node;
      c_at = at;
      c_restart = restart;
      c_clean_rounds = Metrics.rounds clean;
      c_rounds = Metrics.rounds m;
      crash_lost = st.Fault.crash_lost;
      (* Proto.leader_bfs is two engine runs (the scaffold, then the
         wave from the max id), and a crash schedule's rounds are
         relative to each run, so the node goes down and comes back
         once in each. *)
      c_ok = !agree && st.Fault.crashes = 2 && st.Fault.restarts = 2;
    }
  in
  Printf.printf
    "crash    %-16s n=%-6d node %d down [%d,%d)  %4d rounds (clean %4d)  \
     %d deliveries lost  %s\n%!"
    c.c_name c.c_n c.c_node c.c_at c.c_restart c.c_rounds c.c_clean_rounds
    c.crash_lost
    (if c.c_ok then "recovered, agrees with clean run" else "WRONG RESULT");
  c

(* ------------------------------------------------------------------ *)
(* JSON and driver                                                     *)
(* ------------------------------------------------------------------ *)

let ratio a b = Harness.Num (3, float_of_int a /. float_of_int (max 1 b))

let json_of_overhead c =
  Harness.(
    Obj
      [
        ("name", Str c.o_name); ("n", Int c.o_n);
        ("clean_rounds", Int c.clean_rounds);
        ("reliable_rounds", Int c.reliable_rounds);
        ("round_ratio", ratio c.reliable_rounds c.clean_rounds);
        ("clean_wall_s", secs c.clean_wall);
        ("policy_wall_s", secs c.policy_wall);
        ("reliable_wall_s", secs c.reliable_wall);
        ("policy_words_per_node_step", Num (1, c.policy_words_per_node_step));
        ("words_per_node_step", Num (1, c.words_per_node_step));
        ("retransmits", Int c.retransmits); ("ok", Bool c.o_ok);
      ])

let json_of_sweep c =
  Harness.(
    Obj
      [
        ("name", Str c.s_name); ("n", Int c.s_n); ("drop", Num (2, c.drop));
        ("seed", Int c.s_seed); ("clean_rounds", Int c.s_clean_rounds);
        ("rounds", Int c.s_rounds);
        ("round_overhead", ratio c.s_rounds c.s_clean_rounds);
        ("dropped", Int c.dropped); ("euler_ok", Bool c.euler_ok);
      ])

let json_of_crash c =
  Harness.(
    Obj
      [
        ("name", Str c.c_name); ("n", Int c.c_n); ("node", Int c.c_node);
        ("down_at", Int c.c_at); ("restart_at", Int c.c_restart);
        ("clean_rounds", Int c.c_clean_rounds); ("rounds", Int c.c_rounds);
        ("crash_lost", Int c.crash_lost); ("ok", Bool c.c_ok);
      ])

let () =
  let cli = Harness.args ~jobs:true "chaos" ~out:"BENCH_chaos.json" in
  let jobs = cli.jobs in
  let drops = [ 0.0; 0.02; 0.05; 0.1 ] in
  (* Sequence the cases explicitly: effectful calls inside tuple and
     list literals would evaluate (and print) right to left. *)
  let overheads, sweeps, crashes =
    if cli.quick then begin
      let o1 = run_overhead "grid-12x12" (Gen.grid 12 12) in
      let s1 =
        run_sweep ~jobs "grid-12x12" (Gen.grid 12 12) ~drops:[ 0.0; 0.05 ]
          ~seed:11
      in
      let c1 = run_crash "cycle-64" (Gen.cycle 64) ~node:5 ~at:4 ~restart:12 in
      ([ o1 ], s1, [ c1 ])
    end
    else begin
      let o1 = run_overhead "grid-32x32" (Gen.grid 32 32) in
      let o2 = run_overhead "cycle-1k" (Gen.cycle 1_000) in
      let o3 = run_overhead "star-2k" (Gen.star 2_000) in
      let o4 = run_overhead "star-8k" (Gen.star 8_000) in
      let s1 = run_sweep ~jobs "grid-24x24" (Gen.grid 24 24) ~drops ~seed:11 in
      let s2 = run_sweep ~jobs "cycle-128" (Gen.cycle 128) ~drops ~seed:11 in
      let s3 =
        run_sweep ~jobs "maxplanar-400"
          (Gen.random_maximal_planar ~seed:3 400)
          ~drops ~seed:11
      in
      let c1 = run_crash "cycle-64" (Gen.cycle 64) ~node:5 ~at:4 ~restart:12 in
      let c2 =
        run_crash "grid-16x16" (Gen.grid 16 16) ~node:17 ~at:3 ~restart:20
      in
      ([ o1; o2; o3; o4 ], s1 @ s2 @ s3, [ c1; c2 ])
    end
  in
  (* CI gate: every fault-injected run must still compute the right
     answer — degradation is allowed in rounds, never in results. *)
  let wrong =
    List.length (List.filter (fun c -> not c.o_ok) overheads)
    + List.length (List.filter (fun c -> not c.euler_ok) sweeps)
    + List.length (List.filter (fun c -> not c.c_ok) crashes)
  in
  Harness.(
    finish cli
      (document "congest-chaos"
         [
           ("unit", Obj [ ("wall", Str "seconds, median of 5 runs") ]);
           ("reliable_overhead", List (List.map json_of_overhead overheads));
           ("drop_sweep", List (List.map json_of_sweep sweeps));
           ("crash_recovery", List (List.map json_of_crash crashes));
         ])
      (if wrong > 0 then
         [ Printf.sprintf "%d case(s) produced a wrong result" wrong ]
       else []))
