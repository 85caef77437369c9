(* Chaos benchmark: what fault injection and the reliable link layer
   cost, and how the embedder degrades (in rounds, never in
   correctness) as links get worse.

   Three sections, all seeded and reproducible:

     overhead   Reliable.exec with an all-zero fault plan vs a raw
                Network.exec of the same protocol — the price of the
                fault policy (every live node steps every round, and a
                grace tail of quiet rounds) plus sequence numbers, acks
                and the retransmission machinery when nothing ever goes
                wrong.
     sweep      Embedder.run ~faults across drop rates on grid and
                cycle networks: rounds-to-completion vs loss, with the
                Euler verdict checked on every run.
     crash      a crash-restart outage under leader election + BFS with
                reliable links: the run recovers and agrees with the
                clean one.

   Results go to BENCH_chaos.json and stdout, with the host's core
   count ("cores") and OCaml version. Every engine run here uses one
   domain; --jobs only fans the sweep's independent runs out.

     dune exec bench/chaos.exe              # full sweep
     dune exec bench/chaos.exe -- --quick   # CI smoke: small cases,
                                            # exit 1 on any wrong result
     dune exec bench/chaos.exe -- --out F   # write the JSON to F *)

let to_all g v msg =
  Gr.fold_neighbors g v ~init:[] ~f:(fun acc w -> (w, msg) :: acc)

(* Max-id flood — dense traffic, a fixpoint every node can verify. *)
let flood =
  Network.of_lists {
    Network.init = (fun g v -> (v, to_all g v v));
    round =
      (fun g v best inbox ->
        let best' = List.fold_left (fun acc (_, x) -> max acc x) best inbox in
        if best' = best then (best, []) else (best', to_all g v best'));
    msg_bits = (fun _ -> 20);
  }

let measure f =
  Gc.full_major ();
  let t0 = Sys.time () in
  let x = f () in
  (x, Sys.time () -. t0)

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
  reliable_wall : float;
  retransmits : int;
  o_ok : bool;
}

let run_overhead name g =
  let clean, clean_wall =
    measure (fun () ->
        Network.exec ~config:(Network.Config.make ~bandwidth:4096 ()) g flood)
  in
  let stats = Reliable.counters () in
  let reliable, reliable_wall =
    measure (fun () ->
        Reliable.exec ~bandwidth:4096 ~faults:(zero_plan ~seed:1) ~stats g flood)
  in
  let c =
    {
      o_name = name;
      o_n = Gr.n g;
      clean_rounds = clean.Network.rounds;
      reliable_rounds = reliable.Network.rounds;
      clean_wall;
      reliable_wall;
      retransmits = stats.Reliable.retransmits;
      (* With zero faults nothing is ever lost: the reliable run must
         reach the same fixpoint and never retransmit. *)
      o_ok =
        reliable.Network.states = clean.Network.states
        && stats.Reliable.retransmits = 0;
    }
  in
  Printf.printf
    "overhead %-16s n=%-6d clean %4d rounds %7.3fs   reliable %4d rounds \
     %7.3fs   (x%.2f rounds, %d retransmits)  %s\n%!"
    c.o_name c.o_n c.clean_rounds c.clean_wall c.reliable_rounds
    c.reliable_wall
    (float_of_int c.reliable_rounds /. float_of_int (max 1 c.clean_rounds))
    c.retransmits
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

let run_sweep ?(jobs = 1) name g ~drops ~seed =
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
      c_ok = !agree && st.Fault.crashes = 1 && st.Fault.restarts = 1;
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
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json ~overheads ~sweeps ~crashes =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmark\": \"congest-chaos\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"cores\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string b
    (Printf.sprintf "  \"ocaml_version\": %S,\n" Sys.ocaml_version);
  Buffer.add_string b "  \"unit\": { \"wall\": \"seconds\" },\n";
  Buffer.add_string b "  \"reliable_overhead\": [\n";
  List.iteri
    (fun i c ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"name\": %S, \"n\": %d, \"clean_rounds\": %d, \
            \"reliable_rounds\": %d,\n\
           \      \"round_ratio\": %.3f, \"clean_wall_s\": %.6f, \
            \"reliable_wall_s\": %.6f,\n\
           \      \"retransmits\": %d, \"ok\": %b }%s\n"
           c.o_name c.o_n c.clean_rounds c.reliable_rounds
           (float_of_int c.reliable_rounds /. float_of_int (max 1 c.clean_rounds))
           c.clean_wall c.reliable_wall c.retransmits c.o_ok
           (if i = List.length overheads - 1 then "" else ",")))
    overheads;
  Buffer.add_string b "  ],\n  \"drop_sweep\": [\n";
  List.iteri
    (fun i c ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"name\": %S, \"n\": %d, \"drop\": %.2f, \"seed\": %d, \
            \"clean_rounds\": %d,\n\
           \      \"rounds\": %d, \"round_overhead\": %.3f, \"dropped\": %d, \
            \"euler_ok\": %b }%s\n"
           c.s_name c.s_n c.drop c.s_seed c.s_clean_rounds c.s_rounds
           (float_of_int c.s_rounds /. float_of_int (max 1 c.s_clean_rounds))
           c.dropped c.euler_ok
           (if i = List.length sweeps - 1 then "" else ",")))
    sweeps;
  Buffer.add_string b "  ],\n  \"crash_recovery\": [\n";
  List.iteri
    (fun i c ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"name\": %S, \"n\": %d, \"node\": %d, \"down_at\": %d, \
            \"restart_at\": %d,\n\
           \      \"clean_rounds\": %d, \"rounds\": %d, \"crash_lost\": %d, \
            \"ok\": %b }%s\n"
           c.c_name c.c_n c.c_node c.c_at c.c_restart c.c_clean_rounds
           c.c_rounds c.crash_lost c.c_ok
           (if i = List.length crashes - 1 then "" else ",")))
    crashes;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let () =
  let quick = ref false in
  let out = ref "BENCH_chaos.json" in
  let jobs = ref 1 in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--out" :: file :: rest ->
        out := file;
        parse rest
    | "--jobs" :: k :: rest -> (
        match int_of_string_opt k with
        | Some k when k >= 1 ->
            jobs := k;
            parse rest
        | _ ->
            Printf.eprintf "chaos: --jobs expects a positive integer\n";
            exit 2)
    | arg :: _ ->
        Printf.eprintf "chaos: unknown argument %s\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let drops = [ 0.0; 0.02; 0.05; 0.1 ] in
  (* Sequence the cases explicitly: effectful calls inside tuple and
     list literals would evaluate (and print) right to left. *)
  let overheads, sweeps, crashes =
    if !quick then begin
      let o1 = run_overhead "grid-12x12" (Gen.grid 12 12) in
      let s1 =
        run_sweep ~jobs:!jobs "grid-12x12" (Gen.grid 12 12)
          ~drops:[ 0.0; 0.05 ] ~seed:11
      in
      let c1 = run_crash "cycle-64" (Gen.cycle 64) ~node:5 ~at:4 ~restart:12 in
      ([ o1 ], s1, [ c1 ])
    end
    else begin
      let o1 = run_overhead "grid-32x32" (Gen.grid 32 32) in
      let o2 = run_overhead "cycle-1k" (Gen.cycle 1_000) in
      let s1 = run_sweep ~jobs:!jobs "grid-24x24" (Gen.grid 24 24) ~drops ~seed:11 in
      let s2 = run_sweep ~jobs:!jobs "cycle-128" (Gen.cycle 128) ~drops ~seed:11 in
      let s3 =
        run_sweep ~jobs:!jobs "maxplanar-400"
          (Gen.random_maximal_planar ~seed:3 400)
          ~drops ~seed:11
      in
      let c1 = run_crash "cycle-64" (Gen.cycle 64) ~node:5 ~at:4 ~restart:12 in
      let c2 =
        run_crash "grid-16x16" (Gen.grid 16 16) ~node:17 ~at:3 ~restart:20
      in
      ([ o1; o2 ], s1 @ s2 @ s3, [ c1; c2 ])
    end
  in
  let oc = open_out !out in
  output_string oc (json ~overheads ~sweeps ~crashes);
  close_out oc;
  Printf.printf "\nwrote %s\n" !out;
  (* CI gate: every fault-injected run must still compute the right
     answer — degradation is allowed in rounds, never in results. *)
  let wrong =
    List.length (List.filter (fun c -> not c.o_ok) overheads)
    + List.length (List.filter (fun c -> not c.euler_ok) sweeps)
    + List.length (List.filter (fun c -> not c.c_ok) crashes)
  in
  if wrong > 0 then begin
    Printf.eprintf "chaos: %d case(s) produced a wrong result\n" wrong;
    exit 1
  end
