(* Experiment harness: one entry per "table/figure" of the reproduction.

   The PODC'16 paper is a theory paper whose evaluation is its theorems;
   DESIGN.md (Section 5) maps each quantitative claim to an experiment id
   E1..E11 below, plus T0 (Bechamel wall-clock micro-benchmarks of the
   computational kernels). Running without arguments executes everything:

     dune exec bench/main.exe            # all experiments, default sizes
     dune exec bench/main.exe -- e3 e7   # a subset
     dune exec bench/main.exe -- --quick # smaller sweeps (CI-friendly)

   Round counts are simulated CONGEST rounds at bandwidth 16·⌈log2 n⌉
   bits/edge/round; "ours" is the recursive embedding algorithm
   (Theorem 1.1), "base" the trivial gather-everything algorithm
   (footnote 2 of the paper). A verify/check column that is not "ok"
   (or "yes") makes the harness exit 1 after printing every table. *)

let quick = ref false
let huge = ref false
let trace_file = ref None

let log2_ceil n =
  int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.0))

let header title claim =
  Printf.printf "\n=== %s ===\n%s\n\n" title claim

let row fmt = Printf.printf fmt

(* Workloads --------------------------------------------------------- *)

let maxplanar n = Gen.random_maximal_planar ~seed:(42 + n) n

let sizes_maxplanar () =
  if !quick then [ 250; 500; 1000; 2000 ]
  else if !huge then
    (* --huge: the LR kernel keeps the leader's local computation linear,
       so the E1/E2 sweeps can afford the 32k/64k tier that the DMP-era
       harness never reached. *)
    [ 250; 500; 1000; 2000; 4000; 8000; 16000; 32000; 64000 ]
  else [ 250; 500; 1000; 2000; 4000; 8000; 16000 ]

let grids () =
  if !quick then [ (8, 8); (16, 16); (24, 24) ]
  else [ (8, 8); (16, 16); (24, 24); (32, 32); (40, 40); (56, 56) ]

let seglens () =
  if !quick then [ 4; 8; 16; 32 ] else [ 4; 8; 16; 32; 64; 128; 256 ]

let failures = ref 0

(* A check column's cell; a failed check is counted for the exit code. *)
let cell ~pass ~fail ok =
  if not ok then incr failures;
  if ok then pass else fail

let check ok = cell ~pass:"ok" ~fail:"FAIL" ok

let verified o =
  match o.Embedder.rotation with
  | Some r -> cell ~pass:"ok" ~fail:"BAD" (Rotation.is_planar_embedding r)
  | None -> cell ~pass:"ok" ~fail:"REJECTED" false

(* E1 ----------------------------------------------------------------- *)

let e1 () =
  header "E1  Theorem 1.1: rounds scale as O(D * min(log n, D))"
    "Claim: on planar networks the algorithm runs in O(D min(log n, D))\n\
     rounds. Family: random maximal planar graphs (D = O(log n)), so the\n\
     normalized column rounds / ((D+1) * min(log2 n, D+1)) should stay\n\
     roughly flat while n grows 64x.";
  row "%8s %8s %5s %7s %10s %14s %9s\n" "n" "m" "D" "recdep" "rounds"
    "norm(D*minlog)" "verify";
  List.iter
    (fun n ->
      let g = maxplanar n in
      let o = Embedder.run g in
      let r = o.Embedder.report in
      let d = r.Embedder.bfs_depth + 1 in
      let norm =
        float_of_int r.Embedder.rounds
        /. float_of_int (d * min (log2_ceil n) d)
      in
      row "%8d %8d %5d %7d %10d %14.1f %9s\n" r.Embedder.n r.Embedder.m
        r.Embedder.bfs_depth r.Embedder.recursion_depth r.Embedder.rounds norm
        (verified o))
    (sizes_maxplanar ())

(* E2 ----------------------------------------------------------------- *)

let e2 () =
  header "E2  Theorem 1.1 vs the trivial O(n) baseline (footnote 2)"
    "Claim: gathering the topology costs O(n) rounds while the recursive\n\
     algorithm costs O(D min(log n, D)); on low-diameter planar graphs the\n\
     recursive algorithm must win for large n (crossover), while on\n\
     high-diameter graphs (grids, subdivisions) the baseline keeps winning\n\
     at these sizes since D*log n ~ n there.";
  row "%-14s %8s %5s %10s %10s %9s\n" "family" "n" "D" "ours" "base"
    "ours/base";
  let entry name g =
    let o = Embedder.run g and b = Baseline.run g in
    let ro = o.Embedder.report.Embedder.rounds
    and rb = b.Baseline.report.Baseline.rounds in
    row "%-14s %8d %5d %10d %10d %9.2f\n" name (Gr.n g)
      o.Embedder.report.Embedder.bfs_depth ro rb
      (float_of_int ro /. float_of_int rb)
  in
  List.iter (fun n -> entry "maxplanar" (maxplanar n)) (sizes_maxplanar ());
  List.iter (fun (r, c) -> entry "grid" (Gen.grid r c)) (grids ());
  List.iter
    (fun s -> entry "k4-subdiv" (Gen.k4_subdivision s))
    (if !quick then [ 16; 64 ] else [ 16; 64; 256 ])

(* E3 ----------------------------------------------------------------- *)

let e3 () =
  header "E3  The Omega(D) lower bound family (footnote 1)"
    "Claim: on K4 with every edge subdivided into a Theta(D)-hop path, any\n\
     planar embedding algorithm needs Omega(D) rounds (the four degree-3\n\
     vertices must agree on mutually consistent orientations). Measured:\n\
     rounds >= D always, and rounds / (D * min(log n, D)) stays bounded.";
  row "%8s %8s %6s %10s %10s %14s %9s\n" "seglen" "n" "D" "rounds" "rounds/D"
    "norm(D*minlog)" "verify";
  List.iter
    (fun s ->
      let g = Gen.k4_subdivision s in
      let d = Traverse.diameter g in
      let o = Embedder.run g in
      let r = o.Embedder.report in
      assert (r.Embedder.rounds >= d);
      let dd = d + 1 in
      row "%8d %8d %6d %10d %10.1f %14.1f %9s\n" s (Gr.n g) d
        r.Embedder.rounds
        (float_of_int r.Embedder.rounds /. float_of_int dd)
        (float_of_int r.Embedder.rounds
        /. float_of_int (dd * min (log2_ceil (Gr.n g)) dd))
        (verified o))
    (seglens ())

(* E4 ----------------------------------------------------------------- *)

let e4 () =
  header "E4  Lemmas 4.2/4.3: the recursive embedding order"
    "Claim: each recursion call splits its subtree so that every hanging\n\
     part keeps at most 2/3 of the vertices and strictly smaller depth;\n\
     hence the recursion depth is at most min(log_1.5 n, depth(T)).\n\
     'check' runs the full per-call invariant oracle (Decompose.check).";
  row "%-14s %8s %7s %8s %9s %12s %6s\n" "family" "n" "depth" "calls" "bound"
    "bfs-depth" "check";
  let entry name g =
    let bt = Traverse.bfs g (Gr.n g - 1) in
    let tree = Decompose.recursion_tree g bt in
    let d = Decompose.depth tree in
    let bound =
      min
        (int_of_float (ceil (log (float_of_int (Gr.n g)) /. log 1.5)) + 1)
        (Traverse.depth bt + 1)
    in
    assert (d <= bound);
    row "%-14s %8d %7d %8d %9d %12d %6s\n" name (Gr.n g) d
      (Decompose.count_calls tree) bound (Traverse.depth bt)
      (check (Decompose.check g bt tree))
  in
  List.iter (fun n -> entry "maxplanar" (maxplanar n)) (sizes_maxplanar ());
  List.iter (fun (r, c) -> entry "grid" (Gen.grid r c)) (grids ());
  entry "path" (Gen.path (if !quick then 500 else 4000));
  entry "star" (Gen.star 500)

(* E5 ----------------------------------------------------------------- *)

let e5 () =
  header "E5  Lemma 5.3: deterministic symmetry breaking on part graphs"
    "Claim: on a properly colored outerplanar graph, O(1) part-level\n\
     rounds suffice to output disjoint induced stars (size >= 2) plus a\n\
     partition of the rest into color-monotone paths. Measured: validity\n\
     (the Symmetry.check oracle) and how much of the graph gets grouped\n\
     for merging.";
  row "%8s %8s %7s %7s %10s %10s %6s\n" "n" "m" "stars" "paths" "grouped%"
    "singles%" "check";
  List.iter
    (fun n ->
      let g = Gen.random_outerplanar ~seed:((n * 3) + 1) ~n ~chord_prob:0.5 in
      let colors = Gen.random_permutation ~seed:n n in
      let grp = Symmetry.compute g ~colors in
      let grouped = Hashtbl.create n in
      List.iter
        (fun (c, leaves) ->
          Hashtbl.replace grouped c ();
          List.iter (fun v -> Hashtbl.replace grouped v ()) leaves)
        grp.Symmetry.stars;
      let singles = ref 0 in
      List.iter
        (fun p ->
          if List.length p >= 2 then
            List.iter (fun v -> Hashtbl.replace grouped v ()) p
          else incr singles)
        grp.Symmetry.paths;
      row "%8d %8d %7d %7d %9.1f%% %9.1f%% %6s\n" n (Gr.m g)
        (List.length grp.Symmetry.stars)
        (List.length grp.Symmetry.paths)
        (100.0 *. float_of_int (Hashtbl.length grouped) /. float_of_int n)
        (100.0 *. float_of_int !singles /. float_of_int n)
        (check (Symmetry.check g ~colors grp)))
    (if !quick then [ 50; 200; 1000 ] else [ 50; 200; 1000; 5000; 20000 ])

(* E6 ----------------------------------------------------------------- *)

let e6 () =
  header "E6  Section 5.3: parts surviving into the restricted merge"
    "Claim: after the two merge/retire iterations, at most O(D) parts\n\
     remain, so the final path-coordinated merge fits the path's capacity.\n\
     Measured: the max number of parts entering step 6 over all calls,\n\
     against the call path length (<= D).";
  row "%-14s %8s %5s %10s %12s\n" "family" "n" "D" "max-parts" "parts/(D+1)";
  let entry name g =
    let o = Embedder.run g in
    let r = o.Embedder.report in
    let d = r.Embedder.bfs_depth + 1 in
    row "%-14s %8d %5d %10d %12.2f\n" name (Gr.n g) r.Embedder.bfs_depth
      r.Embedder.max_parts_at_restricted_merge
      (float_of_int r.Embedder.max_parts_at_restricted_merge /. float_of_int d)
  in
  List.iter (fun n -> entry "maxplanar" (maxplanar n)) (sizes_maxplanar ());
  List.iter (fun (r, c) -> entry "grid" (Gen.grid r c)) (grids ());
  List.iter
    (fun (r, c) -> entry "wide-grid" (Gen.grid r c))
    (if !quick then [ (6, 100) ] else [ (6, 100); (6, 400); (10, 400) ])

(* E7 ----------------------------------------------------------------- *)

let e7 () =
  header "E7  Communication: no edge carries more than ~O(D log^2 n) bits"
    "Claim (Section 1.2): no pair of adjacent nodes needs to exchange\n\
     omega~(D) bits. Measured: the heaviest per-edge bit load across the\n\
     whole run, normalized by (D+1) * B where B = 16 log n is one round's\n\
     edge capacity (so the column is 'rounds worth of traffic on the\n\
     busiest edge'; it must not blow up with n).";
  row "%-14s %8s %5s %14s %15s %12s\n" "family" "n" "D" "max-edge-bits"
    "maxedge/(D+1)B" "total-Mbits";
  let entry name g =
    let o = Embedder.run g in
    let r = o.Embedder.report in
    let d = r.Embedder.bfs_depth + 1 in
    row "%-14s %8d %5d %14d %15.2f %12.2f\n" name (Gr.n g)
      r.Embedder.bfs_depth r.Embedder.max_edge_bits
      (float_of_int r.Embedder.max_edge_bits
      /. float_of_int (d * r.Embedder.bandwidth))
      (float_of_int r.Embedder.total_bits /. 1e6)
  in
  List.iter (fun n -> entry "maxplanar" (maxplanar n)) (sizes_maxplanar ());
  List.iter (fun (r, c) -> entry "grid" (Gen.grid r c)) (grids ());
  List.iter
    (fun s -> entry "k4-subdiv" (Gen.k4_subdivision s))
    (if !quick then [ 32 ] else [ 32; 128 ])

(* E8 ----------------------------------------------------------------- *)

let e8 () =
  header "E8  Safety invariants hold at every merge (Def 3.1 / Prop 5.2)"
    "Claim: the maintained partition is always safe: parts stay connected\n\
     and every non-trivial part keeps a connected complement. Measured:\n\
     runs with checks enabled; every merge is validated (a violation\n\
     aborts the run). 'checks' counts validated merges.";
  row "%-14s %8s %8s %8s %8s %9s\n" "family" "n" "checks" "merges" "retired"
    "verify";
  let entry name g =
    let o = Embedder.run ~checks:true g in
    let r = o.Embedder.report in
    let merges =
      r.Embedder.merges_pairwise + r.Embedder.merges_star
      + r.Embedder.merges_vertex + r.Embedder.merges_path
    in
    row "%-14s %8d %8d %8d %8d %9s\n" name (Gr.n g) r.Embedder.safety_checks
      merges r.Embedder.retired_parts (verified o)
  in
  List.iter
    (fun n -> entry "maxplanar" (maxplanar n))
    (if !quick then [ 100; 300 ] else [ 100; 300; 1000 ]);
  entry "grid" (Gen.grid 12 12);
  entry "k4-subdiv" (Gen.k4_subdivision 12);
  entry "tree" (Gen.random_tree ~seed:5 400);
  entry "outerplanar" (Gen.random_outerplanar ~seed:9 ~n:300 ~chord_prob:0.6)

(* E10 ---------------------------------------------------------------- *)

let e10 () =
  header "E10 Application: Lipton-Tarjan separators from the embedding"
    "The paper's motivation (Section 1.1): the embedding is 'step 1 in the\n\
     planar separator of Lipton and Tarjan'. Measured: separator size\n\
     (expected O(sqrt n)) and balance (largest remaining component <= 2/3)\n\
     across planar families, all validated by Separator.check.";
  row "%-14s %8s %6s %10s %9s %6s\n" "family" "n" "sep" "sep/sqrt-n" "balance"
    "check";
  let entry name g =
    let s = Separator.separate g in
    row "%-14s %8d %6d %10.2f %9.2f %6s\n" name (Gr.n g)
      (List.length s.Separator.separator)
      (float_of_int (List.length s.Separator.separator)
      /. sqrt (float_of_int (Gr.n g)))
      s.Separator.balance
      (check
         (Separator.check g s && s.Separator.balance <= 2.0 /. 3.0 +. 1e-9))
  in
  List.iter
    (fun n -> entry "maxplanar" (maxplanar n))
    (if !quick then [ 250; 1000 ] else [ 250; 1000; 4000 ]);
  List.iter (fun (r, c) -> entry "grid" (Gen.grid r c)) (grids ());
  entry "tree" (Gen.random_tree ~seed:8 2000);
  entry "outerplanar" (Gen.random_outerplanar ~seed:8 ~n:1000 ~chord_prob:0.5);
  entry "k4-subdiv" (Gen.k4_subdivision 64)

(* E11 ---------------------------------------------------------------- *)

let e11 () =
  header "E11 Downstream consumer: distributed MST (part II's starting point)"
    "The paper's program ([GH16]) computes MST in planar networks using the\n\
     embedding as a black box. Measured here: the classic Boruvka fragment\n\
     merging on the same simulated networks, verified against Kruskal;\n\
     part II's shortcut acceleration is out of scope (DESIGN.md 3.6).";
  row "%-14s %8s %5s %8s %10s %8s\n" "family" "n" "D" "phases" "rounds"
    "=kruskal";
  let entry name g =
    let weight u v = (((u + 1) * 48271) lxor ((v + 1) * 16807)) mod 1000 in
    let (mst, rep) = Mst.run ~weight g in
    let same =
      List.sort compare mst = List.sort compare (Mst.kruskal ~weight g)
    in
    row "%-14s %8d %5d %8d %10d %8s\n" name (Gr.n g)
      (Traverse.diameter g) rep.Mst.boruvka_phases rep.Mst.rounds
      (cell ~pass:"yes" ~fail:"NO" same)
  in
  List.iter
    (fun n -> entry "maxplanar" (maxplanar n))
    (if !quick then [ 250; 1000 ] else [ 250; 1000; 4000 ]);
  List.iter (fun (r, c) -> entry "grid" (Gen.grid r c))
    (if !quick then [ (16, 16) ] else [ (16, 16); (32, 32) ]);
  entry "k4-subdiv" (Gen.k4_subdivision 32)

(* T0: Bechamel micro-benchmarks -------------------------------------- *)

let micro () =
  header "T0  Bechamel micro-benchmarks (wall-clock of the kernels)"
    "Estimated execution time per run (OLS fit against run count).";
  let open Bechamel in
  let g500 = maxplanar 500 in
  let grid = Gen.grid 20 20 in
  let rot = Planarity.embed_exn g500 in
  let outer = Gen.random_outerplanar ~seed:3 ~n:400 ~chord_prob:0.5 in
  let colors = Gen.random_permutation ~seed:4 400 in
  let tests =
    [
      Test.make ~name:"lr-embed-maxplanar500"
        (Staged.stage (fun () -> ignore (Lr.embed g500)));
      Test.make ~name:"bicon-decompose-maxplanar500"
        (Staged.stage (fun () -> ignore (Bicon.decompose g500)));
      Test.make ~name:"face-trace-maxplanar500"
        (Staged.stage (fun () -> ignore (Rotation.faces rot)));
      Test.make ~name:"leader-bfs-sim-grid20x20"
        (Staged.stage (fun () -> ignore (Proto.leader_bfs grid)));
      Test.make ~name:"symmetry-outerplanar400"
        (Staged.stage (fun () -> ignore (Symmetry.compute outer ~colors)));
      Test.make ~name:"embedder-grid20x20"
        (Staged.stage (fun () -> ignore (Embedder.run grid)));
      Test.make ~name:"baseline-grid20x20"
        (Staged.stage (fun () -> ignore (Baseline.run grid)));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:100
      ~quota:(Time.second (if !quick then 0.25 else 0.5))
      ~kde:None ()
  in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"kernels" tests)
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
  in
  List.iter
    (fun (name, ns) -> row "%-44s %14.1f us/run\n" name (ns /. 1e3))
    (List.sort compare rows)

(* TRACE: instrumented profile ---------------------------------------- *)

let trace_run file =
  header "TRACE  instrumented profile of one embedder run"
    "A full Theorem 1.1 run on a random maximal planar graph with the\n\
     structured trace enabled: per-round records from the simulator\n\
     phases, one span per recursion call and merge schedule, per-phase\n\
     summary below, machine-readable JSON journal written to the given\n\
     file, and the Bounds checker's verdict on the paper's claims.";
  let n = if !quick then 250 else 1000 in
  let g = maxplanar n in
  let tr = Trace.create () in
  let o =
    Embedder.run
      ~config:(Network.Config.make ~observe:(Observe.of_trace tr) ())
      g
  in
  let r = o.Embedder.report in
  let d = Traverse.diameter g in
  let meta =
    [
      ("n", r.Embedder.n);
      ("m", r.Embedder.m);
      ("diameter", d);
      ("bandwidth", r.Embedder.bandwidth);
      ("rounds", r.Embedder.rounds);
      ("recursion_depth", r.Embedder.recursion_depth);
      ("recursion_calls", r.Embedder.recursion_calls);
    ]
  in
  let oc = open_out file in
  Trace.write_json ~name:(Printf.sprintf "maxplanar-%d" n) ~meta
    ~metrics:r.Embedder.metrics oc tr;
  close_out oc;
  Format.printf "%a@.@." Trace.pp_summary tr;
  Format.printf "%a@.@." Bounds.pp
    (Bounds.check ~n:r.Embedder.n ~d r.Embedder.metrics);
  Printf.printf "verify: %s — JSON journal written to %s\n" (verified o) file

(* Driver -------------------------------------------------------------- *)

let all_experiments =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e10", e10);
    ("e11", e11);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        parse acc rest
    | "--huge" :: rest ->
        huge := true;
        parse acc rest
    | "--trace" :: file :: rest ->
        Harness.check_writable "--trace" file;
        trace_file := Some file;
        parse acc rest
    | [ "--trace" ] ->
        prerr_endline "--trace needs an output file (e.g. --trace out.json)";
        exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] args in
  let chosen =
    match args with
    | [] when !trace_file <> None -> []
    | [] -> all_experiments
    | names ->
        List.map
          (fun name ->
            match
              List.assoc_opt (String.lowercase_ascii name) all_experiments
            with
            | Some f -> (name, f)
            | None ->
                Printf.eprintf
                  "unknown experiment %S (known: %s, plus --quick)\n" name
                  (String.concat ", " (List.map fst all_experiments));
                exit 2)
          names
  in
  Printf.printf
    "distplanar experiment harness — reproduction of Ghaffari & Haeupler,\n\
     PODC 2016 (see DESIGN.md section 5 and EXPERIMENTS.md)%s\n"
    (if !quick then " [--quick sizes]" else "");
  (match !trace_file with Some file -> trace_run file | None -> ());
  List.iter (fun (_name, f) -> f ()) chosen;
  if !failures > 0 then begin
    Printf.eprintf "bench/main: %d verify/check cells failed\n" !failures;
    exit 1
  end
