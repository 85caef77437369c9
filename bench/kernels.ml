(* Planarity-kernel benchmark: the left-right production kernel (Lr)
   against the DMP oracle, wall-clock and allocated words per embed; the
   kernel alone on a warm workspace ([Lr.embed_pairs], the form part
   installs and churn re-embeds call), in ns and words per call; and the
   kernel's biggest client, the distributed embedder, whose part
   installs each run one constrained embed.

   Every case is verified before it is timed: both kernels run once,
   their verdicts must agree (the warm embed_pairs verdict too), and an
   accepted LR rotation must pass the genus-0 Euler check — a case that
   fails verification poisons the run (nonzero exit) and its timings are
   not reported.

     dune exec bench/kernels.exe              # full sweep, up to n=30000
     dune exec bench/kernels.exe -- --quick   # CI smoke: n<=2500 tier;
                                              # exit 1 on disagreement,
                                              # invalid rotation, or LR
                                              # slower than DMP at n>=2000
     dune exec bench/kernels.exe -- --out F   # write the JSON to F

   Results go to BENCH_kernels.json and stdout. Every kernel run is
   single-threaded, and the embedder runs at one domain; the JSON records
   the host's core count and OCaml version. *)

type case = {
  name : string;
  n : int;
  m : int;
  planar : bool;
  lr_wall : float;
  dmp_wall : float;
  lr_words : float;
  dmp_words : float;
  warm_ns_per_edge : float;
  warm_words : float;
  agree : bool;
  euler_ok : bool;
}

(* [Lr.embed_pairs] on a workspace that has already embedded [g]: the
   pairs are loaded before each run (the run consumes them) and only the
   call is timed. Returns the verdict, the 10th percentile of the runs'
   ns per input edge (the quiet end of a shared host, robust to one
   lucky run) and the words one warm call allocates. *)
let warm_embed_pairs g =
  let n = Gr.n g and m = Gr.m g in
  let ws = Lr.workspace () in
  let load () =
    let lo, hi = Lr.pairs ws ~m in
    let i = ref 0 in
    Gr.iter_edges g (fun u v ->
        lo.(!i) <- u;
        hi.(!i) <- v;
        incr i)
  in
  load ();
  let planar = Lr.embed_pairs ws ~n ~m in
  load ();
  let _, words = Words.of_call (fun () -> Lr.embed_pairs ws ~n ~m) in
  let runs = max 20 (min 200 (2_000_000 / max 1 m)) in
  let ns =
    Array.init runs (fun _ ->
        load ();
        let t0 = Harness.now () in
        ignore (Lr.embed_pairs ws ~n ~m : bool);
        (Harness.now () -. t0) *. 1e9 /. float_of_int (max 1 m))
  in
  Array.sort compare ns;
  (planar, ns.(runs / 10), words)

let run_case ~reps name g =
  let n = Gr.n g and m = Gr.m g in
  (* Verification pass: verdict agreement + rotation validity, before
     any timing. *)
  let lr = Lr.embed g in
  let dmp = Dmp.embed g in
  let agree =
    match (lr, dmp) with
    | Lr.Planar _, Dmp.Planar _ | Lr.Nonplanar, Dmp.Nonplanar -> true
    | _ -> false
  in
  let planar = match lr with Lr.Planar _ -> true | Lr.Nonplanar -> false in
  let euler_ok =
    match lr with
    | Lr.Planar r -> Rotation.is_planar_embedding r
    | Lr.Nonplanar -> true
  in
  let warm_planar, warm_ns_per_edge, warm_words = warm_embed_pairs g in
  let agree = agree && warm_planar = planar in
  let lr_wall, lr_words = Harness.best_of ~reps (fun () -> Lr.embed g) in
  let dmp_wall, dmp_words = Harness.best_of ~reps (fun () -> Dmp.embed g) in
  let c =
    { name; n; m; planar; lr_wall; dmp_wall; lr_words; dmp_words;
      warm_ns_per_edge; warm_words; agree; euler_ok }
  in
  Printf.printf
    "%-26s n=%-6d m=%-6d %-9s  lr %8.4fs %11.0fw   warm %6.1f ns/edge \
     %4.0fw   dmp %8.4fs %11.0fw   %6.1fx wall %6.1fx words  %s\n%!"
    c.name c.n c.m
    (if c.planar then "planar" else "nonplanar")
    c.lr_wall c.lr_words c.warm_ns_per_edge c.warm_words c.dmp_wall
    c.dmp_words
    (c.dmp_wall /. max 1e-9 c.lr_wall)
    (c.dmp_words /. max 1. c.lr_words)
    (if c.agree && c.euler_ok then "ok"
     else if not c.agree then "DISAGREE"
     else "BAD ROTATION");
  c

(* Workloads ---------------------------------------------------------- *)

(* A maximal planar graph with one edge {0, b} swapped for a chord
   {0, y} that crosses it: m = 3n - 6, so the [m > 3n - 6] pre-check
   cannot decide it and LR must walk into a constraint conflict. [y] is
   not a neighbor of 0, so it is not on the quadrilateral face that
   removing {0, b} opens — no face holds both 0 and y. DMP's verdict
   cross-checks the reject. *)
let maxplanar_swap_edge n =
  let g = Gen.random_maximal_planar ~seed:(42 + n) n in
  let b = (Gr.neighbors g 0).(0) in
  let y = ref 1 in
  while !y = b || Gr.mem_edge g 0 !y do
    incr y
  done;
  Gr.of_edges ~n
    ((0, !y) :: List.filter (fun e -> e <> (0, b)) (Gr.edges g))

let cases quick =
  (* No grid-173: DMP needs more than 8 GB there (1.5 GB of top heap
     already at grid-100), so the committed sweep omits that row. *)
  let planar = Harness.planar_families ~grids:[ 22; 50; 100 ] quick in
  let rejects = if quick then [ 500; 2000 ] else [ 500; 2000; 8000; 30000 ] in
  (* Like the swapped-edge rows, toroidal grids reject with m <= 3n-6
     (here m = 2n), so LR cannot shortcut on the edge count. *)
  let torus = if quick then [ 22; 50 ] else [ 22; 50; 100; 173 ] in
  planar
  @ List.map
      (fun n -> (Printf.sprintf "nonplanar-maxp-%d" n, maxplanar_swap_edge n))
      rejects
  @ List.map
      (fun s ->
        (Printf.sprintf "nonplanar-torus-%dx%d" s s, Gen.toroidal_grid s s))
      torus

(* The embedder's part installs --------------------------------------- *)

(* One [Embedder.run] per row, verified (planar, rotation genus 0) before
   it is timed: the run's wall and allocated words, the wall of its phase
   1 alone ([Proto.elect], the rest being the recursion and its
   installs), and how many parts the run installed over how many
   vertices in all. *)
type embed_case = {
  ename : string;
  en : int;
  em : int;
  embed_wall : float;
  embed_words : float;
  elect_wall : float;
  installs : int;
  install_vertices : int;
  rotation_ok : bool;
}

let embedder_cases quick =
  let all =
    [
      ("grid-40x40", fun () -> Gen.grid 40 40);
      ("maxplanar-2000", fun () -> Gen.random_maximal_planar ~seed:2042 2000);
      ( "outerplanar-5000",
        fun () -> Gen.random_outerplanar ~seed:5007 ~n:5000 ~chord_prob:0.5 );
      ("path-20k", fun () -> Gen.path 20000);
      ("star-20k", fun () -> Gen.star 20000);
    ]
  in
  if quick then List.filteri (fun i _ -> i < 2) all else all

let run_embed_case ~reps (name, make) =
  let g = make () in
  let config = Network.Config.with_domains 1 Network.Config.default in
  let o = Embedder.run ~config g in
  let rotation_ok =
    match o.Embedder.rotation with
    | Some r -> Rotation.is_planar_embedding r
    | None -> false
  in
  let embed_wall, embed_words =
    Harness.best_of ~reps (fun () -> Embedder.run ~config g)
  in
  let elect_wall, _ = Harness.best_of ~reps (fun () -> Proto.elect ~config g) in
  let r = o.Embedder.report in
  let c =
    {
      ename = name;
      en = Gr.n g;
      em = Gr.m g;
      embed_wall;
      embed_words;
      elect_wall;
      installs = r.Embedder.installs;
      install_vertices = r.Embedder.install_vertices;
      rotation_ok;
    }
  in
  Printf.printf
    "%-18s n=%-6d m=%-6d  embedder %8.4fs %11.0fw   elect %8.4fs   \
     installs %6d  sum|part| %8d (%.1f n)  %s\n%!"
    c.ename c.en c.em c.embed_wall c.embed_words c.elect_wall c.installs
    c.install_vertices
    (float_of_int c.install_vertices /. float_of_int c.en)
    (if c.rotation_ok then "ok" else "BAD ROTATION");
  c

(* JSON and driver ------------------------------------------------------ *)

let json_of_case (c : case) =
  Harness.(
    Obj
      [
        ("name", Str c.name); ("n", Int c.n); ("m", Int c.m);
        ("planar", Bool c.planar); ("lr_wall_s", secs c.lr_wall);
        ("dmp_wall_s", secs c.dmp_wall);
        ("wall_speedup", Num (2, c.dmp_wall /. max 1e-9 c.lr_wall));
        ("lr_alloc_words", Num (0, c.lr_words));
        ("dmp_alloc_words", Num (0, c.dmp_words));
        ("alloc_ratio", Num (2, c.dmp_words /. max 1. c.lr_words));
        ("warm_pairs_ns_per_edge", Num (1, c.warm_ns_per_edge));
        ("warm_pairs_words", Num (0, c.warm_words));
        ("agree", Bool c.agree); ("euler_ok", Bool c.euler_ok);
      ])

let json_of_embed_case c =
  Harness.(
    Obj
      [
        ("name", Str c.ename); ("n", Int c.en); ("m", Int c.em);
        ("embed_wall_s", secs c.embed_wall);
        ("embed_alloc_words", Num (0, c.embed_words));
        ("elect_wall_s", secs c.elect_wall); ("installs", Int c.installs);
        ("install_vertices", Int c.install_vertices);
        ("rotation_ok", Bool c.rotation_ok);
      ])

let () =
  let cli = Harness.args "kernels" ~out:"BENCH_kernels.json" in
  let reps = if cli.quick then 2 else 3 in
  Printf.printf
    "planarity kernels: left-right (production) vs DMP (oracle)%s\n\n"
    (if cli.quick then " [--quick]" else "");
  let results =
    List.map (fun (name, g) -> run_case ~reps name g) (cases cli.quick)
  in
  Printf.printf "\nembedder part installs (Embedder.run, one domain)\n\n";
  let embeds = List.map (run_embed_case ~reps) (embedder_cases cli.quick) in
  let verify_failure c =
    if not c.agree then Some "verdict disagreement"
    else if not c.euler_ok then Some "invalid rotation"
    else if String.starts_with ~prefix:"nonplanar-" c.name && c.planar then
      Some "a nonplanar row was accepted"
    else None
  in
  let failures =
    List.filter_map
      (fun c ->
        Option.map (Printf.sprintf "verification failed on %s (%s)" c.name)
          (verify_failure c))
      results
    @ List.filter_map
        (fun c ->
          if c.rotation_ok then None
          else Some (Printf.sprintf "embedder failed on %s" c.ename))
        embeds
    (* LR must never lose to DMP once the instance is non-trivial. *)
    @ List.filter_map
        (fun c ->
          if c.n >= 2000 && c.lr_wall > c.dmp_wall then
            Some
              (Printf.sprintf "LR slower than DMP on %s (%.4fs vs %.4fs)"
                 c.name c.lr_wall c.dmp_wall)
          else None)
        results
  in
  Harness.(
    finish cli
      (document "planarity-kernels-lr-vs-dmp"
         [
           ("unit", Obj [ ("wall", Str "seconds"); ("alloc", Str "words") ]);
           ("cases", List (List.map json_of_case results));
           ("embedder", List (List.map json_of_embed_case embeds));
         ])
      failures)
