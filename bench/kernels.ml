(* Planarity-kernel benchmark: the left-right production kernel (Lr)
   against the DMP oracle, wall-clock and allocated words per embed.

   Every case is verified before it is timed: both kernels run once,
   their verdicts must agree, and an accepted LR rotation must pass the
   genus-0 Euler check — a case that fails verification poisons the run
   (nonzero exit) and its timings are not reported.

     dune exec bench/kernels.exe              # full sweep, up to n=30000
     dune exec bench/kernels.exe -- --quick   # CI smoke: n<=2500 tier;
                                              # exit 1 on disagreement,
                                              # invalid rotation, or LR
                                              # slower than DMP at n>=2000
     dune exec bench/kernels.exe -- --out F   # write the JSON to F

   Results go to BENCH_kernels.json and stdout. Every kernel run is
   single-threaded — "cores": 1 is recorded so numbers are comparable
   across machines. *)

(* Words allocated so far on either heap. OCaml 5 folds minor-heap
   allocation into [quick_stat] only at a minor collection, so one is
   forced first; without it a small run reads as 0 words. *)
let words_now () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Best wall of [reps] runs (quietest machine moment), allocation from
   the first — allocation is deterministic per run. *)
let measure ~reps f =
  Gc.full_major ();
  let w0 = words_now () in
  ignore (f ());
  let w1 = words_now () in
  let best = ref infinity in
  for _ = 1 to reps do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    let t1 = Unix.gettimeofday () in
    if t1 -. t0 < !best then best := t1 -. t0
  done;
  (!best, w1 -. w0)

type case = {
  name : string;
  n : int;
  m : int;
  planar : bool;
  lr_wall : float;
  dmp_wall : float;
  lr_words : float;
  dmp_words : float;
  agree : bool;
  euler_ok : bool;
}

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
  let (lr_wall, lr_words) = measure ~reps (fun () -> Lr.embed g) in
  let (dmp_wall, dmp_words) = measure ~reps (fun () -> Dmp.embed g) in
  let c =
    { name; n; m; planar; lr_wall; dmp_wall; lr_words; dmp_words; agree;
      euler_ok }
  in
  Printf.printf
    "%-26s n=%-6d m=%-6d %-9s  lr %8.4fs %11.0fw   dmp %8.4fs %11.0fw   \
     %6.1fx wall %6.1fx words  %s\n%!"
    c.name c.n c.m
    (if c.planar then "planar" else "nonplanar")
    c.lr_wall c.lr_words c.dmp_wall c.dmp_words
    (c.dmp_wall /. max 1e-9 c.lr_wall)
    (c.dmp_words /. max 1. c.lr_words)
    (if c.agree && c.euler_ok then "ok"
     else if not c.agree then "DISAGREE"
     else "BAD ROTATION");
  c

(* Workloads ---------------------------------------------------------- *)

let maxplanar n = Gen.random_maximal_planar ~seed:(42 + n) n

(* A maximal planar graph with one edge {0, b} swapped for a chord
   {0, y} that crosses it: m = 3n - 6, so the [m > 3n - 6] pre-check
   cannot decide it and LR must walk into a constraint conflict. [y] is
   not a neighbor of 0, so it is not on the quadrilateral face that
   removing {0, b} opens — no face holds both 0 and y. DMP's verdict
   cross-checks the reject. *)
let maxplanar_swap_edge n =
  let g = maxplanar n in
  let b = (Gr.neighbors g 0).(0) in
  let y = ref 1 in
  while !y = b || Gr.mem_edge g 0 !y do
    incr y
  done;
  Gr.of_edges ~n
    ((0, !y) :: List.filter (fun e -> e <> (0, b)) (Gr.edges g))

let cases quick =
  let mp = if quick then [ 500; 2000 ] else [ 500; 2000; 8000; 30000 ] in
  (* No grid-173: DMP needs more than 8 GB there (1.5 GB of top heap
     already at grid-100), so the committed sweep omits that row. *)
  let gr = if quick then [ 22; 50 ] else [ 22; 50; 100 ] in
  let op = if quick then [ 500; 2000 ] else [ 500; 2000; 8000; 30000 ] in
  let k4 = if quick then [ 80; 333 ] else [ 80; 333; 1333; 5000 ] in
  let rejects = if quick then [ 500; 2000 ] else [ 500; 2000; 8000; 30000 ] in
  (* Like the swapped-edge rows, toroidal grids reject with m <= 3n-6
     (here m = 2n), so LR cannot shortcut on the edge count. *)
  let torus = if quick then [ 22; 50 ] else [ 22; 50; 100; 173 ] in
  List.concat
    [
      List.map
        (fun n -> (Printf.sprintf "maxplanar-%d" n, maxplanar n))
        mp;
      List.map (fun s -> (Printf.sprintf "grid-%dx%d" s s, Gen.grid s s)) gr;
      List.map
        (fun n ->
          ( Printf.sprintf "outerplanar-%d" n,
            Gen.random_outerplanar ~seed:(7 + n) ~n ~chord_prob:0.5 ))
        op;
      List.map
        (fun s -> (Printf.sprintf "k4-subdiv-%d" s, Gen.k4_subdivision s))
        k4;
      List.map
        (fun n -> (Printf.sprintf "nonplanar-maxp-%d" n, maxplanar_swap_edge n))
        rejects;
      List.map
        (fun s ->
          (Printf.sprintf "nonplanar-torus-%dx%d" s s, Gen.toroidal_grid s s))
        torus;
    ]

(* JSON ---------------------------------------------------------------- *)

let json_of_cases cases =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmark\": \"planarity-kernels-lr-vs-dmp\",\n";
  Buffer.add_string b "  \"unit\": { \"wall\": \"seconds\", \"alloc\": \"words\" },\n";
  Buffer.add_string b "  \"cores\": 1,\n";
  Buffer.add_string b "  \"cases\": [\n";
  List.iteri
    (fun i c ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"name\": %S, \"n\": %d, \"m\": %d, \"planar\": %b,\n\
           \      \"lr_wall_s\": %.6f, \"dmp_wall_s\": %.6f, \
            \"wall_speedup\": %.2f,\n\
           \      \"lr_alloc_words\": %.0f, \"dmp_alloc_words\": %.0f, \
            \"alloc_ratio\": %.2f,\n\
           \      \"agree\": %b, \"euler_ok\": %b }%s\n"
           c.name c.n c.m c.planar c.lr_wall c.dmp_wall
           (c.dmp_wall /. max 1e-9 c.lr_wall)
           c.lr_words c.dmp_words
           (c.dmp_words /. max 1. c.lr_words)
           c.agree c.euler_ok
           (if i = List.length cases - 1 then "" else ",")))
    cases;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

(* Driver -------------------------------------------------------------- *)

let () =
  let quick = ref false in
  let out = ref "BENCH_kernels.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--out" :: file :: rest ->
        out := file;
        parse rest
    | [ "--out" ] ->
        prerr_endline "kernels: --out expects a file name";
        exit 2
    | arg :: _ ->
        Printf.eprintf "kernels: unknown argument %s\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let reps = if !quick then 2 else 3 in
  Printf.printf
    "planarity kernels: left-right (production) vs DMP (oracle)%s\n\n"
    (if !quick then " [--quick]" else "");
  let results = List.map (fun (name, g) -> run_case ~reps name g) (cases !quick) in
  let oc = open_out !out in
  output_string oc (json_of_cases results);
  close_out oc;
  Printf.printf "\nwrote %s\n" !out;
  let bad_verify =
    List.filter
      (fun c ->
        (not c.agree) || (not c.euler_ok)
        || (String.starts_with ~prefix:"nonplanar-" c.name && c.planar))
      results
  in
  let bad_speed =
    (* LR must never lose to DMP once the instance is non-trivial. *)
    List.filter (fun c -> c.n >= 2000 && c.lr_wall > c.dmp_wall) results
  in
  List.iter
    (fun c ->
      Printf.eprintf "kernels: verification failed on %s (%s)\n" c.name
        (if not c.agree then "verdict disagreement"
         else if not c.euler_ok then "invalid rotation"
         else "a nonplanar row was accepted"))
    bad_verify;
  List.iter
    (fun c ->
      Printf.eprintf "kernels: LR slower than DMP on %s (%.4fs vs %.4fs)\n"
        c.name c.lr_wall c.dmp_wall)
    bad_speed;
  if bad_verify <> [] || bad_speed <> [] then exit 1
