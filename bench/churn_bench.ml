(* Churn-tier benchmark: incremental embedding maintenance versus
   from-scratch re-embedding under seeded insert/delete traces.

   Each case replays a within-pool trace (Churn.make, fresh_prob = 0, so
   no update is ever rejected) through Incremental and reports
   updates/sec, how many slow-path inserts a region decided and how many
   the whole scope, and the median and 99th percentile of the deciding
   kernel run's edges (the [Reembedded k] of each slow insert). The
   from-scratch baseline is sampled honestly rather than replayed: a
   handful of snapshots of the evolving edge set are re-embedded with
   Planarity.embed and the mean wall gives the cost a full re-run would
   pay per update ("scratch_sampled" records how many snapshots were
   timed). The final state is Euler-validated and the
   trace must produce zero rejections — a violation poisons the run.

     dune exec bench/churn_bench.exe              # full sweep, up to n = 100k
     dune exec bench/churn_bench.exe -- --quick   # CI smoke; exits 1 if the
                                            # incremental path is not
                                            # >= 5x from-scratch on the
                                            # insert-heavy grid at n>=10k
     dune exec bench/churn_bench.exe -- --out F   # write the JSON to F

   Results go to BENCH_churn.json and stdout. Everything here is
   single-threaded; the JSON records the host's core count ("cores")
   and the OCaml version so numbers can be compared across machines. *)

type case = {
  name : string;
  family : string;
  n : int;
  m_pool : int;
  updates : int;
  insert_pct : int;
  inc_wall : float;
  ups : float;
  scratch_wall : float;  (* mean from-scratch embed wall on snapshots *)
  scratch_sampled : int;
  speedup : float;
  fast : int;
  linked : int;
  reembedded : int;
  rejected : int;
  rescopes : int;
  regional : int;  (* slow inserts a region decided *)
  deciding_p50 : int;  (* edges of the deciding kernel run, median *)
  deciding_p99 : int;
  kernel_edges : int;
  face_steps : int;
  valid : bool;
}

(* Apply every op; returns the deciding kernel run's edge count of each
   slow-path insert, sorted. *)
let replay inc tr =
  let deciding = Array.make (Array.length tr.Churn.ops) 0 and k = ref 0 in
  Array.iter
    (function
      | Churn.Insert (u, v) -> (
          match Incremental.insert inc u v with
          | Incremental.Reembedded e ->
              deciding.(!k) <- e;
              incr k
          | _ -> ())
      | Churn.Delete (u, v) -> ignore (Incremental.delete inc u v))
    tr.Churn.ops;
  let d = Array.sub deciding 0 !k in
  Array.sort compare d;
  d

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) ((p * n + 99) / 100 - 1)))

let snapshot_walls tr samples =
  (* Edge sets at evenly spaced points of the trace, each embedded from
     scratch once. *)
  let n = tr.Churn.n in
  let present = Hashtbl.create 256 in
  let key u v = if u < v then (u * n) + v else (v * n) + u in
  List.iter
    (fun (u, v) -> Hashtbl.replace present (key u v) (u, v))
    tr.Churn.initial;
  let total = Array.length tr.Churn.ops in
  let marks =
    Array.init samples (fun i -> ((i + 1) * total / samples) - 1)
  in
  let walls = ref [] in
  let next = ref 0 in
  Array.iteri
    (fun i op ->
      (match op with
      | Churn.Insert (u, v) -> Hashtbl.replace present (key u v) (u, v)
      | Churn.Delete (u, v) -> Hashtbl.remove present (key u v));
      if !next < samples && i = marks.(!next) then begin
        incr next;
        let edges = Hashtbl.fold (fun _ e acc -> e :: acc) present [] in
        let g = Gr.of_edges ~n edges in
        match Harness.time (fun () -> Planarity.embed g) with
        | Planarity.Planar _, wall -> walls := wall :: !walls
        | Planarity.Nonplanar, _ ->
            prerr_endline "churn bench: within-pool snapshot not planar";
            exit 2
      end)
    tr.Churn.ops;
  !walls

let run_case ~samples name family insert_pct mk =
  (* The pool graph is built here, per case, and dropped with the case:
     keeping all sweep graphs live at once (~2 GB at the 100k tier)
     inflates every major-GC slice and was measurably poisoning the
     allocation-heavy incremental loop far more than the scratch
     baseline. *)
  let g = mk () in
  let n = Gr.n g and m_pool = Gr.m g in
  (* At the 100k tier a slow-path insert that no region decides
     re-embeds a block within a constant of the whole graph, so the
     worst per-update cost grows with n; cap the trace there to keep the
     full sweep's wall sane. *)
  let updates =
    max 2000 (min (m_pool / 2) (if n >= 50000 then 8000 else 20000))
  in
  let tr = Churn.make ~seed:(77 + n + insert_pct) ~updates ~insert_pct g in
  let g0 = Churn.initial_graph tr in
  let inc = Incremental.create g0 in
  let deciding, inc_wall = Harness.time (fun () -> replay inc tr) in
  let valid = Incremental.validate inc in
  let s = Incremental.stats inc in
  let walls = snapshot_walls tr samples in
  let scratch_wall =
    List.fold_left ( +. ) 0.0 walls /. float_of_int (max 1 (List.length walls))
  in
  let ups = float_of_int updates /. max 1e-9 inc_wall in
  let speedup = scratch_wall /. max 1e-9 (inc_wall /. float_of_int updates) in
  let c =
    {
      name;
      family;
      n;
      m_pool;
      updates;
      insert_pct;
      inc_wall;
      ups;
      scratch_wall;
      scratch_sampled = List.length walls;
      speedup;
      fast = s.Incremental.fast;
      linked = s.Incremental.linked;
      reembedded = s.Incremental.reembedded;
      rejected = s.Incremental.rejected;
      rescopes = s.Incremental.rescopes;
      regional = s.Incremental.regional;
      deciding_p50 = percentile deciding 50;
      deciding_p99 = percentile deciding 99;
      kernel_edges = s.Incremental.kernel_edges;
      face_steps = s.Incremental.face_steps;
      valid;
    }
  in
  Printf.printf
    "%-22s n=%-7d m=%-7d upd=%-6d %3d%%ins  %9.0f up/s  scratch %8.4fs/emb  \
     %7.1fx  fast=%-6d reemb=%-4d (region %-4d) decide p50/p99=%d/%d \
     resc=%-3d fsteps=%-8d %s\n\
     %!"
    c.name c.n c.m_pool c.updates c.insert_pct c.ups c.scratch_wall c.speedup
    c.fast c.reembedded c.regional c.deciding_p50 c.deciding_p99 c.rescopes
    c.face_steps
    (if c.valid && c.rejected = 0 then "ok" else "FAIL");
  c

(* Workloads ----------------------------------------------------------- *)

let cases quick =
  let mixes = if quick then [ 90 ] else [ 90; 50 ] in
  let grids = if quick then [ 100 ] else [ 50; 100; 224; 316 ] in
  let mps = if quick then [ 2000 ] else [ 2000; 20000; 100000 ] in
  let ops = if quick then [] else [ 2000; 20000; 100000 ] in
  List.concat
    [
      List.concat_map
        (fun s ->
          List.map
            (fun pct ->
              ( Printf.sprintf "grid-%dx%d-i%d" s s pct,
                "grid",
                pct,
                fun () -> Gen.grid s s ))
            mixes)
        grids;
      List.concat_map
        (fun n ->
          List.map
            (fun pct ->
              ( Printf.sprintf "maxplanar-%d-i%d" n pct,
                "maxplanar",
                pct,
                fun () -> Gen.random_maximal_planar ~seed:(42 + n) n ))
            mixes)
        mps;
      List.concat_map
        (fun n ->
          List.map
            (fun pct ->
              ( Printf.sprintf "outerplanar-%d-i%d" n pct,
                "outerplanar",
                pct,
                fun () -> Gen.random_outerplanar ~seed:(7 + n) ~n ~chord_prob:0.5 ))
            mixes)
        ops;
      (* Delete-heavy mixes. The grid's one block sheds a quarter of its
         edges at 25% inserts, too few to re-tighten its record; the
         outerplanar graph's many small blocks at 10% inserts rescope
         dozens of times. *)
      (if quick then []
       else
         [
           ("grid-100x100-i25", "grid", 25, fun () -> Gen.grid 100 100);
           ( "outerplanar-20000-i10",
             "outerplanar",
             10,
             fun () ->
               Gen.random_outerplanar ~seed:(7 + 20000) ~n:20000 ~chord_prob:0.5 );
         ]);
    ]

(* JSON and driver ------------------------------------------------------ *)

let json_of_case (c : case) =
  Harness.(
    Obj
      [
        ("name", Str c.name); ("family", Str c.family); ("n", Int c.n);
        ("m_pool", Int c.m_pool); ("updates", Int c.updates);
        ("insert_pct", Int c.insert_pct); ("inc_wall_s", secs c.inc_wall);
        ("updates_per_s", Num (0, c.ups));
        ("scratch_embed_wall_s", secs c.scratch_wall);
        ("scratch_sampled", Int c.scratch_sampled);
        ("speedup", Num (1, c.speedup)); ("fast", Int c.fast);
        ("linked", Int c.linked); ("reembedded", Int c.reembedded);
        ("rejected", Int c.rejected); ("rescopes", Int c.rescopes);
        ("region_decided", Int c.regional);
        ("scope_decided", Int (c.reembedded - c.regional));
        ("deciding_edges_p50", Int c.deciding_p50);
        ("deciding_edges_p99", Int c.deciding_p99);
        ("kernel_edges", Int c.kernel_edges); ("face_steps", Int c.face_steps);
        ("valid", Bool c.valid);
      ])

let () =
  let cli = Harness.args "churn" ~out:"BENCH_churn.json" in
  (* A larger minor heap for both sides of the comparison: the scope
     re-embeds and the scratch baseline are equally allocation-heavy,
     and the 256k-word default promotes half their short-lived arrays. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 22 };
  let samples = if cli.quick then 3 else 5 in
  Printf.printf
    "churn tier: incremental maintenance vs from-scratch embedding \
     (single-threaded)%s\n\n"
    (if cli.quick then " [--quick]" else "");
  let results =
    List.map
      (fun (name, family, pct, mk) -> run_case ~samples name family pct mk)
      (cases cli.quick)
  in
  let cores = Harness.cores in
  (* Gates: every final state Euler-valid, zero rejections on within-pool
     traces, and the incremental path at least 5x from-scratch on the
     insert-heavy grid at n >= 10k. The wall-clock gate is a
     same-machine ratio, but on a single-core runner both sides contend
     with everything else on the box and the ratio gets noisy — report
     it there without enforcing, same pattern as the scaling bench's
     skipped wall gates. *)
  if cores < 2 then
    Printf.printf
      "speedup gate skipped: only %d core(s) available, need >= 2\n" cores;
  let failures =
    List.concat_map
      (fun c ->
        (if (not c.valid) || c.rejected > 0 then
           [ Printf.sprintf "gate failed on %s (valid=%b rejected=%d)" c.name
               c.valid c.rejected ]
         else [])
        @
        if
          cores >= 2 && c.family = "grid" && c.n >= 10000
          && c.insert_pct >= 90 && c.speedup < 5.0
        then
          [ Printf.sprintf "speedup gate failed on %s (%.1fx < 5x)" c.name
              c.speedup ]
        else [])
      results
  in
  Harness.(
    finish cli
      (document "incremental-churn"
         [
           ( "unit",
             Obj [ ("wall", Str "seconds"); ("throughput", Str "updates/s") ] );
           ("threads", Int 1);
           ( "baseline",
             Str "from-scratch Planarity.embed on sampled snapshots" );
           ("cases", List (List.map json_of_case results));
         ])
      failures)
