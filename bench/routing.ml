(* Routing-tier benchmark: query throughput and stretch versus n across
   the generator families, with the routing layer split into greedy and
   face-recovery hops and the words the serial batch allocates per hop,
   and the build split into its three layers (Triangulate.make,
   Schnyder.of_triangulation, Route.make; median of 5 runs each, and
   build_wall_s is their sum).

   Every case is validated before it is timed: the Schnyder drawing must
   lie on the grid with distinct points (plus the exhaustive O(m²)
   no-crossing oracle on small cases), and every sampled query must be
   Delivered — a single Stuck outcome poisons the run (nonzero exit).
   Stretch (hops / BFS distance) is computed outside the timed region.

     dune exec bench/routing.exe              # full sweep, up to n=30000
     dune exec bench/routing.exe -- --quick   # CI smoke: small tier,
                                              # exit 1 on any gate
     dune exec bench/routing.exe -- --out F   # write the JSON to F

   Serial throughput (qps_serial) is the best of 5 timed batches, in
   --quick too (the best of 2 read the same code up to 1.4x apart on
   grid-50x50); the first gives the statistics and the last the words
   per hop. Pooled throughput is the best of 2 (--quick) or 3 batches
   after a warm-up, on Pool.default_jobs domains (each case's "jobs").
   Results go to BENCH_routing.json and stdout; the
   "cores" field records what this machine actually had, so
   cross-machine numbers are not comparable unless it matches. *)

type case = {
  name : string;
  n : int;
  m : int;
  grid_side : int;
  virtual_edges : int;
  build_wall : float;
  triangulate_wall : float;
  schnyder_wall : float;
  route_make_wall : float;
  queries : int;
  delivered : int;
  unreachable : int;
  stuck : int;
  qps_serial : float;
  qps_pooled : float;
  jobs : int;
  mean_stretch : float;
  max_stretch : float;
  mean_hops : float;
  greedy_hops : int;
  face_hops : int;
  words_per_hop : float;
  recoveries : int;
  drawing_ok : bool;
}

let serial_reps = 5

let run_case ~reps ~jobs name g =
  let n = Gr.n g and m = Gr.m g in
  let r =
    match Planarity.embed g with
    | Planarity.Planar r -> r
    | Planarity.Nonplanar ->
        Printf.eprintf "routing bench: %s is not planar\n" name;
        exit 2
  in
  let layer f = Harness.median_of ~reps:5 f in
  let tri, triangulate_wall = layer (fun () -> Triangulate.make r) in
  let sch, schnyder_wall = layer (fun () -> Schnyder.of_triangulation tri) in
  let engine, route_make_wall = layer (fun () -> Route.make sch) in
  let build_wall = triangulate_wall +. schnyder_wall +. route_make_wall in
  (* Drawing gate before any timing. *)
  let x, y = Schnyder.coords sch in
  let drawing_ok =
    Drawing.within_grid ~x ~y ~side:(Schnyder.grid_side sch)
    && Drawing.distinct ~x ~y
    && (m > 3000 || Drawing.first_crossing g ~x ~y = None)
  in
  let queries = min 2000 (4 * n) in
  let rng = Random.State.make [| 1009; n |] in
  let pairs =
    Array.init queries (fun _ ->
        (Random.State.int rng n, Random.State.int rng n))
  in
  (* Five timed serial batches: the first one's outcomes feed the
     statistics, and the words are a later (warm) one's. *)
  let batch () = Route.route_batch engine pairs in
  let outs, first_wall, _ = Harness.counted batch in
  let delivered = ref 0 and unreachable = ref 0 and stuck = ref 0 in
  let hops_total = ref 0 and recoveries = ref 0 in
  let greedy_hops = ref 0 and face_hops = ref 0 in
  let sum_stretch = ref 0.0 and max_stretch = ref 0.0 and n_stretch = ref 0 in
  (* The BFS distance of one pair: a search from [s] that stops once it
     reaches [d], in two reused arrays ([seen] is back to -1 after). *)
  let rg = Route.graph engine in
  let offsets = Gr.dart_offsets rg and adj = Gr.dart_sources rg in
  let seen = Array.make (Gr.n rg) (-1) and queue = Array.make (Gr.n rg) 0 in
  let dist s d =
    seen.(s) <- 0;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail && seen.(d) < 0 do
      let u = queue.(!head) in
      incr head;
      for i = offsets.(u) to offsets.(u + 1) - 1 do
        let w = adj.(i) in
        if seen.(w) < 0 then begin
          seen.(w) <- seen.(u) + 1;
          queue.(!tail) <- w;
          incr tail
        end
      done
    done;
    let r = seen.(d) in
    for i = 0 to !tail - 1 do
      seen.(queue.(i)) <- -1
    done;
    r
  in
  Array.iteri
    (fun i o ->
      let s, d = pairs.(i) in
      match o with
      | Route.Delivered { hops; recoveries = rc; greedy_hops = gh; face_hops = fh; _ }
        ->
          incr delivered;
          hops_total := !hops_total + hops;
          greedy_hops := !greedy_hops + gh;
          face_hops := !face_hops + fh;
          recoveries := !recoveries + rc;
          if hops > 0 then begin
            let bfs = dist s d in
            if bfs > 0 then begin
              let st = float_of_int hops /. float_of_int bfs in
              sum_stretch := !sum_stretch +. st;
              incr n_stretch;
              if st > !max_stretch then max_stretch := st
            end
          end
      | Route.Unreachable -> incr unreachable
      | Route.Stuck _ -> incr stuck)
    outs;
  let qps_serial, words =
    let best = ref first_wall and words = ref 0. in
    for _ = 2 to serial_reps do
      let _, wall, w = Harness.counted batch in
      best := Float.min !best wall;
      words := w
    done;
    (float_of_int queries /. max 1e-9 !best, !words)
  in
  let pool = Pool.create ~domains:jobs () in
  let qps_pooled =
    let w, _ =
      Harness.best_of ~reps (fun () -> Route.route_batch ~pool engine pairs)
    in
    float_of_int queries /. max 1e-9 w
  in
  Pool.shutdown pool;
  let c =
    {
      name;
      n;
      m;
      grid_side = Schnyder.grid_side sch;
      virtual_edges = Triangulate.virtual_count (Schnyder.triangulation sch);
      build_wall;
      triangulate_wall;
      schnyder_wall;
      route_make_wall;
      queries;
      delivered = !delivered;
      unreachable = !unreachable;
      stuck = !stuck;
      qps_serial;
      qps_pooled;
      jobs;
      mean_stretch = !sum_stretch /. float_of_int (max 1 !n_stretch);
      max_stretch = !max_stretch;
      mean_hops = float_of_int !hops_total /. float_of_int (max 1 !delivered);
      greedy_hops = !greedy_hops;
      face_hops = !face_hops;
      words_per_hop = words /. float_of_int (max 1 !hops_total);
      recoveries = !recoveries;
      drawing_ok;
    }
  in
  Printf.printf
    "%-18s n=%-6d m=%-6d build %7.3fs (tri %.3f + schnyder %.3f + make \
     %.3f)  q=%-5d del=%-5d stuck=%d  %9.0f q/s \
     serial %9.0f q/s x%d  stretch %5.2f (max %7.2f)  hops %d greedy + %d \
     face  %.2f words/hop  %s\n\
     %!"
    c.name c.n c.m c.build_wall c.triangulate_wall c.schnyder_wall
    c.route_make_wall c.queries c.delivered c.stuck c.qps_serial
    c.qps_pooled c.jobs c.mean_stretch c.max_stretch c.greedy_hops c.face_hops
    c.words_per_hop
    (if c.stuck = 0 && c.drawing_ok then "ok" else "FAIL");
  c

(* JSON and driver ------------------------------------------------------ *)

let json_of_case (c : case) =
  Harness.(
    Obj
      [
        ("name", Str c.name); ("n", Int c.n); ("m", Int c.m);
        ("grid_side", Int c.grid_side); ("virtual_edges", Int c.virtual_edges);
        ("build_wall_s", secs c.build_wall);
        ("triangulate_s", secs c.triangulate_wall);
        ("schnyder_s", secs c.schnyder_wall);
        ("route_make_s", secs c.route_make_wall); ("queries", Int c.queries);
        ("delivered", Int c.delivered); ("unreachable", Int c.unreachable);
        ("stuck", Int c.stuck); ("qps_serial", Num (0, c.qps_serial));
        ("qps_pooled", Num (0, c.qps_pooled)); ("jobs", Int c.jobs);
        ("mean_stretch", Num (3, c.mean_stretch));
        ("max_stretch", Num (2, c.max_stretch));
        ("mean_hops", Num (2, c.mean_hops));
        ("greedy_hops", Int c.greedy_hops); ("face_hops", Int c.face_hops);
        ("words_per_hop", Num (2, c.words_per_hop));
        ("recoveries", Int c.recoveries);
        ("drawing_ok", Bool c.drawing_ok);
      ])

let () =
  let cli = Harness.args "routing" ~out:"BENCH_routing.json" in
  let reps = if cli.quick then 2 else 3 in
  let jobs = Pool.default_jobs () in
  Printf.printf
    "routing tier: Schnyder drawing + greedy-face-greedy queries (%d \
     domains)%s\n\n"
    jobs
    (if cli.quick then " [--quick]" else "");
  let results =
    List.map
      (fun (name, g) -> run_case ~reps ~jobs name g)
      (Harness.planar_families cli.quick)
  in
  (* Gates: a single stuck query, an invalid drawing, or an undelivered
     same-component pair poisons the run. *)
  let failures =
    List.filter_map
      (fun c ->
        if
          c.stuck > 0 || (not c.drawing_ok)
          || c.delivered + c.unreachable <> c.queries
        then
          Some
            (Printf.sprintf
               "gate failed on %s (delivered=%d/%d stuck=%d drawing_ok=%b)"
               c.name c.delivered c.queries c.stuck c.drawing_ok)
        else None)
      results
  in
  Harness.(
    finish cli
      (document "routing-throughput-stretch"
         [
           ( "unit",
             Obj [ ("wall", Str "seconds"); ("throughput", Str "queries/s") ] );
           ("cases", List (List.map json_of_case results));
         ])
      failures)
