(* The end-to-end pipeline benchmark.

   One closed-loop client in one process runs the whole chain a user of
   the repository waits on, each call starting when the previous one
   returns:

     setup    generate the graph, the churn trace and the query pairs,
              then Incremental.create on the trace's initial graph
     embed    Embedder.run (the distributed algorithm of Theorem 1.1)
     certify  Certify.prove, then one Certify.verify round
     draw     Triangulate.make, Schnyder.of_triangulation, Route.make
     route    Route.route_batch over the query pairs
     replay   Churn.apply for every update of the trace, each timed alone
     reroute  Incremental.rotation, Schnyder.draw, Route.make

   The bench times calls into the public library functions from outside
   with the monotonic clock; nothing inside the libraries is changed.
   Every output is checked outside the timed regions, and a failed check
   counts against the run and makes it exit non-zero. A run is one
   untimed warm-up rep, then timed reps for --seconds (at least three),
   then with --trace 1 one rep with spans recorded. Each end-to-end time
   is the median over the timed reps, at the reference speed of Host.

     bash bench/pipeline/run.sh --workload grid --seed 1 --seconds 36
     bash bench/pipeline/run.sh --workload grid --trace 1 --trace-file t.json
     dune exec bench/pipeline/pipeline.exe -- --selftest

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1]. README.md in this
   directory defines every metric. *)

let now_ns = Span.now_ns
let since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* ---- workloads ---------------------------------------------------------- *)

type family = Grid of int | Maxplanar of int | Outerplanar of int

type workload = {
  name : string;
  family : family;
  parallel : bool;  (** run the engine on [min 2 cores] domains *)
  updates : int;
  queries : int;
}

(* Why each workload exists is recorded in README.md and BENCHMARK.json:
   grid puts the engine's many high-diameter rounds on the sequential
   path, maxplanar is low-diameter and kernel-heavy, runs the sharded
   engine and re-embeds whole blocks under churn, and outerplanar's
   churned pool splits into many components. *)
let workloads ~quick =
  let size full small = if quick then small else full in
  let updates full = if quick then 300 else full in
  let queries = if quick then 2000 else 5000 in
  [
    {
      name = "grid";
      family = Grid (size 40 30);
      parallel = false;
      updates = updates 1000;
      queries;
    };
    {
      name = "maxplanar";
      family = Maxplanar 2000;
      parallel = true;
      updates = updates 1000;
      queries;
    };
    {
      name = "outerplanar";
      family = Outerplanar (size 5000 3000);
      parallel = false;
      updates = updates 1500;
      queries;
    };
  ]

let cores = Domain.recommended_domain_count ()
let domains w = if w.parallel then min 2 cores else 1

(* --seed draws the query pairs. The graph and the churn trace are one
   fixed instance per workload: churn cost is heavy-tailed in the trace (a
   few scoped re-embeds of large blocks dominate, so one 2,000-update
   outerplanar trace replays in 10 ms and another in 113 ms), and random
   graphs of one family and size differ by up to 2x in route cost.
   Seed-drawn instances would make the run-to-run spread measure the
   instance rather than the code. Every rep of a run gets the same inputs,
   so every rep does the same work, GC included. *)
let instance_seed = 1

(* ---- inputs ------------------------------------------------------------- *)

type inputs = {
  g : Gr.t;
  trace : Churn.trace;
  pairs : (int * int) array;
  inc : Incremental.t;
}

(* [k] pairs of distinct vertices of an [n]-vertex graph, from the random
   stream [key]. *)
let random_pairs key n k =
  let rng = Random.State.make key in
  Array.init k (fun _ ->
      let s = Random.State.int rng n in
      let rec dst () =
        let d = Random.State.int rng n in
        if d = s then dst () else d
      in
      (s, dst ()))

let generate w ~seed =
  let g =
    Span.call "graph" "Gen" (fun () ->
        match w.family with
        | Grid k -> Gen.grid k k
        | Maxplanar n -> Gen.random_maximal_planar ~seed:instance_seed n
        | Outerplanar n ->
            Gen.random_outerplanar ~seed:instance_seed ~n
              ~chord_prob:0.5)
  in
  let trace =
    Span.call "incremental" "Churn.make" (fun () ->
        Churn.make ~seed:instance_seed ~updates:w.updates
          ~insert_pct:50 ~hold:0.3 ~fresh_prob:0. g)
  in
  let pairs = random_pairs [| seed; 0x7175 |] (Gr.n g) w.queries in
  let inc =
    Span.call "incremental" "Incremental.create" (fun () ->
        Incremental.create (Churn.initial_graph trace))
  in
  { g; trace; pairs; inc }

let fingerprint i =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (Gr.edges i.g, i.trace.Churn.ops, i.pairs) []))

(* ---- checks ------------------------------------------------------------- *)

(* Outputs are checked outside every timed region. Each [check] covers one
   attempted operation and counts it as failed when it does not hold. *)
type tally = { mutable attempted : int; mutable failed : int; mutable why : string list }

let tally = { attempted = 0; failed = 0; why = [] }

let check ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if List.length tally.why < 20 then tally.why <- what :: tally.why
  end

(* Component labels by the bench's own BFS, independent of the library. *)
let component_ids g =
  let n = Gr.n g in
  let comp = Array.make n (-1) in
  let queue = Array.make (max 1 n) 0 in
  let c = ref 0 in
  for s = 0 to n - 1 do
    if comp.(s) < 0 then begin
      comp.(s) <- !c;
      queue.(0) <- s;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let v = queue.(!head) in
        incr head;
        Gr.iter_neighbors g v (fun u ->
            if comp.(u) < 0 then begin
              comp.(u) <- !c;
              queue.(!tail) <- u;
              incr tail
            end)
      done;
      incr c
    end
  done;
  (comp, !c)

let route_ok g comp (s, d) = function
  | Route.Delivered { path; hops; _ } ->
      let rec walk = function
        | a :: (b :: _ as rest) -> Gr.mem_edge g a b && walk rest
        | [ last ] -> last = d
        | [] -> false
      in
      comp.(s) = comp.(d)
      && (match path with first :: _ -> first = s | [] -> false)
      && walk path
      && hops = List.length path - 1
  | Route.Unreachable -> comp.(s) <> comp.(d)
  | Route.Stuck _ -> false

let check_routes label g pairs outs =
  let comp, _ = component_ids g in
  Array.iteri
    (fun i o -> check (route_ok g comp pairs.(i) o) (label ^ ": bad route"))
    outs

let check_drawing label sch =
  let x, y = Schnyder.coords sch in
  let tri = Triangulate.rotation (Schnyder.triangulation sch) in
  check
    (Drawing.within_grid ~x ~y ~side:(Schnyder.grid_side sch)
    && Drawing.distinct ~x ~y
    && Drawing.valid_triangulation_drawing tri ~x ~y)
    (label ^ ": invalid drawing")

(* The edge set the trace must leave behind, replayed on a plain table. *)
let expected_edges (tr : Churn.trace) =
  let key u v = if u < v then (u, v) else (v, u) in
  let tbl = Hashtbl.create (2 * List.length tr.initial) in
  List.iter (fun (u, v) -> Hashtbl.replace tbl (key u v) ()) tr.initial;
  Array.iter
    (function
      | Churn.Insert (u, v) -> Hashtbl.replace tbl (key u v) ()
      | Churn.Delete (u, v) -> Hashtbl.remove tbl (key u v))
    tr.ops;
  tbl

(* ---- one rep of the chain ----------------------------------------------- *)

let stage_names = [| "embed"; "certify"; "draw"; "route"; "replay"; "reroute" |]

type timing = {
  host_s : float array;  (** the Host samples taken before each step *)
  setup_s : float;
  stage_s : float array;  (** indexed like [stage_names] *)
  insert_ns : float array;
  delete_ns : float array;
  route_us : float array;  (** single Route.route calls *)
  verify_ms : float array;  (** re-verifications of the certificates *)
}

(* What one rep measured, and the outputs the traced rep reads. Timed reps
   keep only their timing, so the heap the run reports is one rep's working
   set. *)
type rep = {
  timing : timing;
  inputs : inputs;
  report : Embedder.report;
  certs : Certify.t;
  drawing : Schnyder.t;
  outs : Route.outcome array;
  after : Rotation.t;
  engine_after : Route.t;
}

(* Each rep times as many single route calls as the batch has pairs, and
   re-verifies the certificates [reverify] times. Rep [index] draws its
   own single-call pairs from --seed, so a run's route percentiles cover
   many more pairs than one batch. Every workload replays at least 1,000
   updates per rep, so each rep's update p99 has at least 10 samples
   beyond it. *)
let reverify = 7

(* Certify, draw, route and reroute take milliseconds on these inputs,
   where one timing is mostly host jitter, so a timed rep runs each of them
   [short_times] times and keeps the median. The calls are pure. *)
let short_times = 3

(* Every step starts from a fully collected heap, after a Host sample, so
   each step pays only for its own garbage and every sample sees the same
   heap. *)
let host = ref []
let boundary () = host := Host.sample () :: !host

let stage ?(times = 1) i f =
  boundary ();
  Span.call "bench" stage_names.(i) (fun () ->
      let ts = Array.make times 0. in
      let v = ref None in
      for k = 0 to times - 1 do
        v := None;
        let t0 = now_ns () in
        v := Some (f ());
        ts.(k) <- since t0
      done;
      (Option.get !v, Stats.median ts))

let rep ?(check_after = 2000) ?(times = short_times) ?(index = 0) w ~seed =
  host := [];
  boundary ();
  let t0 = now_ns () in
  let inputs = Span.call "bench" "setup" (fun () -> generate w ~seed) in
  let setup_s = since t0 in
  let g = inputs.g in
  (* Only the embedder runs on the workload's domains. Certification is
     one CONGEST round, and on two domains its time was mostly the wake-up
     of the parked worker: 15 or 55 ms per verification on the same inputs,
     depending on the shared host. It runs on one domain everywhere. *)
  let config = Network.Config.default |> Network.Config.with_domains (domains w) in
  let o, embed_s =
    stage 0 (fun () ->
        Span.call "embedder" "Embedder.run" (fun () -> Embedder.run ~config g))
  in
  let rot =
    match o.Embedder.rotation with
    | Some r -> r
    | None -> failwith "the embedder rejected a planar input"
  in
  let (certs, verified), certify_s =
    stage ~times 1 (fun () ->
        let certs = Span.call "certify" "Certify.prove" (fun () -> Certify.prove rot) in
        let v =
          Span.call "congest" "Certify.verify" (fun () ->
              Certify.verify rot certs)
        in
        (certs, v))
  in
  let (drawing, engine), draw_s =
    stage ~times 2 (fun () ->
        let tri = Span.call "geometry" "Triangulate.make" (fun () -> Triangulate.make rot) in
        let sch =
          Span.call "geometry" "Schnyder.of_triangulation" (fun () ->
              Schnyder.of_triangulation tri)
        in
        (sch, Span.call "geometry" "Route.make" (fun () -> Route.make sch)))
  in
  let outs, route_s =
    stage ~times 3 (fun () ->
        Span.call "geometry" "Route.route_batch" (fun () ->
            Route.route_batch engine inputs.pairs))
  in
  let ops = inputs.trace.Churn.ops in
  let inc = inputs.inc in
  let st = Incremental.stats inc in
  let lat = Array.make (Array.length ops) 0. in
  let bad = Array.make (Array.length ops) false in
  let (), replay_s =
    stage 4 (fun () ->
        Span.call "incremental" "Churn.apply" (fun () ->
            Array.iteri
              (fun i op ->
                let refused = st.rejected + st.duplicates + st.missing in
                let t = now_ns () in
                Churn.apply inc op;
                lat.(i) <- Int64.to_float (Int64.sub (now_ns ()) t);
                bad.(i) <- st.rejected + st.duplicates + st.missing <> refused)
              ops;
            Span.count "calls" (float_of_int (Array.length ops))))
  in
  let (after, engine_after), reroute_s =
    stage ~times 5 (fun () ->
        let r =
          Span.call "incremental" "Incremental.rotation" (fun () ->
              Incremental.rotation inc)
        in
        let sch = Span.call "geometry" "Schnyder.draw" (fun () -> Schnyder.draw r) in
        (r, Span.call "geometry" "Route.make" (fun () -> Route.make sch)))
  in

  (* Checks, all outside the timed stages. *)
  check
    (Gr.m (Rotation.graph rot) = Gr.m g && Rotation.genus rot = 0)
    "embed: rotation is not a planar embedding of the input";
  check
    (verified.Certify.all_accept && verified.Certify.rounds <= 1)
    "certify: verification rejected or took more than one round";
  check_drawing "draw" drawing;
  check_routes "route" g inputs.pairs outs;
  Array.iter (fun b -> check (not b) "replay: update rejected or refused") bad;
  let want = expected_edges inputs.trace in
  check
    (Incremental.validate inc
    && Incremental.m inc = Hashtbl.length want
    && Hashtbl.fold (fun (u, v) () ok -> ok && Incremental.mem inc u v) want true)
    "replay: maintained embedding invalid or edge set wrong";
  check_drawing "reroute" (Route.schnyder engine_after);
  let k = min check_after (Array.length inputs.pairs) in
  let sample = Array.sub inputs.pairs 0 k in
  check_routes "reroute" (Rotation.graph after) sample
    (Route.route_batch engine_after sample);
  (* Latency samples are spread over every rep, so a transient slowdown
     of the host moves a few of them rather than all. *)
  let comp, _ = component_ids g in
  boundary ();
  let route_us =
    Span.call "geometry" "Route.route" (fun () ->
        let singles = random_pairs [| seed; 0x5167; index |] (Gr.n g) w.queries in
        Span.count "calls" (float_of_int w.queries);
        Array.map
          (fun (s, d) ->
            let t = now_ns () in
            let o = Route.route engine s d in
            let us = Int64.to_float (Int64.sub (now_ns ()) t) /. 1e3 in
            check (route_ok g comp (s, d) o) "route: bad single-query route";
            us)
          singles)
  in
  boundary ();
  let verify_ms =
    Span.call "congest" "Certify.verify(again)" (fun () ->
        Span.count "calls" (float_of_int reverify);
        Array.init reverify (fun _ ->
            let t = now_ns () in
            let v = Certify.verify rot certs in
            let ms = since t *. 1e3 in
            check v.Certify.all_accept "verify: re-verification rejected";
            ms))
  in
  let kind_ns want_insert =
    let l = ref [] in
    Array.iteri
      (fun i op ->
        match op with
        | Churn.Insert _ when want_insert -> l := lat.(i) :: !l
        | Churn.Delete _ when not want_insert -> l := lat.(i) :: !l
        | _ -> ())
      ops;
    Array.of_list !l
  in
  {
    timing =
      {
        host_s = Array.of_list (List.rev !host);
        setup_s;
        stage_s = [| embed_s; certify_s; draw_s; route_s; replay_s; reroute_s |];
        insert_ns = kind_ns true;
        delete_ns = kind_ns false;
        route_us;
        verify_ms;
      };
    inputs;
    report = o.Embedder.report;
    certs;
    drawing;
    outs;
    after;
    engine_after;
  }

(* ---- metrics ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let m name unit_ ?(samples = 1) value = { name; value; unit_; samples }
let sum a = Array.fold_left ( +. ) 0. a

type measured = {
  fingerprint : string;  (** of the inputs every rep of the run used *)
  n : int;
  m : int;
  reps : timing array;
  speed : float array;  (** per rep: raw times are multiplied by this *)
  median_rep : int;  (** the rep whose scaled stage sum is pipeline_s *)
  end_to_end : metric list;
}

(* Every rep does the same work on the same inputs. Rep [i]'s raw times
   are scaled to reference speed by [speed.(i)], the reference over the
   median of the Host samples taken during the rep, and each end-to-end
   time is the median over reps of its scaled value. A statistic of single
   calls is taken within each rep first. Pooled across reps of different
   speeds, the tail filled up with the calls of the reps scaled up most:
   over ten grid runs the pooled, scaled update p99 spread 0.13, while the
   same calls unscaled spread 0.03. *)
let speed_of r = Host.reference_s /. Stats.median r.host_s
let update_us r = Array.map (fun ns -> ns /. 1e3) (Array.append r.insert_ns r.delete_ns)

(* The statistics of one rep's single calls, raw: name, value and the
   number of calls behind it. *)
let call_stats r =
  let stat name f calls = (name, f calls, Array.length calls) in
  [
    stat "verify_ms" Stats.median r.verify_ms;
    stat "route_p50_us" (Stats.percentile 50.) r.route_us;
    stat "route_p99_us" (Stats.percentile 99.) r.route_us;
    stat "update_p50_us" (Stats.percentile 50.) (update_us r);
    stat "update_p99_us" (Stats.percentile 99.) (update_us r);
  ]

let end_to_end (w : workload) (reps : timing array) (speed : float array) ~top_heap_mb =
  let k = Array.length reps in
  let med f = Stats.median (Array.mapi (fun i r -> f r *. speed.(i)) reps) in
  let per_call name unit_ =
    let pick r = List.find (fun (n, _, _) -> n = name) (call_stats r) in
    let _, _, samples = pick reps.(0) in
    m name unit_ ~samples (med (fun r -> let _, v, _ = pick r in v))
  in
  let stage i = med (fun r -> r.stage_s.(i)) in
  let pipeline = med (fun r -> sum r.stage_s) in
  let median_rep = ref 0 in
  Array.iteri (fun i r -> if sum r.stage_s *. speed.(i) = pipeline then median_rep := i) reps;
  ( !median_rep,
    [
      m "setup_s" "s" ~samples:k (med (fun r -> r.setup_s));
      m "pipeline_s" "s" ~samples:k pipeline;
      m "embed_s" "s" ~samples:k (stage 0);
      m "certify_s" "s" ~samples:k (stage 1);
      per_call "verify_ms" "ms";
      m "draw_s" "s" ~samples:k (stage 2);
      m "route_qps" "queries/s" ~samples:k (float_of_int w.queries /. stage 3);
      per_call "route_p50_us" "us";
      per_call "route_p99_us" "us";
      m "churn_ups" "updates/s" ~samples:k (float_of_int w.updates /. stage 4);
      per_call "update_p50_us" "us";
      per_call "update_p99_us" "us";
      m "reroute_s" "s" ~samples:k (stage 5);
      m "top_heap_mb" "MB" top_heap_mb;
    ] )

(* The per-layer numbers come from one extra, traced rep: every call into
   a layer is a span, GC counters are read at every span boundary, and a
   few calls are made only here (the phase-1 replay, a from-scratch
   Planarity.embed, the post-churn genus and components). *)
let per_layer (w : workload) seed (reps : timing array) ~untraced_s =
  Span.enable ~run:(Printf.sprintf "%s-seed%d" w.name seed);
  let r = rep ~check_after:max_int ~times:1 w ~seed in
  let g = r.inputs.g in
  let config = Network.Config.default |> Network.Config.with_domains (domains w) in
  let word = Part.word g in
  Span.call "bench" "phase1-replay" (fun () ->
      let states =
        Span.call "congest" "Proto.leader_bfs" (fun () -> Proto.leader_bfs ~config g)
      in
      let root = states.(0).Proto.leader in
      let parent = Array.map (fun s -> s.Proto.parent) states in
      Span.call "congest" "Proto.convergecast" (fun () ->
          ignore
            (Proto.convergecast ~config g ~parent ~root
               ~values:(Array.make (Gr.n g) 1) ~op:( + ) ~value_bits:word)));
  let planar_ok =
    Span.call "planarity" "Planarity.embed" (fun () ->
        match Planarity.embed g with Planarity.Planar _ -> true | Planarity.Nonplanar -> false)
  in
  check planar_ok "planarity: workload graph rejected";
  let genus =
    Span.call "graph" "Rotation.genus" (fun () -> Rotation.genus r.after)
  in
  check (genus = 0) "reroute: post-churn rotation has nonzero genus";
  let ncomp =
    Span.call "graph" "Traverse.components" (fun () ->
        List.length (Traverse.components (Rotation.graph r.after)))
  in
  let _, own = component_ids (Rotation.graph r.after) in
  check (ncomp = own) "graph: component count disagrees with the bench's BFS";
  let outs_after =
    Span.call "geometry" "Route.route_batch(after)" (fun () ->
        Route.route_batch r.engine_after r.inputs.pairs)
  in
  Span.disable ();
  let sp = Span.find in
  let s name = Span.seconds (sp name) in
  let rep_ = r.report in
  let phase name = Option.value ~default:0 (List.assoc_opt name rep_.Embedder.phases) in
  let st = Incremental.stats r.inputs.inc in
  let greedy = ref 0 and face = ref 0 and recov = ref 0 in
  Array.iter
    (function
      | Route.Delivered d ->
          greedy := !greedy + d.greedy_hops;
          face := !face + d.face_hops;
          recov := !recov + d.recoveries
      | _ -> ())
    r.outs;
  let unreachable =
    Array.fold_left (fun a o -> if o = Route.Unreachable then a + 1 else a) 0 outs_after
  in
  let inserts = st.fast + st.linked + st.reembedded in
  let pooled f = Array.concat (List.map f (Array.to_list reps)) |> Array.map (fun ns -> ns /. 1e3) in
  let ins = pooled (fun r -> r.insert_ns) and del = pooled (fun r -> r.delete_ns) in
  let pct p a = if Array.length a = 0 then 0. else Stats.percentile p a in
  let fi = float_of_int in
  (* The traced rep's stage sum, at reference speed like a timed rep's, so
     that its overhead over pipeline_s is not a change of host speed. *)
  let traced_total = sum r.timing.stage_s *. speed_of r.timing in
  let counts =
    [
      m "congest.phase1_rounds" "rounds" (fi (phase "leader-election+bfs" + phase "count-n"));
      m "congest.messages" "count" (fi (Metrics.messages rep_.Embedder.metrics));
      m "congest.bits" "bits" (fi rep_.Embedder.total_bits);
      m "embedder.rounds" "rounds" (fi rep_.Embedder.rounds);
      m "embedder.recursion_rounds" "rounds" (fi (phase "recursive-embedding"));
      m "embedder.recursion_calls" "count" (fi rep_.Embedder.recursion_calls);
      m "embedder.recursion_depth" "count" (fi rep_.Embedder.recursion_depth);
      m "embedder.merges" "count"
        (fi
           (rep_.Embedder.merges_pairwise + rep_.merges_star + rep_.merges_vertex
          + rep_.merges_path));
      m "embedder.iface_bits" "bits" (fi rep_.Embedder.iface_bits_shipped);
      m "certify.mean_bits" "bits" (Certify.size r.certs).Certify.mean_bits;
      m "geometry.virtual_edges" "count"
        (fi (Triangulate.virtual_count (Schnyder.triangulation r.drawing)));
      m "geometry.greedy_hops" "count" (fi !greedy);
      m "geometry.face_hops" "count" (fi !face);
      m "geometry.recoveries" "count" (fi !recov);
      m "geometry.unreachable" "count" (fi unreachable);
      m "graph.components" "count" (fi ncomp);
      m "incremental.fast" "count" (fi st.fast);
      m "incremental.linked" "count" (fi st.linked);
      m "incremental.reembedded" "count" (fi st.reembedded);
      m "incremental.rescopes" "count" (fi st.rescopes);
      m "incremental.kernel_edges" "count" (fi st.kernel_edges);
      m "incremental.face_steps" "count" (fi st.face_steps);
    ]
  in
  let gc_of stage =
    let s = sp stage in
    [
      m (Printf.sprintf "gc.%s.minor_mw" stage) "Mw" (Span.minor_mw s);
      m (Printf.sprintf "gc.%s.promoted_mw" stage) "Mw" (Span.promoted_mw s);
      m (Printf.sprintf "gc.%s.major_collections" stage) "count"
        (fi (Span.major_collections s));
    ]
  in
  let timings =
    [
      m "congest.phase1_s" "s" (s "phase1-replay");
      m "congest.phase1_mw" "Mw" (Span.alloc_mw (sp "phase1-replay"));
      m "congest.verify_s" "s" (s "Certify.verify");
      m "congest.verify_mw" "Mw" (Span.alloc_mw (sp "Certify.verify"));
      m "embedder.self_s" "s" (s "Embedder.run" -. s "phase1-replay");
      m "embedder.mw" "Mw" (Span.alloc_mw (sp "Embedder.run"));
      m "planarity.embed_s" "s" (s "Planarity.embed");
      m "planarity.mw" "Mw" (Span.alloc_mw (sp "Planarity.embed"));
      m "certify.prove_s" "s" (s "Certify.prove");
      m "geometry.triangulate_s" "s" (s "Triangulate.make");
      m "geometry.schnyder_s" "s" (s "Schnyder.of_triangulation");
      m "geometry.route_make_s" "s" (s "Route.make");
      m "geometry.face_hop_share" "ratio" (fi !face /. fi (max 1 (!greedy + !face)));
      m "graph.gen_s" "s" (s "Gen");
      m "graph.genus_s" "s" (s "Rotation.genus");
      m "incremental.create_s" "s" (s "Incremental.create");
      m "incremental.insert_p50_us" "us" ~samples:(Array.length ins) (pct 50. ins);
      m "incremental.insert_p99_us" "us" ~samples:(Array.length ins) (pct 99. ins);
      m "incremental.delete_p50_us" "us" ~samples:(Array.length del) (pct 50. del);
      m "incremental.delete_p99_us" "us" ~samples:(Array.length del) (pct 99. del);
      m "incremental.fast_share" "ratio" (fi st.fast /. fi (max 1 inserts));
      m "incremental.rotation_s" "s" (s "Incremental.rotation");
      m "trace.overhead_pct" "%" ((traced_total -. untraced_s) /. untraced_s *. 100.);
    ]
  in
  (r, counts, timings @ List.concat_map gc_of (Array.to_list stage_names))

(* ---- the run ------------------------------------------------------------ *)

let measure (w : workload) seed ~seconds =
  (* One untimed warm-up rep lets the heap grow to its working size. The
     heap peak is read after it: later reps fragment the heap a little
     more each, so a peak read at the end would grow with the rep count. *)
  let i = (rep w ~seed).inputs in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let fingerprint = fingerprint i and n = Gr.n i.g and m = Gr.m i.g in
  (* A rep starts only if, at the mean rep time so far, it ends within
     --seconds, so a run lasts about as long on every workload. *)
  let t0 = now_ns () in
  let reps = ref [] in
  let fits () =
    let e = since t0 in
    e +. (e /. float_of_int (List.length !reps)) <= seconds
  in
  while List.length !reps < 3 || (fits () && List.length !reps < 99) do
    reps := (rep ~index:(List.length !reps + 1) w ~seed).timing :: !reps
  done;
  let reps = Array.of_list (List.rev !reps) in
  let speed = Array.map speed_of reps in
  let median_rep, metrics = end_to_end w reps speed ~top_heap_mb in
  { fingerprint; n; m; reps; speed; median_rep; end_to_end = metrics }

let metric_json l =
  Json.Obj
    (List.map
       (fun x -> (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ]))
       l)

let print_metrics title l =
  Printf.printf "%s\n" title;
  List.iter
    (fun x ->
      Printf.printf "  %-34s %16.6f %-10s (%d samples)\n" x.name x.value x.unit_ x.samples)
    l

let stage_shares (r : timing) speed =
  let total = sum r.stage_s in
  Array.to_list
    (Array.mapi (fun i s -> (stage_names.(i), s *. speed, 100. *. s /. total)) r.stage_s)

let run ~(w : workload) ~seed ~seconds ~traced ~out ~trace_file ~rev ~quick =
  let res = measure w seed ~seconds in
  Printf.printf
    "workload %s  seed %d  reps %d  cores %d  domains %d  n=%d m=%d updates=%d \
     queries=%d\n"
    w.name seed (Array.length res.reps) cores (domains w) res.n res.m
    w.updates w.queries;
  print_metrics "end-to-end" res.end_to_end;
  let shares = stage_shares res.reps.(res.median_rep) res.speed.(res.median_rep) in
  Printf.printf "stage shares of pipeline_s (median rep):";
  List.iter (fun (n, _, p) -> Printf.printf "  %s %.1f%%" n p) shares;
  Printf.printf "  (sum %.1f%%)\n"
    (List.fold_left (fun a (_, _, p) -> a +. p) 0. shares);
  let untraced_s = (List.find (fun x -> x.name = "pipeline_s") res.end_to_end).value in
  let layer =
    if not traced then None
    else begin
      let r, counts, timings = per_layer w seed res.reps ~untraced_s in
      print_metrics "per-layer counts" counts;
      print_metrics "per-layer timings" timings;
      Printf.printf "self time by layer (traced rep):\n";
      let self = Span.self_by_layer () in
      List.iter (fun (l, s) -> Printf.printf "  %-12s %10.6f s\n" l s) self;
      Option.iter (fun f -> Json.to_file f (Span.chrome_trace ())) trace_file;
      Some (r, counts @ timings, self)
    end
  in
  if tally.failed > 0 then begin
    Printf.printf "FAILED checks (%d of %d):\n" tally.failed tally.attempted;
    List.iter (Printf.printf "  %s\n") (List.rev tally.why)
  end;
  let samples l = Json.Obj (List.map (fun x -> (x.name, Json.Num (float_of_int x.samples))) l) in
  Option.iter
    (fun f ->
      let record =
        [
          ("workload", Json.Str w.name);
          ("seed", Json.Num (float_of_int seed));
          ("quick", Json.Bool quick);
          ("seconds", Json.Num seconds);
          ("cores", Json.Num (float_of_int cores));
          ("domains", Json.Num (float_of_int (domains w)));
          ("ocaml_version", Json.Str Sys.ocaml_version);
          ("git_rev", Json.Str rev);
          ( "ocamlrunparam",
            Json.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")) );
          ( "inputs",
            Json.Obj
              [
                ("n", Json.Num (float_of_int res.n));
                ("m", Json.Num (float_of_int res.m));
                ("updates", Json.Num (float_of_int w.updates));
                ("queries", Json.Num (float_of_int w.queries));
                ("fingerprint", Json.Str res.fingerprint);
              ] );
          ("reps", Json.Num (float_of_int (Array.length res.reps)));
          ("host_reference_s", Json.Num Host.reference_s);
          ( "rep_seconds",
            Json.Arr
              (Array.to_list
                 (Array.mapi
                    (fun i t ->
                      Json.Obj
                        (("host", Json.Arr (Array.to_list (Array.map (fun x -> Json.Num x) t.host_s)))
                        :: ("speed", Json.Num res.speed.(i))
                        :: ( "calls",
                             Json.Obj (List.map (fun (n, v, _) -> (n, Json.Num v)) (call_stats t)) )
                        :: ("setup", Json.Num t.setup_s)
                        :: Array.to_list
                             (Array.mapi (fun i s -> (stage_names.(i), Json.Num s)) t.stage_s)))
                    res.reps)) );
          ("correct", Json.Bool (tally.failed = 0));
          ("attempted", Json.Num (float_of_int tally.attempted));
          ("failed", Json.Num (float_of_int tally.failed));
          ("metrics", metric_json res.end_to_end);
          ("samples", samples res.end_to_end);
          ( "stages",
            Json.Obj
              (List.map
                 (fun (n, s, p) ->
                   (n, Json.Obj [ ("seconds", Json.Num s); ("share_pct", Json.Num p) ]))
                 shares) );
        ]
        @
        match layer with
        | None -> []
        | Some (_, l, self) ->
            [
              ("per_layer", metric_json l);
              ("per_layer_samples", samples l);
              ("self_s", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) self));
            ]
      in
      Json.to_file f (Json.Obj record))
    out;
  let shown = match layer with Some (_, l, _) -> l | None -> res.end_to_end in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (tally.failed = 0));
            ("attempted", Json.Num (float_of_int tally.attempted));
            ("failed", Json.Num (float_of_int tally.failed));
            ("metrics", metric_json shown);
          ]));
  if tally.failed > 0 then exit 1

(* ---- the quick self-test (dune runtest) --------------------------------- *)

(* At the --quick scale, every workload runs one traced rep twice at one
   seed and once at another. Every output check must pass, every exact
   count must repeat, and the other seed must give other inputs. No
   timing is asserted. *)
let selftest () =
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun s -> ok := false; print_endline ("FAIL " ^ s)) fmt in
  List.iter
    (fun w ->
      let once seed =
        let r, counts, _ = per_layer w seed [||] ~untraced_s:1. in
        (fingerprint r.inputs, List.map (fun x -> (x.name, x.value)) counts)
      in
      let f1, c1 = once 1 in
      let f1', c1' = once 1 in
      let f2, _ = once 2 in
      if f1 <> f1' then fail "%s: same seed gave different inputs" w.name;
      List.iter2
        (fun (k, a) (_, b) ->
          if a <> b then fail "%s: count %s differs across runs (%g vs %g)" w.name k a b)
        c1 c1';
      if f1 = f2 then fail "%s: seeds 1 and 2 gave identical inputs" w.name;
      Printf.printf "%-12s counts repeat: %d  (embedder.rounds %g)\n%!" w.name
        (List.length c1) (List.assoc "embedder.rounds" c1))
    (workloads ~quick:true);
  if tally.failed > 0 then
    fail "%d of %d output checks failed: %s" tally.failed tally.attempted
      (String.concat "; " (List.rev tally.why));
  Printf.printf "selftest: %d checks, %s\n" tally.attempted (if !ok then "ok" else "FAILED");
  if not !ok then exit 1

(* ---- command line ------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 36. and trace = ref 0 in
  let quick = ref false and out = ref "" and trace_file = ref "" and rev = ref "unknown" in
  let self = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  grid | maxplanar | outerplanar");
      ("--seed", Arg.Set_int seed, "S  draws the query pairs (default 1)");
      ("--seconds", Arg.Set_float seconds, "T  measure timed reps for T seconds (default 36)");
      ("--trace", Arg.Set_int trace, "0|1  1 adds the traced rep and prints per-layer metrics");
      ("--trace-file", Arg.Set_string trace_file, "F  write the traced rep's Chrome trace to F");
      ("--out", Arg.Set_string out, "F  write the full result record to F");
      ("--rev", Arg.Set_string rev, "R  git revision recorded in the result");
      ("--quick", Arg.Set quick, " the small scale used by the self-test");
      ("--selftest", Arg.Set self, " run the quick determinism and output checks");
    ]
  in
  let usage = "pipeline.exe --workload W [--seed S] [--seconds T] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !self then selftest ()
  else begin
    let w =
      match List.find_opt (fun (w : workload) -> w.name = !workload) (workloads ~quick:!quick) with
      | Some w -> w
      | None ->
          prerr_endline ("unknown --workload '" ^ !workload ^ "'\n" ^ usage);
          exit 2
    in
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "--trace takes 0 or 1";
      exit 2
    end;
    if !seconds <= 0. then begin
      prerr_endline "--seconds must be positive";
      exit 2
    end;
    let opt s = if s = "" then None else Some s in
    run ~w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~out:(opt !out)
      ~trace_file:(opt !trace_file) ~rev:!rev ~quick:!quick
  end
