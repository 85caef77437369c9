(* Integration and property tests for the distributed embedding pipeline:
   decomposition invariants (Lemmas 4.1-4.3), partition safety
   (Definition 3.1), end-to-end correctness on planar and non-planar
   inputs, baseline agreement, and the round/congestion bounds the paper
   claims. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Partition predicates                                                *)
(* ------------------------------------------------------------------ *)

let test_partition_predicates () =
  let g = Gen.cycle 6 in
  check_bool "connected part" true (Partition.induces_connected g [ 0; 1; 2 ]);
  check_bool "disconnected part" false (Partition.induces_connected g [ 0; 2 ]);
  check_bool "path is trivial" true (Partition.is_trivial g [ 0; 1; 2 ]);
  check_bool "cycle is non-trivial" false
    (Partition.is_trivial g [ 0; 1; 2; 3; 4; 5 ]);
  check_bool "complement connected" true (Partition.complement_connected g [ 0 ]);
  (* Removing two opposite vertices disconnects the cycle. *)
  check_bool "complement disconnected" false
    (Partition.complement_connected g [ 0; 3 ])

let test_safety_definition () =
  let g = Gen.cycle 6 in
  (* Trivial parts are exempt from the complement condition. *)
  check_bool "two trivial arcs safe" true
    (Partition.is_safe g [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ]);
  (* A non-trivial part with disconnected complement is unsafe. *)
  let g2 = Gr.add_edges (Gen.cycle 6) [ (0, 2) ] in
  check_bool "non-trivial triangle part, complement disconnected" false
    (Partition.is_safe g2 [ [ 0; 1; 2; 3 ]; [ 4 ]; [ 5 ] ]
    && not (Partition.is_safe g2 [ [ 0; 1; 2; 3 ] ]));
  (* Overlapping parts are rejected. *)
  check_bool "overlap" false (Partition.is_safe g [ [ 0; 1 ]; [ 1; 2 ] ])

let test_merge_safety_figure6 () =
  (* Figure 6's idea: merging two parts is unsafe when their union's
     complement disconnects. On a cycle, merging two antipodal arcs into a
     non-trivial part that separates the rest is unsafe. *)
  let g = Gen.cycle 8 in
  let parts = [ [ 0; 1 ]; [ 4; 5 ]; [ 2; 3 ]; [ 6; 7 ] ] in
  check_bool "partition safe" true (Partition.is_safe g parts);
  (* Merging adjacent arcs [0;1] and [2;3] gives a path - still trivial,
     safe. *)
  check_bool "adjacent merge safe" true (Partition.merge_is_safe g parts 0 2)

let test_half_edges () =
  let g = Gen.cycle 4 in
  let part_of = [| 0; 0; 1; 1 |] in
  let h0 = List.sort compare (Partition.half_edges g ~part_of 0) in
  Alcotest.(check (list (pair int int))) "half edges" [ (0, 3); (1, 2) ] h0

(* ------------------------------------------------------------------ *)
(* Decomposition (Section 4)                                           *)
(* ------------------------------------------------------------------ *)

let prop_decomposition_invariants =
  QCheck.Test.make ~name:"recursion tree satisfies Lemmas 4.1/4.2" ~count:60
    QCheck.(pair (int_range 0 100000) (int_range 2 80))
    (fun (seed, n) ->
      let m = max (n - 1) (min ((3 * n) - 6) (2 * n)) in
      let g = Gen.random_planar ~seed ~n ~m in
      let bt = Traverse.bfs g (n - 1) in
      let tree = Decompose.recursion_tree g bt in
      Decompose.check g bt tree)

let prop_recursion_depth_bound =
  QCheck.Test.make ~name:"recursion depth is O(min(log n, bfs depth))"
    ~count:40
    QCheck.(pair (int_range 0 100000) (int_range 2 300))
    (fun (seed, n) ->
      let m = max (n - 1) (min ((3 * n) - 6) (2 * n)) in
      let g = Gen.random_planar ~seed ~n ~m in
      let bt = Traverse.bfs g (n - 1) in
      let tree = Decompose.recursion_tree g bt in
      let d = Decompose.depth tree in
      let log15 =
        int_of_float (ceil (log (float_of_int n) /. log 1.5)) + 1
      in
      d <= min log15 (Traverse.depth bt + 1))

let test_decompose_path () =
  (* A path rooted at one end: P0 runs from the root to the centroid. *)
  let g = Gen.path 9 in
  let bt = Traverse.bfs g 0 in
  let tree = Decompose.recursion_tree g bt in
  check_bool "check" true (Decompose.check g bt tree);
  (* The splitter of a rooted path is near the middle. *)
  check_bool "splitter balanced" true (abs (tree.Decompose.splitter - 4) <= 1)

let test_splitter_star () =
  (* In a star rooted at the center, the center itself is the splitter. *)
  let g = Gen.star 9 in
  let bt = Traverse.bfs g 0 in
  let tree = Decompose.recursion_tree g bt in
  check "splitter" 0 tree.Decompose.splitter;
  check "p0 is the center" 1 (List.length tree.Decompose.p0);
  check "eight hanging leaves" 8 (List.length tree.Decompose.hanging)

(* ------------------------------------------------------------------ *)
(* End-to-end                                                          *)
(* ------------------------------------------------------------------ *)

let embed_ok ?checks g =
  let o = Embedder.run ?checks g in
  match o.Embedder.rotation with
  | None -> Alcotest.fail "embedder rejected a planar graph"
  | Some r ->
      check_bool "independent Euler verification" true
        (Rotation.is_planar_embedding r);
      o

let test_families_end_to_end () =
  List.iter
    (fun (name, g) ->
      ignore (embed_ok ~checks:true g);
      ignore name)
    [
      ("single", Gr.empty 1);
      ("edge", Gen.path 2);
      ("path", Gen.path 17);
      ("cycle", Gen.cycle 11);
      ("star", Gen.star 9);
      ("tree", Gen.binary_tree 25);
      ("k4", Gen.complete 4);
      ("wheel", Gen.wheel 9);
      ("grid", Gen.grid 5 6);
      ("trigrid", Gen.triangular_grid 4 5);
      ("k4subdiv", Gen.k4_subdivision 5);
      ("maxplanar", Gen.random_maximal_planar ~seed:7 60);
    ]

let test_nonplanar_end_to_end () =
  List.iter
    (fun g ->
      let o = Embedder.run g in
      check_bool "rejected" true (o.Embedder.rotation = None))
    [
      Gen.k5 ();
      Gen.k33 ();
      Gen.petersen ();
      Gen.complete 6;
      Gen.toroidal_grid 4 4;
      Gen.subdivide (Gen.k5 ()) 3;
    ]

let test_disconnected_rejected () =
  let g = Gr.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  (try
     ignore (Embedder.run g);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let prop_random_planar_end_to_end =
  QCheck.Test.make
    ~name:"random planar graphs embed end-to-end (checks on, genus 0)"
    ~count:40
    QCheck.(pair (int_range 0 100000) (int_range 2 60))
    (fun (seed, n) ->
      let m = min ((3 * n) - 6) (max (n - 1) (2 * n - 4)) in
      let m = max (n - 1) m in
      let g = Gen.random_planar ~seed ~n ~m in
      let o = Embedder.run ~checks:true g in
      match o.Embedder.rotation with
      | None -> false
      | Some r -> Rotation.is_planar_embedding r)

let prop_random_nonplanar_rejected =
  QCheck.Test.make
    ~name:"dense random connected graphs are rejected (m > 3n - 6)"
    ~count:25
    QCheck.(int_range 0 100000)
    (fun seed ->
      let n = 12 in
      let g = Gen.random_connected_graph ~seed ~n ~m:40 in
      (Embedder.run g).Embedder.rotation = None)

let prop_verdict_matches_dmp =
  QCheck.Test.make
    ~name:"distributed verdict always matches the centralized verdict"
    ~count:40
    QCheck.(pair (int_range 0 100000) (int_range 2 25))
    (fun (seed, n) ->
      let m = min (n * (n - 1) / 2) (max (n - 1) (2 * n)) in
      let g = Gen.random_connected_graph ~seed ~n ~m in
      let ours = (Embedder.run g).Embedder.rotation <> None in
      ours = Dmp.is_planar g)

let test_report_sanity () =
  let g = Gen.grid 6 6 in
  let o = embed_ok ~checks:true g in
  let r = o.Embedder.report in
  check "n" 36 r.Embedder.n;
  check "m" 60 r.Embedder.m;
  check "leader is max id" 35 r.Embedder.leader;
  check_bool "rounds positive" true (r.Embedder.rounds > 0);
  check_bool "phases recorded" true
    (List.map fst r.Embedder.phases
    = [ "leader-election+bfs"; "recursive-embedding" ]);
  check_bool "safety checks ran" true (r.Embedder.safety_checks > 0);
  check_bool "recursion happened" true (r.Embedder.recursion_calls > 1);
  check_bool "bits shipped" true (r.Embedder.iface_bits_shipped > 0)

let prop_rounds_scale_with_bfs_depth_times_log =
  (* Theorem 1.1's shape: simulated rounds stay within a generous constant
     of D * min(log n, D) + log-sized overheads. The constant here is loose
     on purpose (we guard the asymptotic shape, not the constant). *)
  QCheck.Test.make ~name:"rounds bounded by c * (D+1) * min(log n, D+1)"
    ~count:15
    QCheck.(pair (int_range 0 100000) (int_range 30 200))
    (fun (seed, n) ->
      let g = Gen.random_planar ~seed ~n ~m:(min ((3 * n) - 6) (2 * n)) in
      let o = Embedder.run g in
      let d = o.Embedder.report.Embedder.bfs_depth + 1 in
      let logn = int_of_float (ceil (log (float_of_int n) /. log 2.0)) + 1 in
      o.Embedder.report.Embedder.rounds <= 60 * d * min logn (d + 1))

let prop_lower_bound_rounds_at_least_depth =
  (* Footnote 1: coordination across Theta(D) hops is unavoidable; our
     implementation indeed always spends at least the BFS depth. *)
  QCheck.Test.make ~name:"rounds >= BFS depth on K4 subdivisions" ~count:10
    QCheck.(int_range 2 40)
    (fun seglen ->
      let g = Gen.k4_subdivision seglen in
      let o = Embedder.run g in
      o.Embedder.report.Embedder.rounds >= o.Embedder.report.Embedder.bfs_depth)

let test_baseline_agrees () =
  List.iter
    (fun g ->
      let b = Baseline.run g in
      match b.Baseline.rotation with
      | None -> Alcotest.fail "baseline rejected planar input"
      | Some r -> check_bool "baseline genus 0" true (Rotation.is_planar_embedding r))
    [ Gen.grid 5 5; Gen.random_maximal_planar ~seed:3 80; Gen.path 40 ];
  List.iter
    (fun g ->
      check_bool "baseline rejects" true ((Baseline.run g).Baseline.rotation = None))
    [ Gen.k5 (); Gen.petersen () ]

let prop_baseline_rounds_linear =
  QCheck.Test.make ~name:"baseline rounds grow linearly in n" ~count:10
    QCheck.(int_range 50 400)
    (fun n ->
      let g = Gen.random_maximal_planar ~seed:5 n in
      let b = Baseline.run g in
      let r = b.Baseline.report.Baseline.rounds in
      (* Gathering 3n-6 edge records of 2 log n bits at 16 log n bits/round
         is about (3/8) n rounds, plus BFS and scatter. *)
      r >= n / 8 && r <= 4 * n + 100)

let test_relabeling_invariance () =
  let g = Gen.random_maximal_planar ~seed:13 40 in
  let perm = Gen.random_permutation ~seed:14 40 in
  let h = Gr.relabel g perm in
  let og = Embedder.run g and oh = Embedder.run h in
  check_bool "same verdict" true
    ((og.Embedder.rotation <> None) = (oh.Embedder.rotation <> None))

(* Golden outputs: [Embedder.run] at one domain on three fixed inputs,
   with values recorded from the implementation before the driver's
   bookkeeping was rewritten (array-backed tree loads, one induced
   subgraph per part install). Phase 1's two-run election re-recorded
   only its own traces — rounds, total and per-edge bits, the phase
   list; the rotation, merges, recursion and interface bits are the
   max-id flood's. Any change to what the driver charges or embeds
   shows up here. The rotation is pinned by an integer fold over
   every vertex's rotation array. *)

let rotation_fold r =
  let g = Rotation.graph r in
  let h = ref 17 in
  let mix x = h := ((!h * 1_000_003) + x) land 0x3FFF_FFFF_FFFF in
  for v = 0 to Gr.n g - 1 do
    let a = Rotation.rotation r v in
    mix (Array.length a);
    Array.iter (fun w -> mix (w + 1)) a
  done;
  !h

type golden = {
  rounds : int;
  total_bits : int;
  max_edge_bits : int;
  iface_bits_shipped : int;
  merges : int * int * int * int;  (** pairwise, star, vertex, path *)
  recursion : int * int;  (** depth, calls *)
  rotation : int;
  phases : (string * int) list;
}

let golden_cases =
  [
    ( "grid 12x12",
      (fun () -> Gen.grid 12 12),
      {
        rounds = 974;
        total_bits = 196708;
        max_edge_bits = 2374;
        iface_bits_shipped = 4052;
        merges = (0, 4, 3, 28);
        recursion = (6, 40);
        rotation = 66557384905723;
        phases =
          [ ("leader-election+bfs", 77); ("recursive-embedding", 897) ];
      } );
    ( "outerplanar n=600",
      (fun () -> Gen.random_outerplanar ~seed:1 ~n:600 ~chord_prob:0.5),
      {
        rounds = 903;
        total_bits = 880182;
        max_edge_bits = 2264;
        iface_bits_shipped = 24188;
        merges = (0, 19, 130, 141);
        recursion = (6, 430);
        rotation = 50502308317470;
        phases =
          [ ("leader-election+bfs", 44); ("recursive-embedding", 859) ];
      } );
    ( "maximal planar n=400",
      (fun () -> Gen.random_maximal_planar ~seed:1 400),
      {
        rounds = 425;
        total_bits = 1053869;
        max_edge_bits = 4890;
        iface_bits_shipped = 34350;
        merges = (0, 2, 66, 41);
        recursion = (4, 365);
        rotation = 32949540848250;
        phases =
          [ ("leader-election+bfs", 23); ("recursive-embedding", 402) ];
      } );
  ]

let test_golden (name, make, want) () =
  let config = Network.Config.with_domains 1 Network.Config.default in
  let o = Embedder.run ~config (make ()) in
  let r = o.Embedder.report in
  let c field = check (name ^ ": " ^ field) in
  c "rounds" want.rounds r.Embedder.rounds;
  c "total_bits" want.total_bits r.Embedder.total_bits;
  c "max_edge_bits" want.max_edge_bits r.Embedder.max_edge_bits;
  c "iface_bits_shipped" want.iface_bits_shipped r.Embedder.iface_bits_shipped;
  let (pw, st, vx, pa) = want.merges in
  c "merges_pairwise" pw r.Embedder.merges_pairwise;
  c "merges_star" st r.Embedder.merges_star;
  c "merges_vertex" vx r.Embedder.merges_vertex;
  c "merges_path" pa r.Embedder.merges_path;
  let (depth, calls) = want.recursion in
  c "recursion_depth" depth r.Embedder.recursion_depth;
  c "recursion_calls" calls r.Embedder.recursion_calls;
  Alcotest.(check (list (pair string int)))
    (name ^ ": phases") want.phases r.Embedder.phases;
  match o.Embedder.rotation with
  | None -> Alcotest.failf "%s: rejected as non-planar" name
  | Some rot -> c "rotation fold" want.rotation (rotation_fold rot)

(* Per-edge goldens: an MD5 over every directed edge's bit tally
   ([Metrics.iter_dir], phase 1's real messages and every cost-model
   charge), with the rounds, the phase list and the interface bits, at
   one domain. A charge that lands on another edge, or the same bits in
   another split between the two directions, changes the digest even
   when the totals agree. *)
let edge_digest m =
  let b = Buffer.create 4096 in
  Metrics.iter_dir m (fun ~src ~dst ~bits ~messages:_ ~burst:_ ->
      Buffer.add_string b (Printf.sprintf "%d>%d:%d;" src dst bits));
  Digest.to_hex (Digest.string (Buffer.contents b))

let edge_golden_cases =
  [
    ( "grid 12x12",
      (fun () -> Gen.grid 12 12),
      (974, 4052, [ ("leader-election+bfs", 77); ("recursive-embedding", 897) ]),
      "9c5ce21aad70f385bf36f9e12dba997d" );
    ( "maximal planar n=400",
      (fun () -> Gen.random_maximal_planar ~seed:1 400),
      (425, 34350, [ ("leader-election+bfs", 23); ("recursive-embedding", 402) ]),
      "2876b7aa9dce51b26dc254f252bcafcf" );
    ( "outerplanar n=600",
      (fun () -> Gen.random_outerplanar ~seed:1 ~n:600 ~chord_prob:0.5),
      (903, 24188, [ ("leader-election+bfs", 44); ("recursive-embedding", 859) ]),
      "e8925ff2f53a939ed533b5af24966a38" );
    ( "star n=300",
      (fun () -> Gen.star 300),
      (319, 6556, [ ("leader-election+bfs", 10); ("recursive-embedding", 309) ]),
      "48ee63e5d8729f921908d6fb60dc6f17" );
    ( "wheel n=300",
      (fun () -> Gen.wheel 300),
      (317, 12582, [ ("leader-election+bfs", 8); ("recursive-embedding", 309) ]),
      "5faafac764f49c46babf9408f61f2a0d" );
  ]

let test_edge_golden (name, make, (rounds, iface, phases), digest) () =
  let config = Network.Config.with_domains 1 Network.Config.default in
  let r = (Embedder.run ~config (make ())).Embedder.report in
  let c field = check (name ^ ": " ^ field) in
  c "rounds" rounds r.Embedder.rounds;
  c "iface_bits_shipped" iface r.Embedder.iface_bits_shipped;
  Alcotest.(check (list (pair string int)))
    (name ^ ": phases") phases r.Embedder.phases;
  Alcotest.(check string)
    (name ^ ": per-edge bits") digest
    (edge_digest r.Embedder.metrics)

(* ------------------------------------------------------------------ *)
(* Part installs                                                       *)
(* ------------------------------------------------------------------ *)

let cost_model g = Costmodel.create ~bandwidth:64 g (Metrics.create g)

let test_install_nonplanar_part () =
  (* K4 inside K5: its half edges to vertex 4 leave no embedding with all
     of them on one face, so the install is refused. *)
  let g = Gen.k5 () in
  let st = Merge.create g ~checks:false ~cost:(cost_model g) in
  match Merge.fresh_part st [ 0; 1; 2; 3 ] with
  | _ -> Alcotest.fail "install accepted a non-planar part"
  | exception Part.Nonplanar_detected _ -> ()

let prop_install_structure =
  QCheck.Test.make
    ~name:"installed parts: blocks, triviality and verdict equal the oracles"
    ~count:60
    QCheck.(triple (int_range 0 100000) (int_range 2 50) (int_range 1 50))
    (fun (seed, n, size) ->
      let g =
        if seed mod 2 = 0 then
          Gen.random_planar ~seed ~n ~m:(max (n - 1) (min ((3 * n) - 6) (2 * n)))
        else Gen.random_tree ~seed n
      in
      (* A connected part: the first [size] vertices of a BFS. Its
         complement may be disconnected, so the apex construction may
         refuse it; the install must then be refused. *)
      let bt = Traverse.bfs g (seed mod n) in
      let part = Array.to_list (Array.sub bt.Traverse.order 0 (min size n)) in
      let part_of = Array.make n 1 in
      List.iter (fun v -> part_of.(v) <- 0) part;
      let half = Partition.half_edges g ~part_of 0 in
      let want = Apex.shape g ~part ~half in
      let st = Merge.create g ~checks:false ~cost:(cost_model g) in
      match Merge.part st (Merge.fresh_part st part) with
      | p ->
          want.Apex.outer <> None
          && p.Part.n_bicon = want.Apex.blocks
          && p.Part.trivial = Partition.is_trivial g part
          && (st.Merge.full <> None) = (List.length part = n)
      | exception Part.Nonplanar_detected _ -> want.Apex.outer = None)

(* A part's stored charge plan against the cost model's walk over the
   part's own tree: on random connected parts (BFS prefixes), with and
   without anchors (the next vertices of the BFS, one of them sometimes
   a member too), charging the plan leaves the same per-directed-edge
   tallies and the same clock as [Costmodel.charge_aggregate]. The tree
   itself must be a BFS tree of the span (members and anchors) from the
   leader, at the recorded depth. *)
let prop_plan_matches_walk =
  QCheck.Test.make ~name:"part charge plans equal the aggregate walk"
    ~count:100
    QCheck.(quad (int_range 0 100000) (int_range 2 60) (int_range 1 60) (int_range 0 4))
    (fun (seed, n, size, n_anchors) ->
      let g =
        Gen.random_planar ~seed ~n ~m:(max (n - 1) (min ((3 * n) - 6) (2 * n)))
      in
      let bt = Traverse.bfs g (seed mod n) in
      let reached = Array.length bt.Traverse.order in
      let size = min size reached in
      let part = Array.to_list (Array.sub bt.Traverse.order 0 size) in
      let anchors =
        Array.to_list
          (Array.sub bt.Traverse.order size (min n_anchors (reached - size)))
        @ if seed mod 3 = 0 then [ List.hd part ] else []
      in
      let ws = Part.workspace g in
      let p =
        Part.create g ws ~classify:(fun _ -> 0) ~half:[] ~id:0 ~vertices:part
          ~anchors
      in
      let par = Array.make n (-1) in
      Array.iteri (fun i v -> par.(v) <- p.Part.tree.(p.Part.up.(i))) p.Part.tree;
      let span = List.sort_uniq compare (part @ anchors) in
      let (h, _, local) = Gr.induced g span in
      let hb = Traverse.bfs h (local p.Part.leader) in
      let dist v = hb.Traverse.dist.(local v) in
      let bfs_tree =
        Array.length p.Part.tree = List.length span
        && List.for_all
             (fun v ->
               if v = p.Part.leader then par.(v) = v
               else dist v = dist par.(v) + 1)
             span
        && p.Part.depth = List.fold_left (fun acc v -> max acc (dist v)) 0 span
      in
      let bandwidth = 1 + (seed mod 16) in
      let tallies m =
        let acc = ref [] in
        Metrics.iter_dir m (fun ~src ~dst ~bits ~messages:_ ~burst:_ ->
            acc := (src, dst, bits) :: !acc);
        (Metrics.total_bits m, !acc)
      in
      let ma = Metrics.create g and mb = Metrics.create g in
      let ca = Costmodel.create ~bandwidth g ma
      and cb = Costmodel.create ~bandwidth g mb in
      List.iter
        (fun bits ->
          Costmodel.charge_plan ca p.Part.plan ~bits;
          Costmodel.charge_aggregate cb ~root:p.Part.leader
            ~parent:(fun v -> par.(v)) ~members:part ~bits)
        [ 0; 1 + (seed mod 7); 40; 0; 3 ];
      bfs_tree
      && Costmodel.clock ca = Costmodel.clock cb
      && tallies ma = tallies mb)

(* Allocation gate: installs that build an induced [Gr.t], a [Bicon]
   decomposition, an apex [Gr.t] and a rotation table per part allocate
   about 2.9 M words on this input; the install workspace about 1.1 M,
   and stored charge plans with flat part trees 855 k (the gate leaves
   11% headroom). *)
let test_install_allocation () =
  let g = Gen.random_outerplanar ~seed:1 ~n:600 ~chord_prob:0.5 in
  let config = Network.Config.with_domains 1 Network.Config.default in
  Gc.full_major ();
  let o, w = Words.of_call (fun () -> Embedder.run ~config g) in
  check_bool "planar" true (o.Embedder.rotation <> None);
  if w > 9.5e5 then
    Alcotest.failf "Embedder.run allocated %.0f words (gate 9.5e5)" w

let () =
  Alcotest.run "embedder"
    [
      ( "partition",
        [
          Alcotest.test_case "predicates" `Quick test_partition_predicates;
          Alcotest.test_case "safety (def 3.1)" `Quick test_safety_definition;
          Alcotest.test_case "merge safety (fig 6)" `Quick
            test_merge_safety_figure6;
          Alcotest.test_case "half edges" `Quick test_half_edges;
        ] );
      ( "decompose",
        [
          QCheck_alcotest.to_alcotest prop_decomposition_invariants;
          QCheck_alcotest.to_alcotest prop_recursion_depth_bound;
          Alcotest.test_case "path" `Quick test_decompose_path;
          Alcotest.test_case "star splitter" `Quick test_splitter_star;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "planar families" `Quick test_families_end_to_end;
          Alcotest.test_case "nonplanar families" `Quick
            test_nonplanar_end_to_end;
          Alcotest.test_case "disconnected" `Quick test_disconnected_rejected;
          QCheck_alcotest.to_alcotest prop_random_planar_end_to_end;
          QCheck_alcotest.to_alcotest prop_random_nonplanar_rejected;
          QCheck_alcotest.to_alcotest prop_verdict_matches_dmp;
          Alcotest.test_case "report sanity" `Quick test_report_sanity;
          Alcotest.test_case "relabeling" `Quick test_relabeling_invariance;
        ] );
      ( "complexity-shape",
        [
          QCheck_alcotest.to_alcotest prop_rounds_scale_with_bfs_depth_times_log;
          QCheck_alcotest.to_alcotest prop_lower_bound_rounds_at_least_depth;
          Alcotest.test_case "baseline agrees" `Quick test_baseline_agrees;
          QCheck_alcotest.to_alcotest prop_baseline_rounds_linear;
        ] );
      ( "golden",
        List.map
          (fun ((name, _, _) as case) ->
            Alcotest.test_case name `Quick (test_golden case))
          golden_cases
        @ List.map
            (fun ((name, _, _, _) as case) ->
              Alcotest.test_case ("per-edge " ^ name) `Quick
                (test_edge_golden case))
            edge_golden_cases );
      ( "install",
        [
          Alcotest.test_case "non-planar part" `Quick test_install_nonplanar_part;
          QCheck_alcotest.to_alcotest prop_install_structure;
          QCheck_alcotest.to_alcotest prop_plan_matches_walk;
          Alcotest.test_case "allocation gate" `Quick test_install_allocation;
        ] );
    ]
