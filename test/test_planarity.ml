(* Tests for the centralized planarity substrate (DMP). The key soundness
   oracle is independent of DMP: a claimed embedding must pass the
   Euler-formula face-tracing check in Rotation. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let assert_planar ?(msg = "planar") g =
  match Dmp.embed g with
  | Dmp.Nonplanar -> Alcotest.failf "%s: DMP rejected a planar graph" msg
  | Dmp.Planar r ->
      check_bool (msg ^ ": verified genus 0") true
        (Rotation.is_planar_embedding r);
      r

let assert_nonplanar ?(msg = "nonplanar") g =
  match Dmp.embed g with
  | Dmp.Nonplanar -> ()
  | Dmp.Planar _ -> Alcotest.failf "%s: DMP accepted a non-planar graph" msg

(* ------------------------------------------------------------------ *)
(* Known planar families                                               *)
(* ------------------------------------------------------------------ *)

let test_planar_families () =
  ignore (assert_planar ~msg:"K1" (Gr.empty 1));
  ignore (assert_planar ~msg:"K2" (Gen.path 2));
  ignore (assert_planar ~msg:"path" (Gen.path 12));
  ignore (assert_planar ~msg:"cycle" (Gen.cycle 9));
  ignore (assert_planar ~msg:"star" (Gen.star 10));
  ignore (assert_planar ~msg:"tree" (Gen.binary_tree 31));
  ignore (assert_planar ~msg:"K4" (Gen.complete 4));
  ignore (assert_planar ~msg:"wheel" (Gen.wheel 12));
  ignore (assert_planar ~msg:"grid" (Gen.grid 5 7));
  ignore (assert_planar ~msg:"triangular grid" (Gen.triangular_grid 4 6));
  ignore (assert_planar ~msg:"K2,n" (Gen.complete_bipartite 2 8));
  ignore (assert_planar ~msg:"ladder" (Gen.ladder 10));
  ignore (assert_planar ~msg:"fan" (Gen.fan 12))

let test_nonplanar_families () =
  assert_nonplanar ~msg:"K5" (Gen.k5 ());
  assert_nonplanar ~msg:"K6" (Gen.complete 6);
  assert_nonplanar ~msg:"K3,3" (Gen.k33 ());
  assert_nonplanar ~msg:"K3,4" (Gen.complete_bipartite 3 4);
  assert_nonplanar ~msg:"Petersen" (Gen.petersen ());
  assert_nonplanar ~msg:"toroidal grid" (Gen.toroidal_grid 4 4)

let test_subdivision_preserves () =
  assert_nonplanar ~msg:"subdivided K5" (Gen.subdivide (Gen.k5 ()) 3);
  assert_nonplanar ~msg:"subdivided K3,3" (Gen.subdivide (Gen.k33 ()) 2);
  ignore (assert_planar ~msg:"subdivided K4" (Gen.k4_subdivision 4))

let test_disconnected () =
  (* Two disjoint planar pieces: K4 on 0-3 and a triangle on 4-6, plus an
     isolated vertex 7. *)
  let edges =
    Gr.edges (Gen.complete 4)
    @ [ (4, 5); (5, 6); (4, 6) ]
  in
  let g = Gr.of_edges ~n:8 edges in
  ignore (assert_planar ~msg:"disconnected planar" g);
  (* Disjoint union with a K5 must be rejected. *)
  let k5_edges = List.map (fun (u, v) -> (u + 8, v + 8)) (Gr.edges (Gen.k5 ())) in
  assert_nonplanar ~msg:"disconnected with K5" (Gr.of_edges ~n:13 (edges @ k5_edges))

let test_blocks_combined () =
  (* A chain of K4 blocks sharing cut vertices: planar, rotations must
     concatenate consistently. *)
  let block k = List.map (fun (u, v) -> (u + (3 * k), v + (3 * k))) (Gr.edges (Gen.complete 4)) in
  let g = Gr.of_edges ~n:13 (block 0 @ block 1 @ block 2 @ block 3) in
  let r = assert_planar ~msg:"K4 chain" g in
  (* Cut vertices have degree 6 = two blocks of 3. *)
  check "cut degree" 6 (Array.length (Rotation.rotation r 3))

let test_maximal_planar_face_count () =
  let g = Gen.random_maximal_planar ~seed:11 40 in
  let r = assert_planar ~msg:"maximal planar" g in
  (* A triangulation has exactly 2n - 4 faces. *)
  check "faces" ((2 * 40) - 4) (Rotation.face_count r)

let test_dense_reject_fast () =
  (* m > 3n - 6 must be rejected (the early counting bound). *)
  assert_nonplanar ~msg:"dense" (Gen.random_graph ~seed:3 ~n:12 ~m:40)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_random_planar_accepted =
  QCheck.Test.make ~name:"random planar graphs embed with genus 0" ~count:60
    QCheck.(pair (int_range 0 100000) (int_range 3 60))
    (fun (seed, n) ->
      let max_m = (3 * n) - 6 in
      let m = max (n - 1) (min max_m (n - 1 + (seed mod (max 1 (max_m - n + 2))))) in
      let g = Gen.random_planar ~seed ~n ~m in
      match Dmp.embed g with
      | Dmp.Nonplanar -> false
      | Dmp.Planar r -> Rotation.is_planar_embedding r)

let prop_label_invariance =
  QCheck.Test.make ~name:"planarity verdict is invariant under relabeling"
    ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let n = 14 in
      let g = Gen.random_graph ~seed ~n ~m:(min 24 (n * (n - 1) / 2)) in
      let perm = Gen.random_permutation ~seed:(seed + 1) n in
      Dmp.is_planar g = Dmp.is_planar (Gr.relabel g perm))

let prop_subdivision_invariance =
  QCheck.Test.make ~name:"planarity verdict is invariant under subdivision"
    ~count:30
    QCheck.(int_range 0 100000)
    (fun seed ->
      let g = Gen.random_graph ~seed ~n:10 ~m:17 in
      Dmp.is_planar g = Dmp.is_planar (Gen.subdivide g 2))

let prop_outerplanar_is_planar =
  QCheck.Test.make ~name:"generated outerplanar graphs are planar (and stay planar with an apex)"
    ~count:40
    QCheck.(pair (int_range 0 100000) (int_range 3 40))
    (fun (seed, n) ->
      let g = Gen.random_outerplanar ~seed ~n ~chord_prob:0.6 in
      (* Outerplanarity: adding an apex adjacent to every vertex keeps the
         graph planar. *)
      let apex = Gr.n g in
      let augmented =
        Gr.union_vertices g ~more:1 (List.init (Gr.n g) (fun v -> (apex, v)))
      in
      Dmp.is_planar g && Dmp.is_planar augmented)

let prop_embedding_covers_graph =
  QCheck.Test.make ~name:"DMP rotation is over the exact input graph" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let g = Gen.random_planar ~seed ~n:30 ~m:50 in
      match Dmp.embed g with
      | Dmp.Nonplanar -> false
      | Dmp.Planar r ->
          let ok = ref true in
          for v = 0 to Gr.n g - 1 do
            let rot = Rotation.rotation r v in
            if Array.length rot <> Gr.degree g v then ok := false;
            Array.iter (fun u -> if not (Gr.mem_edge g u v) then ok := false) rot
          done;
          !ok)

let prop_trees_embed_uniquely_flat =
  QCheck.Test.make ~name:"trees embed with exactly one face" ~count:40
    QCheck.(pair (int_range 0 100000) (int_range 2 50))
    (fun (seed, n) ->
      let g = Gen.random_tree ~seed n in
      match Dmp.embed g with
      | Dmp.Nonplanar -> false
      | Dmp.Planar r -> Rotation.face_count r = 1)

(* ------------------------------------------------------------------ *)
(* LR golden outputs                                                   *)
(* ------------------------------------------------------------------ *)

(* MD5 of every rotation, vertex by vertex: pins the LR kernel's exact
   output, not just its validity, so a construction-path rewrite that
   reorders a single ring fails here. The expected digests were recorded
   from the kernel before its rotation build moved onto dart ids. *)
let rotation_digest r =
  let g = Rotation.graph r in
  let b = Buffer.create 4096 in
  for v = 0 to Gr.n g - 1 do
    Array.iter
      (fun u ->
        Buffer.add_string b (string_of_int u);
        Buffer.add_char b ',')
      (Rotation.rotation r v);
    Buffer.add_char b ';'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_lr_golden () =
  List.iter
    (fun (name, g, want) ->
      match Lr.embed g with
      | Lr.Nonplanar -> Alcotest.failf "%s: LR rejected a planar graph" name
      | Lr.Planar r ->
          Alcotest.(check string) (name ^ ": rotation digest") want
            (rotation_digest r))
    [
      ("grid 12x12", Gen.grid 12 12, "f527857a6b088493efe12dc28b62d1e5");
      ( "maxplanar-400",
        Gen.random_maximal_planar ~seed:1 400,
        "ee975f0c12528c1b09bcecae00d0003a" );
      ( "outerplanar-600",
        Gen.random_outerplanar ~seed:1 ~n:600 ~chord_prob:0.5,
        "96a3587d753d9a25d2f9a454fb4beb7e" );
      ( "k4-subdivision-80",
        Gen.k4_subdivision 80,
        "ba04f43de966cbd3b3148d440eab79b5" );
    ]

(* ------------------------------------------------------------------ *)
(* LR workspace: reuse across graphs, and the ring checker             *)
(* ------------------------------------------------------------------ *)

(* Load [g]'s edges into the workspace, last edge first and each pair
   reversed (plus one duplicate when [g] has an edge), so the run must
   redo {!Gr.of_edges}' normalization, sort and deduplication. *)
let embed_in ws g =
  let es = Array.of_list (Gr.edges g) in
  let m = Array.length es in
  let dup = if m > 0 then 1 else 0 in
  let lo, hi = Lr.pairs ws ~m:(m + dup) in
  Array.iteri
    (fun i (u, v) ->
      lo.(m - 1 - i) <- v;
      hi.(m - 1 - i) <- u)
    es;
  if dup = 1 then begin
    lo.(m) <- fst es.(0);
    hi.(m) <- snd es.(0)
  end;
  Lr.embed_pairs ws ~n:(Gr.n g) ~m:(m + dup)

(* A disjoint union of graphs, renumbered side by side. *)
let disjoint gs =
  let n, es =
    List.fold_left
      (fun (base, acc) g ->
        ( base + Gr.n g,
          List.map (fun (u, v) -> (u + base, v + base)) (Gr.edges g) @ acc ))
      (0, []) gs
  in
  Gr.of_edges ~n es

(* Graphs one workspace embeds in turn, reuse and goldens alike. *)
let reuse_families =
  [
    ("grid 6x6", Gen.grid 6 6);
    ("maxplanar-300", Gen.random_maximal_planar ~seed:1 300);
    ("n = 0", Gr.empty 0);
    ("n = 1", Gr.empty 1);
    ("n = 2, m = 0", Gr.empty 2);
    ("n = 2", Gen.path 2);
    ("m = 0", Gr.empty 40);
    ("K4", Gen.complete 4);
    ( "disconnected",
      disjoint [ Gen.grid 4 5; Gr.empty 3; Gen.cycle 7; Gen.k4_subdivision 3 ] );
    (* a kernel reject in the middle, after a full orientation of a
       larger component: it leaves the arrays dirty *)
    ("grid 12x12 + K3,3", disjoint [ Gen.grid 12 12; Gen.k33 () ]);
    ("K5", Gen.k5 ());
    ("outerplanar-120", Gen.random_outerplanar ~seed:2 ~n:120 ~chord_prob:0.5);
    ("star", Gen.star 30);
    ("maxplanar-500", Gen.random_maximal_planar ~seed:4 500);
    ("tree", Gen.random_tree ~seed:3 50);
    ("k4-subdivision-80", Gen.k4_subdivision 80);
  ]

let test_workspace_reuse () =
  let ws = Lr.workspace () in
  List.iter
    (fun (name, g) ->
      let accepted = embed_in ws g in
      match Lr.embed g with
      | Lr.Nonplanar ->
          check_bool (name ^ ": rejected like Lr.embed") false accepted
      | Lr.Planar r ->
          check_bool (name ^ ": accepted like Lr.embed") true accepted;
          check (name ^ ": distinct edges") (Gr.m g) (Lr.edges ws);
          let off = Lr.offsets ws and src = Lr.sources ws and ring = Lr.ring ws in
          for v = 0 to Gr.n g - 1 do
            check (name ^ ": offsets") (Gr.dart_offsets g).(v + 1) off.(v + 1);
            let got =
              Array.init (off.(v + 1) - off.(v)) (fun i ->
                  src.(ring.(off.(v) + i)))
            in
            Alcotest.(check (array int))
              (Printf.sprintf "%s: ring of %d" name v)
              (Rotation.rotation r v) got
          done)
    reuse_families

let expect_invalid what f =
  match f () with
  | () -> Alcotest.failf "%s: ring accepted" what
  | exception Lr.Embedding_invalid _ -> ()

let test_ring_checker () =
  let ws = Lr.workspace () in
  let g = Gen.random_maximal_planar ~seed:5 60 in
  check_bool "triangulation embeds" true (embed_in ws g);
  Lr.check_ring ws;
  let off = Lr.offsets ws and ring = Lr.ring ws in
  let swap i j =
    let t = ring.(i) in
    ring.(i) <- ring.(j);
    ring.(j) <- t
  in
  (* Reordering one ring of a 3-connected plane graph leaves a rotation
     system that is not the unique planar one (nor its mirror): only the
     Euler check can see it. *)
  let v = 7 in
  let a = off.(v) and b = off.(v) + 1 in
  swap a b;
  expect_invalid "two darts swapped in one ring" (fun () -> Lr.check_ring ws);
  swap a b;
  Lr.check_ring ws;
  (* A dart of vertex 0's ring in vertex 1's, and back: both rings stop
     being permutations of their own slices. *)
  let a = off.(0) and b = off.(1) in
  swap a b;
  expect_invalid "dart moved into another vertex's ring" (fun () ->
      Lr.check_ring ws);
  swap a b;
  Lr.check_ring ws

(* ------------------------------------------------------------------ *)
(* embed_pairs goldens                                                 *)
(* ------------------------------------------------------------------ *)

(* One run's record: the verdict and, when accepted, the distinct edge
   count and the live prefixes of [offsets] (n + 1 entries), [sources]
   and [ring] (2m each). *)
let add_run b ws ~n accepted =
  let add x =
    Buffer.add_string b (string_of_int x);
    Buffer.add_char b ','
  in
  Buffer.add_char b (if accepted then 'P' else 'N');
  if accepted then begin
    let m = Lr.edges ws in
    let off = Lr.offsets ws and src = Lr.sources ws and ring = Lr.ring ws in
    add m;
    for v = 0 to n do
      add off.(v)
    done;
    for d = 0 to (2 * m) - 1 do
      add src.(d)
    done;
    for d = 0 to (2 * m) - 1 do
      add ring.(d)
    done
  end;
  Buffer.add_char b ';'

let md5 b = Digest.to_hex (Digest.string (Buffer.contents b))

(* The edges leaving [part], as (inside, outside), part by part in CSR
   order. *)
let half_edges g part =
  let in_part = Array.make (Gr.n g) false in
  List.iter (fun v -> in_part.(v) <- true) part;
  List.concat_map
    (fun v ->
      List.filter_map
        (fun w -> if in_part.(w) then None else Some (v, w))
        (Array.to_list (Gr.neighbors g v)))
    part

(* The apex instance of every BFS-subtree part of [g]: for each vertex
   [c] but the root [n - 1], the vertices under [c] in the BFS tree,
   listed and given their half edges in the shuffled orders
   test_interface's [random_part] draws with seed [c]. One install
   workspace embeds them all in turn, as the embedder's does. *)
let subtree_parts_digest g =
  let n = Gr.n g in
  let kids = Traverse.children (Traverse.bfs g (n - 1)) in
  let rec collect v = v :: List.concat_map collect kids.(v) in
  let cw = Constrained.workspace g in
  let b = Buffer.create 65536 and embedded = ref 0 in
  for c = 0 to n - 2 do
    let rng = Random.State.make [| 0x5eed; c |] in
    let shuffle l =
      List.map snd
        (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))
    in
    let part = collect c in
    let part, half = (shuffle part, shuffle (half_edges g part)) in
    Constrained.load cw ~part ~half;
    let accepted = Constrained.embed_loaded cw in
    if accepted then incr embedded;
    let p = List.length part and k = List.length half in
    add_run b (Constrained.kernel cw) ~n:(if k = 0 then p else p + k + 1)
      accepted
  done;
  check "every subtree part embeds" (n - 1) !embedded;
  md5 b

(* MD5s of embed_pairs' full output, recorded before the kernel's
   per-phase rewrite: it must reproduce every ring bit for bit. *)
let test_embed_pairs_golden () =
  let ws = Lr.workspace () in
  List.iter2
    (fun (name, g) want ->
      let b = Buffer.create 4096 in
      add_run b ws ~n:(Gr.n g) (embed_in ws g);
      Alcotest.(check string) (name ^ ": embed_pairs digest") want (md5 b))
    reuse_families
    [
      "97934b334539d275a64ead9023c4923c";
      "ee7757ee360e92d44f77b6f5ddce1834";
      "afae06b0c600c9f4b5c0513f7f95c06c";
      "c86669bb0dc90d91100222996557088c";
      "9ea2909ad0b79d1f51f30059d264550f";
      "94565aadcec22154b9ea8f93efea8cda";
      "65146cce11974822f42d5460bbf76029";
      "363146686f603b27979176f394a9b175";
      "a6ad089fb64bc9ea6aae2e3f787a8a19";
      "dcca48101505dd86b703689a604fe3c4";
      "dcca48101505dd86b703689a604fe3c4";
      "f06fec6fe03165cca19d89e86dd943ed";
      "47052eb776cb988acd133ea596f618c2";
      "eeeb29f9031bd04a38a81c34f47d64cc";
      "5b90dcf7c319a3fc1b3501b80cb5f45d";
      "9e2f2174e3d7d1f14684530057206461";
    ];
  List.iter
    (fun (name, g, want) ->
      Alcotest.(check string) (name ^ ": subtree parts digest") want
        (subtree_parts_digest g))
    [
      ( "maxplanar-400",
        Gen.random_maximal_planar ~seed:1 400,
        "b707dd8d8ed036d8499394f4647995ef" );
      ( "outerplanar-600",
        Gen.random_outerplanar ~seed:1 ~n:600 ~chord_prob:0.5,
        "2f4d5a67980565a6d5a67cef8d89931b" );
    ];
  check_bool "K5 rejected" false (embed_in (Lr.workspace ()) (Gen.k5 ()));
  check_bool "K3,3 rejected" false (embed_in (Lr.workspace ()) (Gen.k33 ()))

(* ------------------------------------------------------------------ *)
(* LR workspace contracts: reuse and allocation                        *)
(* ------------------------------------------------------------------ *)

(* [embed_pairs] on the pairs [l] of an [n]-vertex graph: the verdict and
   the run's record (see [add_run]). *)
let embed_list ws ~n l =
  let m = List.length l in
  let lo, hi = Lr.pairs ws ~m in
  List.iteri
    (fun i (u, v) ->
      lo.(i) <- u;
      hi.(i) <- v)
    l;
  let accepted = Lr.embed_pairs ws ~n ~m in
  let b = Buffer.create 1024 in
  add_run b ws ~n accepted;
  (accepted, Buffer.contents b)

(* A random pair list on [n] vertices: a planar graph (maximal planar or
   outerplanar on a prefix of the vertices, the rest isolated) or random
   pairs, planar or not; each pair reversed with probability 1/2, about
   one in six repeated, all shuffled. *)
let random_pair_list rng n =
  let base =
    match Random.State.int rng 3 with
    | 0 when n >= 3 ->
        Gr.edges
          (Gen.random_maximal_planar ~seed:(Random.State.bits rng)
             (3 + Random.State.int rng (n - 2)))
    | 1 when n >= 3 ->
        Gr.edges
          (Gen.random_outerplanar ~seed:(Random.State.bits rng)
             ~n:(3 + Random.State.int rng (n - 2))
             ~chord_prob:0.5)
    | _ when n >= 2 ->
        List.init (Random.State.int rng ((3 * n) + 1)) (fun _ ->
            let u = Random.State.int rng n in
            (u, (u + 1 + Random.State.int rng (n - 1)) mod n))
    | _ -> []
  in
  let l =
    List.concat_map
      (fun (u, v) ->
        let p = if Random.State.bool rng then (u, v) else (v, u) in
        if Random.State.int rng 6 = 0 then [ p; (snd p, fst p) ] else [ p ])
      base
  in
  List.map snd
    (List.sort compare (List.map (fun p -> (Random.State.bits rng, p)) l))

(* One workspace for every case of the property, so each run starts on
   the arrays the previous cases (a K5 reject included) left behind. *)
let dirty_ws = Lr.workspace ()

let prop_dirty_workspace_matches_fresh =
  QCheck.Test.make
    ~name:"embed_pairs on a dirty reused workspace = on a fresh one"
    ~count:300
    QCheck.(pair (int_range 0 100000) (int_range 0 40))
    (fun (seed, n) ->
      let rng = Random.State.make [| 0x1a; seed |] in
      let n = if seed mod 5 = 0 then seed / 5 mod 3 else n in
      let l = random_pair_list rng n in
      ignore (embed_in dirty_ws (if seed mod 2 = 0 then Gen.k5 () else Gen.grid 7 9));
      embed_list dirty_ws ~n l = embed_list (Lr.workspace ()) ~n l)

(* A warm workspace's run allocates nothing that grows with the graph:
   the words read are the counter's own and the call's. *)
let test_embed_pairs_allocation () =
  List.iter
    (fun (name, g) ->
      let n = Gr.n g and m = Gr.m g in
      let ws = Lr.workspace () in
      let load () =
        let lo, hi = Lr.pairs ws ~m in
        List.iteri
          (fun i (u, v) ->
            lo.(i) <- u;
            hi.(i) <- v)
          (Gr.edges g)
      in
      load ();
      check_bool (name ^ ": embeds") true (Lr.embed_pairs ws ~n ~m);
      load ();
      let accepted, words = Words.of_call (fun () -> Lr.embed_pairs ws ~n ~m) in
      check_bool (name ^ ": embeds warm") true accepted;
      if words > 64. then
        Alcotest.failf "%s: a warm embed_pairs allocated %.0f words (gate: 64)"
          name words)
    [
      ("grid-40", Gen.grid 40 40);
      ("maxplanar-2000", Gen.random_maximal_planar ~seed:2042 2000);
      ( "outerplanar-5000",
        Gen.random_outerplanar ~seed:5007 ~n:5000 ~chord_prob:0.5 );
    ]

let () =
  Alcotest.run "planarity"
    [
      ( "dmp-units",
        [
          Alcotest.test_case "planar families" `Quick test_planar_families;
          Alcotest.test_case "nonplanar families" `Quick test_nonplanar_families;
          Alcotest.test_case "subdivision" `Quick test_subdivision_preserves;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "blocks" `Quick test_blocks_combined;
          Alcotest.test_case "triangulation faces" `Quick
            test_maximal_planar_face_count;
          Alcotest.test_case "dense reject" `Quick test_dense_reject_fast;
        ] );
      ("lr-golden", [ Alcotest.test_case "rotation digests" `Quick test_lr_golden ]);
      ( "lr-workspace",
        [
          Alcotest.test_case "one workspace across graphs" `Quick
            test_workspace_reuse;
          Alcotest.test_case "ring checker rejects corruption" `Quick
            test_ring_checker;
          Alcotest.test_case "embed_pairs digests" `Quick
            test_embed_pairs_golden;
          Alcotest.test_case "warm embed_pairs allocation" `Quick
            test_embed_pairs_allocation;
          QCheck_alcotest.to_alcotest prop_dirty_workspace_matches_fresh;
        ] );
      ( "dmp-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_random_planar_accepted;
            prop_label_invariance;
            prop_subdivision_invariance;
            prop_outerplanar_is_planar;
            prop_embedding_covers_graph;
            prop_trees_embed_uniquely_flat;
          ] );
    ]
