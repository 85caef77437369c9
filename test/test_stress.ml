(* Stress and failure-injection tests: extreme shapes (deep paths, huge
   stars, bridge-heavy caterpillars), tight bandwidth budgets, determinism
   of the pipeline, and degenerate sizes. These guard the iterative
   implementations (no stack overflows on Theta(n)-diameter graphs) and
   the simulator's model enforcement. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let embed_verified g =
  match (Embedder.run g).Embedder.rotation with
  | None -> Alcotest.fail "planar input rejected"
  | Some r ->
      check_bool "genus 0" true (Rotation.is_planar_embedding r);
      r

(* ------------------------------------------------------------------ *)
(* Extreme shapes                                                      *)
(* ------------------------------------------------------------------ *)

let test_long_path () =
  (* Theta(n) diameter: exercises the iterative DFS/BFS code paths and the
     D-branch of min(log n, D). *)
  ignore (embed_verified (Gen.path 3000))

let test_long_cycle () = ignore (embed_verified (Gen.cycle 2500))

let test_huge_star () =
  let r = embed_verified (Gen.star 2000) in
  check "hub degree" 1999 (Array.length (Rotation.rotation r 0))

let test_caterpillar () =
  (* A path with a leaf at every vertex: n-1 bridges, every internal
     vertex is a cut vertex. *)
  let n = 500 in
  let spine = List.init (n - 1) (fun i -> (i, i + 1)) in
  let legs = List.init n (fun i -> (i, n + i)) in
  let g = Gr.of_edges ~n:(2 * n) (spine @ legs) in
  ignore (embed_verified g)

let test_deep_binary_tree () = ignore (embed_verified (Gen.binary_tree 2047))

let test_dense_maximal_planar () =
  let g = Gen.random_maximal_planar ~seed:31 1500 in
  let r = embed_verified g in
  (* Triangulations have exactly 2n - 4 faces. *)
  check "faces" ((2 * 1500) - 4) (Rotation.face_count r)

let test_large_nonplanar_rejected () =
  (* A big planar graph with one K5 wired into a corner. *)
  let g = Gen.random_maximal_planar ~seed:5 800 in
  let off = Gr.n g in
  let k5 = List.map (fun (u, v) -> (u + off, v + off)) (Gr.edges (Gen.k5 ())) in
  let bad = Gr.of_edges ~n:(off + 5) (((0, off) :: k5) @ Gr.edges g) in
  check_bool "rejected" true ((Embedder.run bad).Embedder.rotation = None)

(* ------------------------------------------------------------------ *)
(* Bandwidth limits                                                    *)
(* ------------------------------------------------------------------ *)

let test_tight_bandwidth_ok () =
  (* The election messages are exactly 2 words; a budget of exactly two
     words must work and simply cost more rounds downstream. *)
  let g = Gen.grid 5 5 in
  let word = Part.word g in
  let o =
    Embedder.run ~config:(Network.Config.make ~bandwidth:(2 * word) ()) g
  in
  check_bool "planar" true (o.Embedder.rotation <> None);
  let fat =
    Embedder.run ~config:(Network.Config.make ~bandwidth:(64 * word) ()) g
  in
  check_bool "tight costs at least as much" true
    (o.Embedder.report.Embedder.rounds
    >= fat.Embedder.report.Embedder.rounds)

let test_too_tight_bandwidth_detected () =
  (* One word cannot carry the 2-word election message: the simulator must
     enforce the model rather than silently cheat. *)
  let g = Gen.grid 4 4 in
  let word = Part.word g in
  (try
     ignore (Embedder.run ~config:(Network.Config.make ~bandwidth:word ()) g);
     Alcotest.fail "expected Bandwidth_exceeded"
   with Network.Bandwidth_exceeded _ -> ())

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let rotations_equal r1 r2 g =
  let ok = ref true in
  for v = 0 to Gr.n g - 1 do
    if Rotation.rotation r1 v <> Rotation.rotation r2 v then ok := false
  done;
  !ok

let test_deterministic () =
  (* The algorithm is deterministic: two runs agree bit for bit. *)
  let g = Gen.random_maximal_planar ~seed:77 300 in
  let r1 = embed_verified g and r2 = embed_verified g in
  check_bool "same rotations" true (rotations_equal r1 r2 g);
  let o1 = Embedder.run g and o2 = Embedder.run g in
  check "same rounds" o1.Embedder.report.Embedder.rounds
    o2.Embedder.report.Embedder.rounds

(* ------------------------------------------------------------------ *)
(* Degenerate sizes                                                    *)
(* ------------------------------------------------------------------ *)

let test_tiny_graphs () =
  for n = 1 to 6 do
    let g = Gen.path n in
    ignore (embed_verified g)
  done;
  ignore (embed_verified (Gen.cycle 3));
  (try
     ignore (Embedder.run (Gr.empty 0));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_separator_tiny () =
  List.iter
    (fun n ->
      let s = Separator.separate (Gen.path n) in
      check_bool "check" true (Separator.check (Gen.path n) s))
    [ 1; 2; 3; 4; 5 ]

let test_mst_negative_weights () =
  let g = Gen.grid 4 4 in
  let weight u v = ((u * 13) + (v * 7)) mod 11 - 5 in
  let (mst, _) = Mst.run ~weight g in
  check_bool "matches kruskal" true
    (List.sort compare mst = List.sort compare (Mst.kruskal ~weight g))

(* ------------------------------------------------------------------ *)
(* Checks at depth                                                    *)
(* ------------------------------------------------------------------ *)

let test_checks_medium () =
  (* The most heavily instrumented configuration on a non-toy input. *)
  let g = Gen.random_planar ~seed:3 ~n:250 ~m:480 in
  let o = Embedder.run ~checks:true g in
  (match o.Embedder.rotation with
  | Some r -> check_bool "genus 0" true (Rotation.is_planar_embedding r)
  | None -> Alcotest.fail "rejected planar input");
  check_bool "many validated merges" true
    (o.Embedder.report.Embedder.safety_checks > 100)

let test_grid_shapes () =
  List.iter
    (fun (r, c) -> ignore (embed_verified (Gen.grid r c)))
    [ (1, 50); (2, 40); (3, 3); (50, 2); (7, 31) ]

let () =
  Alcotest.run "stress"
    [
      ( "shapes",
        [
          Alcotest.test_case "long path" `Quick test_long_path;
          Alcotest.test_case "long cycle" `Quick test_long_cycle;
          Alcotest.test_case "huge star" `Quick test_huge_star;
          Alcotest.test_case "caterpillar" `Quick test_caterpillar;
          Alcotest.test_case "deep binary tree" `Quick test_deep_binary_tree;
          Alcotest.test_case "dense maximal planar" `Quick
            test_dense_maximal_planar;
          Alcotest.test_case "large nonplanar" `Quick
            test_large_nonplanar_rejected;
          Alcotest.test_case "grid shapes" `Quick test_grid_shapes;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "tight ok" `Quick test_tight_bandwidth_ok;
          Alcotest.test_case "too tight detected" `Quick
            test_too_tight_bandwidth_detected;
        ] );
      ( "determinism",
        [ Alcotest.test_case "bit-identical runs" `Quick test_deterministic ] );
      ( "degenerate",
        [
          Alcotest.test_case "tiny graphs" `Quick test_tiny_graphs;
          Alcotest.test_case "tiny separators" `Quick test_separator_tiny;
          Alcotest.test_case "negative weights" `Quick test_mst_negative_weights;
        ] );
      ( "instrumented",
        [
          Alcotest.test_case "faithful+checks" `Quick
            test_checks_medium;
        ] );
    ]
