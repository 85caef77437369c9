(* Property tests for the Lemma 5.3 symmetry-breaking routine: star groups
   must be disjoint induced stars of size >= 2, path groups must be
   color-monotone paths, and together they must cover every node exactly
   once. Inputs are the outerplanar part graphs the embedder feeds it. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let distinct_colors n = Array.init n (fun i -> i)

let test_single_node () =
  let g = Gr.empty 1 in
  let grp = Symmetry.compute g ~colors:[| 0 |] in
  check "no stars" 0 (List.length grp.Symmetry.stars);
  check "one singleton path" 1 (List.length grp.Symmetry.paths);
  check_bool "valid" true (Symmetry.check g ~colors:[| 0 |] grp)

let test_single_edge () =
  let g = Gen.path 2 in
  let colors = [| 1; 0 |] in
  let grp = Symmetry.compute g ~colors in
  check_bool "valid" true (Symmetry.check g ~colors grp);
  (* Both nodes end up grouped together (star or 2-path). *)
  let covered =
    List.length grp.Symmetry.stars + List.length grp.Symmetry.paths
  in
  check "one group" 1 covered

let test_improper_coloring_rejected () =
  let g = Gen.path 2 in
  (try
     ignore (Symmetry.compute g ~colors:[| 3; 3 |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_star_graph () =
  (* Star with center colored 0: all leaves point to the center. *)
  let g = Gen.star 6 in
  let colors = distinct_colors 6 in
  let grp = Symmetry.compute g ~colors in
  check_bool "valid" true (Symmetry.check g ~colors grp);
  (match grp.Symmetry.stars with
  | [ (0, leaves) ] -> check "all leaves" 5 (List.length leaves)
  | _ -> Alcotest.fail "expected one star centered at 0")

let test_monotone_path_graph () =
  (* A path colored decreasingly: nodes chain toward the minimum. *)
  let n = 7 in
  let g = Gen.path n in
  let colors = Array.init n (fun i -> n - i) in
  let grp = Symmetry.compute g ~colors in
  check_bool "valid" true (Symmetry.check g ~colors grp)

(* Nodes of [grp] in a star or in a path of two or more nodes. *)
let grouped_count grp =
  List.fold_left
    (fun acc (_, leaves) -> acc + 1 + List.length leaves)
    0 grp.Symmetry.stars
  + List.fold_left
      (fun acc p -> if List.length p >= 2 then acc + List.length p else acc)
      0 grp.Symmetry.paths

let test_crowded_pointer_targets () =
  (* Two 9-node outerplanar graphs (Gen.random_outerplanar, chord
     probability 0.5, seeds 2580 and 45696) where many nodes point at one
     node that is no local minimum. Keeping one of them for a path, or
     the lowest-id claimant of a star, grouped 4 of the 9 nodes. *)
  List.iter
    (fun (name, colors, edges) ->
      let g = Gr.of_edges ~n:9 edges in
      let grp = Symmetry.compute g ~colors in
      check_bool (name ^ ": valid") true (Symmetry.check g ~colors grp);
      check_bool (name ^ ": at least half grouped") true
        (2 * grouped_count grp >= 9))
    [
      ( "seed 2580",
        [| 8; 4; 5; 0; 1; 6; 3; 7; 2 |],
        [ (0, 1); (0, 4); (0, 8); (1, 2); (2, 3); (2, 4); (3, 4); (4, 5);
          (4, 7); (4, 8); (5, 6); (6, 7); (7, 8) ] );
      ( "seed 45696",
        [| 8; 3; 6; 4; 7; 0; 1; 2; 5 |],
        [ (0, 1); (0, 2); (0, 7); (0, 8); (1, 2); (2, 3); (2, 7); (3, 4);
          (4, 5); (4, 6); (5, 6); (6, 7); (7, 8) ] );
    ]

let prop_valid_on_outerplanar =
  QCheck.Test.make ~name:"grouping is valid on random outerplanar graphs"
    ~count:120
    QCheck.(pair (int_range 0 100000) (int_range 3 60))
    (fun (seed, n) ->
      let g = Gen.random_outerplanar ~seed ~n ~chord_prob:0.4 in
      let colors = Gen.random_permutation ~seed:(seed + 1) n in
      let grp = Symmetry.compute g ~colors in
      Symmetry.check g ~colors grp)

let prop_valid_on_trees =
  QCheck.Test.make ~name:"grouping is valid on random trees" ~count:80
    QCheck.(pair (int_range 0 100000) (int_range 1 60))
    (fun (seed, n) ->
      let g = Gen.random_tree ~seed n in
      let colors = Gen.random_permutation ~seed:(seed + 3) n in
      let grp = Symmetry.compute g ~colors in
      Symmetry.check g ~colors grp)

let prop_progress_on_outerplanar =
  (* The point of the routine (property (1) in Section 5.3): most parts
     get to merge. We require that at least half the non-isolated nodes
     land in a group of size >= 2 — empirically the routine does much
     better; this guards against regressions that silently stop merging. *)
  QCheck.Test.make ~name:"at least half the non-isolated nodes are grouped"
    ~count:60
    QCheck.(pair (int_range 0 100000) (int_range 4 60))
    (fun (seed, n) ->
      let g = Gen.random_outerplanar ~seed ~n ~chord_prob:0.5 in
      let colors = Gen.random_permutation ~seed:(seed + 7) n in
      let grp = Symmetry.compute g ~colors in
      let grouped = Hashtbl.create n in
      List.iter
        (fun (c, leaves) ->
          Hashtbl.replace grouped c ();
          List.iter (fun v -> Hashtbl.replace grouped v ()) leaves)
        grp.Symmetry.stars;
      List.iter
        (fun p ->
          if List.length p >= 2 then
            List.iter (fun v -> Hashtbl.replace grouped v ()) p)
        grp.Symmetry.paths;
      let non_isolated = ref 0 in
      for v = 0 to n - 1 do
        if Gr.degree g v > 0 then incr non_isolated
      done;
      2 * Hashtbl.length grouped >= !non_isolated)

let prop_paths_are_monotone_and_real =
  QCheck.Test.make ~name:"path groups follow edges with decreasing colors"
    ~count:80
    QCheck.(int_range 0 100000)
    (fun seed ->
      let n = 30 in
      let g = Gen.random_outerplanar ~seed ~n ~chord_prob:0.3 in
      let colors = Gen.random_permutation ~seed:(seed + 11) n in
      let grp = Symmetry.compute g ~colors in
      List.for_all
        (fun path ->
          let rec go = function
            | a :: (b :: _ as rest) ->
                Gr.mem_edge g a b && colors.(b) < colors.(a) && go rest
            | [ _ ] | [] -> true
          in
          go path)
        grp.Symmetry.paths)

let () =
  Alcotest.run "symmetry"
    [
      ( "units",
        [
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "single edge" `Quick test_single_edge;
          Alcotest.test_case "improper coloring" `Quick
            test_improper_coloring_rejected;
          Alcotest.test_case "star graph" `Quick test_star_graph;
          Alcotest.test_case "monotone path" `Quick test_monotone_path_graph;
          Alcotest.test_case "crowded pointer targets" `Quick
            test_crowded_pointer_targets;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_valid_on_outerplanar;
            prop_valid_on_trees;
            prop_progress_on_outerplanar;
            prop_paths_are_monotone_and_real;
          ] );
    ]
