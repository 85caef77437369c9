(* Unit and property tests for the graph substrate: Gr, Unionfind,
   Traverse, Bicon, Rotation, Gen. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Gr                                                                  *)
(* ------------------------------------------------------------------ *)

let test_of_edges_dedup () =
  let g = Gr.of_edges ~n:3 [ (0, 1); (1, 0); (0, 1); (1, 2) ] in
  check "m" 2 (Gr.m g);
  check "deg 1" 2 (Gr.degree g 1)

let test_self_loop_rejected () =
  Alcotest.check_raises "self-loop" (Invalid_argument "Gr.normalize_edge: self-loop")
    (fun () -> ignore (Gr.of_edges ~n:2 [ (1, 1) ]))

let test_out_of_range_rejected () =
  (try
     ignore (Gr.of_edges ~n:2 [ (0, 5) ]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* Random edge lists over [0, n) with duplicates and reversed pairs
   mixed in; [of_edges] must agree with the obvious sort-and-dedup. *)
let random_edge_list rng n len =
  List.init len (fun _ ->
      let u = Random.State.int rng n in
      let v = (u + 1 + Random.State.int rng (n - 1)) mod n in
      (u, v))
  |> List.concat_map (fun (u, v) ->
         match Random.State.int rng 4 with
         | 0 -> [ (u, v); (v, u) ]
         | 1 -> [ (u, v); (u, v) ]
         | _ -> [ (u, v) ])

let prop_of_edges_matches_sort_uniq =
  QCheck.Test.make ~name:"of_edges: edges = sort_uniq of normalized pairs"
    ~count:200
    QCheck.(triple (int_range 0 100000) (int_range 2 40) (int_range 0 120))
    (fun (seed, n, len) ->
      let rng = Random.State.make [| seed |] in
      let l = random_edge_list rng n len in
      let g = Gr.of_edges ~n l in
      let want =
        List.sort_uniq compare (List.map (fun (u, v) -> (min u v, max u v)) l)
      in
      Gr.edges g = want && Gr.m g = List.length want)

let prop_of_edges_rejects_bad_pairs =
  QCheck.Test.make ~name:"of_edges: a bad pair anywhere raises Invalid_argument"
    ~count:100
    QCheck.(pair (int_range 0 100000) (int_range 2 30))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let l = random_edge_list rng n 20 in
      let at = Random.State.int rng (List.length l + 1) in
      let u = Random.State.int rng n in
      List.for_all
        (fun bad ->
          let l' =
            List.filteri (fun i _ -> i < at) l
            @ (bad :: List.filteri (fun i _ -> i >= at) l)
          in
          match Gr.of_edges ~n l' with
          | _ -> false
          | exception Invalid_argument _ -> true)
        [ (u, u); (u, n); (n + 3, u); (-1, u); (u, -2) ])

let test_of_edges_linear () =
  (* O(n + m) construction: the counting passes and the CSR arrays are
     O(n + m) words, so n -> 4n grows allocation ~4x on both shapes; any
     temporary growing faster than n + m would blow the 5x bound. *)
  let k = 5000 in
  List.iter
    (fun (name, edges) ->
      let l1 = edges k and l4 = edges (4 * k) in
      let _, w1 = Words.of_call (fun () -> Gr.of_edges ~n:k l1) in
      let _, w4 = Words.of_call (fun () -> Gr.of_edges ~n:(4 * k) l4) in
      if w4 > 5. *. w1 then
        Alcotest.failf
          "of_edges on a %s: allocation grew %.1fx (%.0f -> %.0f words) at 4n"
          name (w4 /. w1) w1 w4)
    [
      ("path", fun n -> List.init (n - 1) (fun i -> (i + 1, i)));
      ("star", fun n -> List.init (n - 1) (fun i -> (i + 1, 0)));
    ]

let test_neighbors_sorted () =
  let g = Gr.of_edges ~n:5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] (Gr.neighbors g 2)

let test_mem_edge () =
  let g = Gr.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  check_bool "0-1" true (Gr.mem_edge g 0 1);
  check_bool "1-0" true (Gr.mem_edge g 1 0);
  check_bool "0-2" false (Gr.mem_edge g 0 2);
  check_bool "0-0" false (Gr.mem_edge g 0 0)

let test_edge_index_roundtrip () =
  let g = Gen.grid 3 4 in
  List.iter
    (fun (u, v) ->
      let i = Gr.edge_index g u v in
      Alcotest.(check (pair int int)) "roundtrip" (u, v) (Gr.edge_of_index g i);
      check "sym" i (Gr.edge_index g v u))
    (Gr.edges g)

let test_iter_fold_neighbors () =
  let g = Gr.of_edges ~n:5 [ (2, 4); (2, 0); (2, 3); (2, 1); (0, 1) ] in
  for v = 0 to 4 do
    let seen = ref [] in
    Gr.iter_neighbors g v (fun w -> seen := w :: !seen);
    Alcotest.(check (array int))
      "iter matches neighbors" (Gr.neighbors g v)
      (Array.of_list (List.rev !seen));
    check "fold counts degree" (Gr.degree g v)
      (Gr.fold_neighbors g v ~init:0 ~f:(fun acc _ -> acc + 1))
  done

let test_darts () =
  let g = Gen.grid 3 4 in
  check "2m darts" (2 * Gr.m g) (Gr.darts g);
  let xadj = Gr.dart_offsets g in
  let srcs = Gr.dart_sources g in
  let dedge = Gr.dart_edges g in
  check "offsets length" (Gr.n g + 1) (Array.length xadj);
  for v = 0 to Gr.n g - 1 do
    (* A vertex's in-darts are its CSR slice: sources ascending, and each
       dart resolves back to its undirected edge. *)
    for i = xadj.(v) to xadj.(v + 1) - 1 do
      let u = srcs.(i) in
      check "dart lookup" i (Gr.dart g ~src:u ~dst:v);
      check "dart_src" u (Gr.dart_src g i);
      check "dart_edge" (Gr.edge_index g u v) (Gr.dart_edge g i);
      check "dart_edge (accessor array)" dedge.(i) (Gr.dart_edge g i);
      if i > xadj.(v) then
        check_bool "sources ascending" true (srcs.(i - 1) < u)
    done
  done;
  (try
     ignore (Gr.dart g ~src:0 ~dst:11);
     Alcotest.fail "expected Not_found"
   with Not_found -> ())

let test_induced () =
  let g = Gen.cycle 6 in
  let (h, old_of_new, new_of_old) = Gr.induced g [ 0; 1; 2; 4 ] in
  check "n" 4 (Gr.n h);
  check "m" 2 (Gr.m h);
  (* edges 0-1 and 1-2 survive; 4 is isolated *)
  check_bool "0-1" true (Gr.mem_edge h (new_of_old 0) (new_of_old 1));
  check_bool "1-2" true (Gr.mem_edge h (new_of_old 1) (new_of_old 2));
  check "back" 4 old_of_new.(new_of_old 4)

let test_induced_duplicate_rejected () =
  (try
     ignore (Gr.induced (Gen.path 3) [ 0; 0 ]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_union_vertices () =
  let g = Gen.path 3 in
  let h = Gr.union_vertices g ~more:2 [ (3, 0); (4, 2); (3, 4) ] in
  check "n" 5 (Gr.n h);
  check "m" 5 (Gr.m h)

let test_relabel_preserves_degrees () =
  let g = Gen.random_connected_graph ~seed:7 ~n:20 ~m:40 in
  let perm = Gen.random_permutation ~seed:3 20 in
  let h = Gr.relabel g perm in
  for v = 0 to 19 do
    check "degree" (Gr.degree g v) (Gr.degree h perm.(v))
  done

(* ------------------------------------------------------------------ *)
(* Unionfind                                                           *)
(* ------------------------------------------------------------------ *)

let test_unionfind_basic () =
  let uf = Unionfind.create 5 in
  check "count" 5 (Unionfind.count uf);
  check_bool "union" true (Unionfind.union uf 0 1);
  check_bool "re-union" false (Unionfind.union uf 1 0);
  check_bool "same" true (Unionfind.same uf 0 1);
  check_bool "not same" false (Unionfind.same uf 0 2);
  check "count after" 4 (Unionfind.count uf)

let prop_unionfind_vs_naive =
  QCheck.Test.make ~name:"unionfind agrees with naive labels" ~count:100
    QCheck.(pair (int_range 1 30) (list (pair (int_range 0 29) (int_range 0 29))))
    (fun (n, ops) ->
      let ops = List.map (fun (a, b) -> (a mod n, b mod n)) ops in
      let uf = Unionfind.create n in
      let label = Array.init n (fun i -> i) in
      let relabel a b =
        let la = label.(a) and lb = label.(b) in
        if la <> lb then
          Array.iteri (fun i l -> if l = lb then label.(i) <- la) label
      in
      List.iter
        (fun (a, b) ->
          ignore (Unionfind.union uf a b);
          relabel a b)
        ops;
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Unionfind.same uf a b <> (label.(a) = label.(b)) then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Traverse                                                            *)
(* ------------------------------------------------------------------ *)

let test_bfs_path () =
  let g = Gen.path 6 in
  let t = Traverse.bfs g 0 in
  for v = 0 to 5 do
    check "dist" v t.Traverse.dist.(v)
  done;
  check "depth" 5 (Traverse.depth t)

let test_bfs_grid_distances () =
  let g = Gen.grid 4 5 in
  let t = Traverse.bfs g 0 in
  (* Manhattan distance from corner 0 = (r, c) -> r + c *)
  for r = 0 to 3 do
    for c = 0 to 4 do
      check "manhattan" (r + c) t.Traverse.dist.((r * 5) + c)
    done
  done

let test_tree_path () =
  let g = Gen.path 5 in
  let t = Traverse.bfs g 0 in
  Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] (Traverse.tree_path t 3)

let test_subtree_sizes () =
  let g = Gen.binary_tree 7 in
  let t = Traverse.bfs g 0 in
  let sz = Traverse.subtree_sizes g t in
  check "root" 7 sz.(0);
  check "leaf" 1 sz.(6);
  check "internal" 3 sz.(1)

let test_components () =
  let g = Gr.of_edges ~n:6 [ (0, 1); (2, 3); (3, 4) ] in
  check "count" 3 (List.length (Traverse.components g));
  check_bool "connected" false (Traverse.is_connected g);
  check_bool "path connected" true (Traverse.is_connected (Gen.path 4))

(* Reference: one [Traverse.bfs] per component, the per-component
   Θ(n)-allocation formulation [components] replaced. *)
let components_reference g =
  let n = Gr.n g in
  let seen = Array.make n false in
  let comps = ref [] in
  for v = 0 to n - 1 do
    if not seen.(v) then begin
      let comp = Array.to_list (Traverse.bfs g v).Traverse.order in
      List.iter (fun w -> seen.(w) <- true) comp;
      comps := comp :: !comps
    end
  done;
  List.rev !comps

let prop_components_match_reference =
  QCheck.Test.make ~name:"components: same lists, same order as per-component bfs"
    ~count:100
    QCheck.(pair (int_range 0 10000) (int_range 0 60))
    (fun (seed, m) ->
      let g = Gen.random_graph ~seed ~n:40 ~m in
      Traverse.components g = components_reference g)

(* Many components: [k] disjoint edges plus [k] isolated vertices. *)
let many_components k =
  Gr.of_edges ~n:(3 * k) (List.init k (fun i -> (3 * i, (3 * i) + 1)))

let test_components_linear () =
  (* Total allocation, not only minor words: length-n arrays go straight
     to the major heap, so a per-component O(n) array would not show in
     the minor count. Allocation is deterministic; wall time is not. *)
  let k = 2000 in
  let g1 = many_components k and g4 = many_components (4 * k) in
  check "components at n" (2 * k) (List.length (Traverse.components g1));
  let _, w1 = Words.of_call (fun () -> Traverse.components g1) in
  let _, w4 = Words.of_call (fun () -> Traverse.components g4) in
  if w4 > 5. *. w1 then
    Alcotest.failf "components allocation grew %.1fx (%.0f -> %.0f words) at 4n"
      (w4 /. w1) w1 w4

let test_diameter_cycle () =
  check "even cycle" 4 (Traverse.diameter (Gen.cycle 8));
  check "odd cycle" 4 (Traverse.diameter (Gen.cycle 9));
  check "path" 7 (Traverse.diameter (Gen.path 8))

let test_diameter_k4_subdivision () =
  (* Two branch vertices are 2*s apart via... actually the farthest pair are
     midpoints of two disjoint segments: distance ~ s + s = 2s when s even.
     Just sanity-check the scaling: D grows linearly in s. *)
  let d3 = Traverse.diameter (Gen.k4_subdivision 3) in
  let d9 = Traverse.diameter (Gen.k4_subdivision 9) in
  check_bool "linear growth" true (d9 >= (2 * d3) + 2)

(* iFUB against the all-pairs oracle: every generator family (the
   connected ones whole, the disconnected random graph by component),
   paths, stars and n in {1, 2}. *)
let test_diameter_ifub_vs_all_pairs () =
  let connected =
    [
      ("n=1", Gr.empty 1);
      ("n=2", Gen.path 2);
      ("path 1", Gen.path 1);
      ("path 57", Gen.path 57);
      ("star 2", Gen.star 2);
      ("star 40", Gen.star 40);
      ("cycle 31", Gen.cycle 31);
      ("complete 6", Gen.complete 6);
      ("k3,5", Gen.complete_bipartite 3 5);
      ("wheel 20", Gen.wheel 20);
      ("ladder 25", Gen.ladder 25);
      ("fan 18", Gen.fan 18);
      ("grid 9x13", Gen.grid 9 13);
      ("trigrid 8x11", Gen.triangular_grid 8 11);
      ("torus 6x7", Gen.toroidal_grid 6 7);
      ("binary tree 6", Gen.binary_tree 6);
      ("k5", Gen.k5 ());
      ("k33", Gen.k33 ());
      ("petersen", Gen.petersen ());
      ("k4 subdivision 7", Gen.k4_subdivision 7);
      ("subdivided wheel", Gen.subdivide (Gen.wheel 9) 3);
    ]
  in
  let random =
    List.concat_map
      (fun seed ->
        [
          ("tree", Gen.random_tree ~seed 90);
          ("maxplanar", Gen.random_maximal_planar ~seed 120);
          ("planar", Gen.random_planar ~seed ~n:100 ~m:160);
          ("outerplanar", Gen.random_outerplanar ~seed ~n:110 ~chord_prob:0.3);
          ("connected", Gen.random_connected_graph ~seed ~n:80 ~m:100);
        ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let sparse =
    List.concat_map
      (fun seed ->
        let g = Gen.random_graph ~seed ~n:90 ~m:80 in
        List.map
          (fun vs ->
            let c, _, _ = Gr.induced g vs in
            ("random component", c))
          (Traverse.components g))
      [ 1; 2; 3 ]
  in
  List.iter
    (fun (name, g) ->
      check name (All_pairs.diameter g) (Traverse.diameter g))
    (connected @ random @ sparse);
  check "empty graph" 0 (Traverse.diameter (Gr.empty 0));
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Traverse.diameter: disconnected graph") (fun () ->
      ignore (Traverse.diameter (Gr.of_edges ~n:4 [ (0, 1); (2, 3) ])))

let prop_diameter_bracket =
  QCheck.Test.make ~name:"diameter_bracket: lo <= diameter <= hi <= 2 lo"
    ~count:100
    QCheck.(pair (int_range 0 100000) (int_range 3 60))
    (fun (seed, n) ->
      let g =
        match seed mod 3 with
        | 0 -> Gen.random_tree ~seed n
        | 1 -> Gen.random_outerplanar ~seed ~n ~chord_prob:0.3
        | _ -> Gen.random_maximal_planar ~seed n
      in
      let lo, hi = Traverse.diameter_bracket g in
      let d = Traverse.diameter g in
      lo <= d && d <= hi && hi <= 2 * lo)

let test_diameter_bracket_errors () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Traverse.diameter_bracket: empty graph") (fun () ->
      ignore (Traverse.diameter_bracket (Gr.empty 0)));
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Traverse.diameter_bracket: disconnected graph")
    (fun () ->
      ignore (Traverse.diameter_bracket (Gr.of_edges ~n:4 [ (0, 1); (2, 3) ])))

let test_dfs_path () =
  let g = Gen.path 5 in
  let t = Traverse.dfs g 0 in
  Alcotest.(check (array int)) "preorder" [| 0; 1; 2; 3; 4 |] t.Traverse.preorder;
  check "parent" 2 t.Traverse.dfs_parent.(3)

let test_dfs_deep_no_overflow () =
  (* The whole point of the iterative implementation. *)
  let g = Gen.path 50000 in
  let t = Traverse.dfs g 0 in
  check "reaches the end" 49999 t.Traverse.pre_index.(49999)

let prop_dfs_spans_component =
  QCheck.Test.make ~name:"dfs preorder covers the component, parents are edges"
    ~count:50
    QCheck.(int_range 0 10000)
    (fun seed ->
      let g = Gen.random_connected_graph ~seed ~n:30 ~m:50 in
      let t = Traverse.dfs g 0 in
      Array.length t.Traverse.preorder = 30
      && Array.for_all
           (fun v ->
             v = 0 || Gr.mem_edge g v t.Traverse.dfs_parent.(v))
           t.Traverse.preorder
      (* parent precedes child in preorder *)
      && Array.for_all
           (fun v ->
             v = 0
             || t.Traverse.pre_index.(t.Traverse.dfs_parent.(v))
                < t.Traverse.pre_index.(v))
           t.Traverse.preorder)

let prop_bfs_dist_triangle =
  QCheck.Test.make ~name:"bfs distances are 1-Lipschitz along edges" ~count:50
    QCheck.(int_range 0 1000)
    (fun seed ->
      let g = Gen.random_connected_graph ~seed ~n:30 ~m:60 in
      let t = Traverse.bfs g 0 in
      let ok = ref true in
      Gr.iter_edges g (fun u v ->
          if abs (t.Traverse.dist.(u) - t.Traverse.dist.(v)) > 1 then ok := false);
      !ok)

(* ------------------------------------------------------------------ *)
(* Bicon                                                               *)
(* ------------------------------------------------------------------ *)

let test_bicon_cycle () =
  let g = Gen.cycle 7 in
  let d = Bicon.decompose g in
  check "one component" 1 d.Bicon.n_components;
  check_bool "no cut vertices" true (Array.for_all not d.Bicon.is_cut)

let test_bicon_path () =
  let g = Gen.path 5 in
  let d = Bicon.decompose g in
  check "components" 4 d.Bicon.n_components;
  check_bool "0 not cut" false d.Bicon.is_cut.(0);
  check_bool "4 not cut" false d.Bicon.is_cut.(4);
  for v = 1 to 3 do
    check_bool "internal cut" true d.Bicon.is_cut.(v)
  done

let test_bicon_two_triangles () =
  (* Two triangles sharing vertex 2. *)
  let g = Gr.of_edges ~n:5 [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (2, 4) ] in
  let d = Bicon.decompose g in
  check "components" 2 d.Bicon.n_components;
  check_bool "2 is cut" true d.Bicon.is_cut.(2);
  check "2 in both" 2 (Bicon.n_comps_of_vertex d 2);
  check "2 in both (list)" 2 (List.length (Bicon.comps_of_vertex d 2));
  check "0 in one" 1 (Bicon.n_comps_of_vertex d 0)

let test_bicon_paper_id () =
  let g = Gr.of_edges ~n:5 [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (2, 4) ] in
  let d = Bicon.decompose g in
  let ids = List.init d.Bicon.n_components (Bicon.paper_component_id d) in
  let sorted = List.sort compare ids in
  Alcotest.(check (list (pair int int))) "ids" [ (0, 1); (2, 3) ] sorted

let brute_force_cut_vertices g =
  let n = Gr.n g in
  let base = List.length (Traverse.components g) in
  Array.init n (fun v ->
      let others = List.filter (fun u -> u <> v) (List.init n (fun i -> i)) in
      let (h, _, _) = Gr.induced g others in
      (* v is a cut vertex iff removing it increases the component count
         (ignoring the trivial loss of v itself when it was isolated). *)
      let after = List.length (Traverse.components h) in
      let v_isolated = Gr.degree g v = 0 in
      after > base - (if v_isolated then 1 else 0))

let prop_cut_vertices_match_brute_force =
  QCheck.Test.make ~name:"bicon cut vertices match brute force" ~count:60
    QCheck.(pair (int_range 0 10000) (int_range 2 14))
    (fun (seed, n) ->
      let m = min (n * (n - 1) / 2) (n + (seed mod 7)) in
      let g = Gen.random_graph ~seed ~n ~m in
      let d = Bicon.decompose g in
      let brute = brute_force_cut_vertices g in
      d.Bicon.is_cut = brute)

let prop_each_edge_in_one_component =
  QCheck.Test.make ~name:"every edge lies in exactly one bicon component"
    ~count:60
    QCheck.(int_range 0 10000)
    (fun seed ->
      let g = Gen.random_connected_graph ~seed ~n:25 ~m:40 in
      let d = Bicon.decompose g in
      let counted = Array.make (Gr.m g) 0 in
      for c = 0 to d.Bicon.n_components - 1 do
        List.iter
          (fun (u, v) ->
            let i = Gr.edge_index g u v in
            counted.(i) <- counted.(i) + 1)
          (Bicon.component_edges d c)
      done;
      Array.for_all (fun c -> c = 1) counted
      && Array.for_all (fun c -> c >= 0) d.Bicon.comp_of_edge)

let prop_flat_membership_consistent =
  (* The CSR tables must agree with comp_of_edge in both directions, and
     the vertex tables must agree with the edge tables. *)
  QCheck.Test.make ~name:"bicon flat CSR arrays consistent" ~count:80
    QCheck.(int_range 0 10000)
    (fun seed ->
      let n = 3 + (seed mod 20) in
      let m = min (n + (seed mod 9)) (n * (n - 1) / 2) in
      let g = Gen.random_graph ~seed ~n ~m in
      let d = Bicon.decompose g in
      let ok = ref true in
      (* Every edge appears in exactly its component's slice. *)
      for c = 0 to d.Bicon.n_components - 1 do
        Bicon.iter_component_edges d c (fun e ->
            if d.Bicon.comp_of_edge.(e) <> c then ok := false)
      done;
      if Array.length d.Bicon.comp_edge_list <> Gr.m g then ok := false;
      (* Vertex -> component lists are duplicate-free and match the
         component -> vertex lists. *)
      for v = 0 to Gr.n g - 1 do
        let comps = Bicon.comps_of_vertex d v in
        if List.length (List.sort_uniq compare comps) <> List.length comps
        then ok := false;
        List.iter
          (fun c ->
            if not (List.mem v (Bicon.component_vertices d c)) then ok := false)
          comps
      done;
      for c = 0 to d.Bicon.n_components - 1 do
        Bicon.iter_component_vertices d c (fun v ->
            if not (List.mem c (Bicon.comps_of_vertex d v)) then ok := false);
        (* The vertex set of a component is exactly the endpoints of its
           edges. *)
        let from_edges =
          List.sort_uniq compare
            (List.concat_map (fun (a, b) -> [ a; b ]) (Bicon.component_edges d c))
        in
        if List.sort compare (Bicon.component_vertices d c) <> from_edges then
          ok := false
      done;
      !ok)

let prop_cut_iff_two_components =
  QCheck.Test.make ~name:"cut vertex iff it belongs to >= 2 components"
    ~count:60
    QCheck.(int_range 0 10000)
    (fun seed ->
      let g = Gen.random_connected_graph ~seed ~n:25 ~m:35 in
      let d = Bicon.decompose g in
      let ok = ref true in
      for v = 0 to Gr.n g - 1 do
        let cut = Bicon.n_comps_of_vertex d v >= 2 in
        if cut <> d.Bicon.is_cut.(v) then ok := false
      done;
      !ok)

(* Golden decompositions: an MD5 of [comp_of_edge], [is_cut] and the
   CSR membership tables, on the geometry suite's families, the
   pipeline benchmark's three instances and a disconnected random
   graph, so a change that renumbers one component or moves one table
   entry fails here. *)
let bicon_digest (d : Bicon.t) =
  let b = Buffer.create 65536 in
  let ints a =
    Array.iter
      (fun i ->
        Buffer.add_string b (string_of_int i);
        Buffer.add_char b ' ')
      a;
    Buffer.add_char b '|'
  in
  ints d.comp_of_edge;
  Array.iter (fun c -> Buffer.add_char b (if c then '1' else '0')) d.is_cut;
  Buffer.add_char b '|';
  List.iter ints
    [
      d.comp_edge_offsets;
      d.comp_edge_list;
      d.comp_vertex_offsets;
      d.comp_vertex_list;
      d.vertex_comp_offsets;
      d.vertex_comp_list;
    ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_bicon_golden () =
  let two_grids =
    let es = Gr.edges (Gen.grid 4 4) in
    Gr.of_edges ~n:32 (es @ List.map (fun (u, v) -> (u + 16, v + 16)) es)
  in
  List.iter
    (fun (name, g, want) ->
      Alcotest.(check string)
        (name ^ " decomposition digest")
        want
        (bicon_digest (Bicon.decompose g)))
    [
      ("grid-40x40", Gen.grid 40 40, "15fd69fa288ceed282bf9b59b0dba3dc");
      ("maxplanar-2000", Gen.random_maximal_planar ~seed:1 2000, "5b49e81d74878a5aa1bcdcd7d83f19b1");
      ( "outerplanar-5000",
        Gen.random_outerplanar ~seed:1 ~n:5000 ~chord_prob:0.5,
        "6594ee2ee1c5c0b36d138c0b37d37ed3" );
      ("two-grids", two_grids, "b3ea5f68d1c92a8a3126b9659191edfd");
      ("random-graph", Gen.random_graph ~seed:3 ~n:200 ~m:230, "a31025a433615350e8549024a572ac9c");
      ("k4", Gen.complete 4, "bf9046f9273c0c3962e51e4497174810");
      ("path", Gen.path 17, "6036d3fb8a0deda814549f5e57972004");
      ("cycle", Gen.cycle 14, "17f16d6dbdfcccba4d6459bf2f128fbe");
      ("star", Gen.star 9, "11847b995dcd34825ed867c6bdf87d2b");
      ("wheel", Gen.wheel 11, "40444c70b3d9868408daea777fe953ce");
      ("ladder", Gen.ladder 8, "df393495a7821764649aca79cd4a77ec");
      ("fan", Gen.fan 9, "ae673164125fb95ba51a7d60ad58cb92");
      ("grid", Gen.grid 6 7, "ac83ad976884020f3c92d38d7a16b8f9");
      ("trigrid", Gen.triangular_grid 5 6, "193951045ae58e61993a72efe6b66754");
      ("bintree", Gen.binary_tree 31, "9ddb0effc9ff676b366f5562858d125f");
      ("k4subdiv", Gen.k4_subdivision 4, "03441e599eede0d64aaa57abaf6066f1");
      ("maxplanar", Gen.random_maximal_planar ~seed:11 60, "8662406d4b4a7396ddca6102370c42b5");
      ("planar", Gen.random_planar ~seed:13 ~n:70 ~m:120, "ae0ff6f31f5613d10d754ecd7b83f008");
      ( "outerplanar",
        Gen.random_outerplanar ~seed:7 ~n:40 ~chord_prob:0.3,
        "7bf63cc656a03bbcdbb573c0e42e9587" );
      ("randtree", Gen.random_tree ~seed:5 40, "e1c5fc80fd2589f76a8a258fb903d034");
    ]

let test_block_cut_tree () =
  let g = Gr.of_edges ~n:5 [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (2, 4) ] in
  let d = Bicon.decompose g in
  let bct = Bicon.block_cut_tree g d in
  (* 2 blocks + 1 cut vertex, cut vertex adjacent to both blocks. *)
  check "nodes" 3 (Gr.n bct.Bicon.tree);
  check "edges" 2 (Gr.m bct.Bicon.tree);
  check_bool "tree connected" true (Traverse.is_connected bct.Bicon.tree)

(* ------------------------------------------------------------------ *)
(* Rotation                                                            *)
(* ------------------------------------------------------------------ *)

let test_rotation_validation () =
  let g = Gen.cycle 4 in
  (try
     (* Wrong neighbor in rotation. *)
     ignore (Rotation.make g [| [| 1; 2 |]; [| 0; 2 |]; [| 1; 3 |]; [| 0; 2 |] |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_rotation_cycle_planar () =
  let r = Rotation.of_sorted_adjacency (Gen.cycle 5) in
  check "faces" 2 (Rotation.face_count r);
  check "genus" 0 (Rotation.genus r);
  check_bool "planar" true (Rotation.is_planar_embedding r)

let test_rotation_k4 () =
  (* A planar rotation of K4: vertex 3 inside triangle 0-1-2. *)
  let g = Gen.complete 4 in
  let rot = [| [| 1; 3; 2 |]; [| 2; 3; 0 |]; [| 0; 3; 1 |]; [| 0; 1; 2 |] |] in
  let r = Rotation.make g rot in
  check "genus" 0 (Rotation.genus r);
  check "faces" 4 (Rotation.face_count r)

let test_rotation_k4_twisted () =
  (* Swapping one rotation makes the K4 embedding toroidal. *)
  let g = Gen.complete 4 in
  let rot = [| [| 1; 2; 3 |]; [| 2; 3; 0 |]; [| 0; 3; 1 |]; [| 0; 1; 2 |] |] in
  let r = Rotation.make g rot in
  check_bool "not planar" true (Rotation.genus r > 0)

let test_faces_partition_darts () =
  let g = Gen.triangular_grid 3 3 in
  let r = Rotation.of_sorted_adjacency g in
  let total = List.fold_left (fun acc f -> acc + List.length f) 0 (Rotation.faces r) in
  check "darts" (2 * Gr.m g) total

let test_face_of_dart () =
  let r = Rotation.of_sorted_adjacency (Gen.cycle 4) in
  let f = Rotation.face_of_dart r (0, 1) in
  check "length" 4 (List.length f);
  check_bool "starts at dart" true (List.hd f = (0, 1))

let test_succ () =
  let g = Gen.star 4 in
  let r = Rotation.make g [| [| 2; 1; 3 |]; [| 0 |]; [| 0 |]; [| 0 |] |] in
  check "succ" 1 (Rotation.succ r 0 2);
  check "succ wrap" 2 (Rotation.succ r 0 3)

let test_mirror_roundtrip () =
  let g = Gen.complete 4 in
  let rot = [| [| 1; 3; 2 |]; [| 2; 3; 0 |]; [| 0; 3; 1 |]; [| 0; 1; 2 |] |] in
  let r = Rotation.make g rot in
  let m = Rotation.mirror r in
  check "mirror genus" (Rotation.genus r) (Rotation.genus m);
  Alcotest.(check (array int)) "double mirror" (Rotation.rotation r 0)
    (Rotation.rotation (Rotation.mirror m) 0)

let prop_mirror_preserves_genus =
  QCheck.Test.make ~name:"mirroring preserves genus and face count" ~count:40
    QCheck.(int_range 0 10000)
    (fun seed ->
      let g = Gen.random_connected_graph ~seed ~n:12 ~m:20 in
      let r = Rotation.of_sorted_adjacency g in
      let m = Rotation.mirror r in
      Rotation.genus r = Rotation.genus m
      && Rotation.face_count r = Rotation.face_count m)

let prop_genus_label_invariant =
  QCheck.Test.make ~name:"genus of sorted-adjacency rotation is label-dependent but valid"
    ~count:40
    QCheck.(int_range 0 10000)
    (fun seed ->
      let g = Gen.random_connected_graph ~seed ~n:12 ~m:20 in
      let r = Rotation.of_sorted_adjacency g in
      let genus = Rotation.genus r in
      (* Euler parity: n - m + f = 2 - 2g must hold exactly. *)
      genus >= 0
      && Gr.n g - Gr.m g + Rotation.face_count r = 2 - (2 * genus))

(* A test-local rotation structure built the slow way, one [Gr.dart]
   binary search per lookup: successor and face permutation on dart ids.
   [make] resolves darts through its slot map instead and must agree. *)
let reference_rotation g rot =
  let darts = Gr.darts g in
  let pos = Array.make (max 1 darts) (-1) in
  let face_next = Array.make (max 1 darts) (-1) in
  Array.iteri
    (fun v r ->
      let deg = Array.length r in
      Array.iteri
        (fun i u ->
          pos.(Gr.dart g ~src:u ~dst:v) <- i;
          face_next.(Gr.dart g ~src:u ~dst:v) <-
            Gr.dart g ~src:v ~dst:r.((i + 1) mod deg))
        r)
    rot;
  let succ v u =
    let r = rot.(v) in
    r.((pos.(Gr.dart g ~src:u ~dst:v) + 1) mod Array.length r)
  in
  (* Orbits of the face permutation, each from its smallest dart, in
     increasing order of that dart — the order [Rotation.faces] uses. *)
  let seen = Array.make (max 1 darts) false in
  let faces = ref [] in
  for d0 = 0 to darts - 1 do
    if not seen.(d0) then begin
      let face = ref [] and d = ref d0 in
      let continue = ref true in
      while !continue do
        seen.(!d) <- true;
        let src = Gr.dart_src g !d in
        face := (src, Gr.dart_src g (Gr.dart_rev g !d)) :: !face;
        d := face_next.(!d);
        if !d = d0 then continue := false
      done;
      faces := List.rev !face :: !faces
    end
  done;
  (succ, List.rev !faces)

let prop_make_matches_reference =
  QCheck.Test.make ~name:"make matches a Gr.dart-lookup reference" ~count:60
    QCheck.(int_range 0 10000)
    (fun seed ->
      let g = Gen.random_connected_graph ~seed ~n:14 ~m:22 in
      let rot = Array.init (Gr.n g) (fun v -> Array.copy (Gr.neighbors g v)) in
      (* Shuffle each order deterministically so the test is not about
         sorted adjacency only. *)
      let rng = Random.State.make [| seed; 77 |] in
      Array.iter
        (fun r ->
          for i = Array.length r - 1 downto 1 do
            let j = Random.State.int rng (i + 1) in
            let t = r.(i) in
            r.(i) <- r.(j);
            r.(j) <- t
          done)
        rot;
      let a = Rotation.make g rot in
      let succ, faces = reference_rotation g rot in
      (* Connected: n - m + f = 2 - 2 genus. *)
      let genus = (2 - Gr.n g + Gr.m g - List.length faces) / 2 in
      let ok = ref (Rotation.genus a = genus && Rotation.faces a = faces) in
      for v = 0 to Gr.n g - 1 do
        if Rotation.rotation a v <> rot.(v) then ok := false;
        Gr.iter_neighbors g v (fun u ->
            if Rotation.succ a v u <> succ v u then ok := false)
      done;
      !ok)

let test_make_still_validates () =
  (* [make] is the only constructor, so it must reject every malformed
     rotation: duplicates, wrong sizes, non-neighbors, out-of-range ids. *)
  let g = Gen.cycle 4 in
  let not_perm =
    Invalid_argument "Rotation.make: rotation is not a permutation of neighbors"
  in
  Alcotest.check_raises "duplicate neighbor" not_perm (fun () ->
      ignore (Rotation.make g [| [| 1; 1 |]; [| 0; 2 |]; [| 1; 3 |]; [| 0; 2 |] |]));
  Alcotest.check_raises "short rotation"
    (Invalid_argument "Rotation.make: rotation size mismatch") (fun () ->
      ignore (Rotation.make g [| [| 1 |]; [| 0; 2 |]; [| 1; 3 |]; [| 0; 2 |] |]));
  Alcotest.check_raises "non-neighbor" not_perm (fun () ->
      ignore (Rotation.make g [| [| 1; 2 |]; [| 0; 2 |]; [| 1; 3 |]; [| 0; 2 |] |]));
  Alcotest.check_raises "out-of-range neighbor" not_perm (fun () ->
      ignore (Rotation.make g [| [| 1; 7 |]; [| 0; 2 |]; [| 1; 3 |]; [| 0; 2 |] |]));
  Alcotest.check_raises "negative neighbor" not_perm (fun () ->
      ignore (Rotation.make g [| [| -1; 3 |]; [| 0; 2 |]; [| 1; 3 |]; [| 0; 2 |] |]))

(* ------------------------------------------------------------------ *)
(* Gen                                                                 *)
(* ------------------------------------------------------------------ *)

let test_gen_sizes () =
  check "path m" 9 (Gr.m (Gen.path 10));
  check "ladder m" 13 (Gr.m (Gen.ladder 5));
  check "fan m" 13 (Gr.m (Gen.fan 8));
  check "cycle m" 10 (Gr.m (Gen.cycle 10));
  check "star m" 9 (Gr.m (Gen.star 10));
  check "complete m" 45 (Gr.m (Gen.complete 10));
  check "k33 m" 9 (Gr.m (Gen.k33 ()));
  check "petersen m" 15 (Gr.m (Gen.petersen ()));
  check "wheel m" 18 (Gr.m (Gen.wheel 10));
  check "grid m" 17 (Gr.m (Gen.grid 3 4));
  check "tri grid m" 23 (Gr.m (Gen.triangular_grid 3 4));
  check "toroidal m" 24 (Gr.m (Gen.toroidal_grid 3 4))

let test_gen_k4_subdivision () =
  let g = Gen.k4_subdivision 5 in
  check "n" (4 + (6 * 4)) (Gr.n g);
  check "m" 30 (Gr.m g);
  (* Exactly four degree-3 vertices; the rest have degree 2. *)
  let deg3 = ref 0 in
  for v = 0 to Gr.n g - 1 do
    let d = Gr.degree g v in
    check_bool "deg 2 or 3" true (d = 2 || d = 3);
    if d = 3 then incr deg3
  done;
  check "four branch vertices" 4 !deg3

let test_gen_subdivide_identity () =
  let g = Gen.petersen () in
  check "same m" (Gr.m g) (Gr.m (Gen.subdivide g 1))

let test_gen_maximal_planar () =
  let g = Gen.random_maximal_planar ~seed:42 50 in
  check "m = 3n - 6" (3 * 50 - 6) (Gr.m g);
  check_bool "connected" true (Traverse.is_connected g)

let test_gen_random_planar () =
  let g = Gen.random_planar ~seed:5 ~n:40 ~m:70 in
  check "n" 40 (Gr.n g);
  check "m" 70 (Gr.m g);
  check_bool "connected" true (Traverse.is_connected g)

let test_gen_random_tree () =
  let g = Gen.random_tree ~seed:1 30 in
  check "m" 29 (Gr.m g);
  check_bool "connected" true (Traverse.is_connected g)

let test_gen_outerplanar_shape () =
  let g = Gen.random_outerplanar ~seed:9 ~n:20 ~chord_prob:0.7 in
  check_bool "connected" true (Traverse.is_connected g);
  check_bool "has cycle edges" true (Gr.m g >= 20);
  (* maximal outerplanar has at most 2n - 3 edges *)
  check_bool "edge bound" true (Gr.m g <= (2 * 20) - 3)

let test_gen_random_connected () =
  let g = Gen.random_connected_graph ~seed:2 ~n:25 ~m:50 in
  check "m" 50 (Gr.m g);
  check_bool "connected" true (Traverse.is_connected g)

let prop_permutation_valid =
  QCheck.Test.make ~name:"random_permutation is a permutation" ~count:50
    QCheck.(pair (int_range 0 1000) (int_range 1 50))
    (fun (seed, n) ->
      let p = Gen.random_permutation ~seed n in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Array.for_all (fun b -> b) seen)

let () =
  Alcotest.run "graph"
    [
      ( "gr",
        [
          Alcotest.test_case "dedup" `Quick test_of_edges_dedup;
          Alcotest.test_case "self-loop" `Quick test_self_loop_rejected;
          Alcotest.test_case "range" `Quick test_out_of_range_rejected;
          QCheck_alcotest.to_alcotest prop_of_edges_matches_sort_uniq;
          QCheck_alcotest.to_alcotest prop_of_edges_rejects_bad_pairs;
          Alcotest.test_case "of_edges allocation is linear" `Quick
            test_of_edges_linear;
          Alcotest.test_case "sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "mem_edge" `Quick test_mem_edge;
          Alcotest.test_case "edge_index" `Quick test_edge_index_roundtrip;
          Alcotest.test_case "iter/fold neighbors" `Quick
            test_iter_fold_neighbors;
          Alcotest.test_case "darts" `Quick test_darts;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "induced dup" `Quick test_induced_duplicate_rejected;
          Alcotest.test_case "union_vertices" `Quick test_union_vertices;
          Alcotest.test_case "relabel" `Quick test_relabel_preserves_degrees;
        ] );
      ( "unionfind",
        Alcotest.test_case "basic" `Quick test_unionfind_basic
        :: List.map QCheck_alcotest.to_alcotest [ prop_unionfind_vs_naive ] );
      ( "traverse",
        [
          Alcotest.test_case "bfs path" `Quick test_bfs_path;
          Alcotest.test_case "bfs grid" `Quick test_bfs_grid_distances;
          Alcotest.test_case "tree_path" `Quick test_tree_path;
          Alcotest.test_case "subtree sizes" `Quick test_subtree_sizes;
          Alcotest.test_case "dfs path" `Quick test_dfs_path;
          Alcotest.test_case "dfs deep" `Quick test_dfs_deep_no_overflow;
          QCheck_alcotest.to_alcotest prop_dfs_spans_component;
          Alcotest.test_case "components" `Quick test_components;
          QCheck_alcotest.to_alcotest prop_components_match_reference;
          Alcotest.test_case "components linear in n" `Quick
            test_components_linear;
          Alcotest.test_case "diameter" `Quick test_diameter_cycle;
          Alcotest.test_case "diameter: iFUB equals all-pairs" `Quick
            test_diameter_ifub_vs_all_pairs;
          Alcotest.test_case "k4 subdivision diameter" `Quick
            test_diameter_k4_subdivision;
          QCheck_alcotest.to_alcotest prop_diameter_bracket;
          Alcotest.test_case "diameter bracket errors" `Quick
            test_diameter_bracket_errors;
          QCheck_alcotest.to_alcotest prop_bfs_dist_triangle;
        ] );
      ( "bicon",
        [
          Alcotest.test_case "cycle" `Quick test_bicon_cycle;
          Alcotest.test_case "path" `Quick test_bicon_path;
          Alcotest.test_case "two triangles" `Quick test_bicon_two_triangles;
          Alcotest.test_case "paper id" `Quick test_bicon_paper_id;
          Alcotest.test_case "block-cut tree" `Quick test_block_cut_tree;
          QCheck_alcotest.to_alcotest prop_cut_vertices_match_brute_force;
          QCheck_alcotest.to_alcotest prop_each_edge_in_one_component;
          QCheck_alcotest.to_alcotest prop_flat_membership_consistent;
          QCheck_alcotest.to_alcotest prop_cut_iff_two_components;
          Alcotest.test_case "golden digests" `Quick test_bicon_golden;
        ] );
      ( "rotation",
        [
          Alcotest.test_case "validation" `Quick test_rotation_validation;
          Alcotest.test_case "cycle planar" `Quick test_rotation_cycle_planar;
          Alcotest.test_case "k4 planar" `Quick test_rotation_k4;
          Alcotest.test_case "k4 twisted" `Quick test_rotation_k4_twisted;
          Alcotest.test_case "darts partition" `Quick test_faces_partition_darts;
          Alcotest.test_case "face of dart" `Quick test_face_of_dart;
          Alcotest.test_case "succ" `Quick test_succ;
          Alcotest.test_case "mirror" `Quick test_mirror_roundtrip;
          QCheck_alcotest.to_alcotest prop_mirror_preserves_genus;
          QCheck_alcotest.to_alcotest prop_genus_label_invariant;
          QCheck_alcotest.to_alcotest prop_make_matches_reference;
          Alcotest.test_case "make still validates" `Quick test_make_still_validates;
        ] );
      ( "gen",
        [
          Alcotest.test_case "sizes" `Quick test_gen_sizes;
          Alcotest.test_case "k4 subdivision" `Quick test_gen_k4_subdivision;
          Alcotest.test_case "subdivide k=1" `Quick test_gen_subdivide_identity;
          Alcotest.test_case "maximal planar" `Quick test_gen_maximal_planar;
          Alcotest.test_case "random planar" `Quick test_gen_random_planar;
          Alcotest.test_case "random tree" `Quick test_gen_random_tree;
          Alcotest.test_case "outerplanar" `Quick test_gen_outerplanar_shape;
          Alcotest.test_case "random connected" `Quick test_gen_random_connected;
          QCheck_alcotest.to_alcotest prop_permutation_valid;
        ] );
    ]
