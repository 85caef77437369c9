(* Tests for the interface layer: PQ-trees (Observation 3.2 / Figure 4
   operations), the outer-face-constrained embedder (Figure 1(b)) and the
   interface construction from biconnected decompositions. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pqtree                                                              *)
(* ------------------------------------------------------------------ *)

let test_leaves () =
  let t = Pqtree.Q [ Pqtree.Leaf 1; Pqtree.P [ Pqtree.Leaf 2; Pqtree.Leaf 3 ]; Pqtree.Leaf 4 ] in
  Alcotest.(check (list int)) "leaves" [ 1; 2; 3; 4 ] (Pqtree.leaves t);
  check "size" 6 (Pqtree.size t)

let test_flip () =
  let t = Pqtree.Q [ Pqtree.Leaf 1; Pqtree.Leaf 2; Pqtree.Leaf 3 ] in
  let f = Pqtree.flip t ~path:[] in
  Alcotest.(check (list int)) "flipped" [ 3; 2; 1 ] (Pqtree.leaves f)

let test_flip_nested () =
  (* Flipping a Q node mirrors everything inside it. *)
  let t =
    Pqtree.Q
      [ Pqtree.Leaf 0; Pqtree.Q [ Pqtree.Leaf 1; Pqtree.Leaf 2 ]; Pqtree.Leaf 3 ]
  in
  let f = Pqtree.flip t ~path:[] in
  Alcotest.(check (list int)) "mirror" [ 3; 2; 1; 0 ] (Pqtree.leaves f);
  let g = Pqtree.flip t ~path:[ 1 ] in
  Alcotest.(check (list int)) "inner flip" [ 0; 2; 1; 3 ] (Pqtree.leaves g)

let test_flip_wrong_node () =
  let t = Pqtree.P [ Pqtree.Leaf 1; Pqtree.Leaf 2 ] in
  (try
     ignore (Pqtree.flip t ~path:[]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_permute () =
  let t = Pqtree.P [ Pqtree.Leaf 1; Pqtree.Leaf 2; Pqtree.Leaf 3 ] in
  let p = Pqtree.permute t ~path:[] ~perm:[| 2; 0; 1 |] in
  Alcotest.(check (list int)) "permuted" [ 3; 1; 2 ] (Pqtree.leaves p)

let test_permute_invalid () =
  let t = Pqtree.P [ Pqtree.Leaf 1; Pqtree.Leaf 2 ] in
  (try
     ignore (Pqtree.permute t ~path:[] ~perm:[| 0; 0 |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_enumerate_q () =
  (* A Q over three leaves has exactly two orders: forward and mirror. *)
  let t = Pqtree.Q [ Pqtree.Leaf 1; Pqtree.Leaf 2; Pqtree.Leaf 3 ] in
  check "count" 2 (Pqtree.count_orders t)

let test_enumerate_p () =
  (* A P over three leaves has all 3! linear orders. *)
  let t = Pqtree.P [ Pqtree.Leaf 1; Pqtree.Leaf 2; Pqtree.Leaf 3 ] in
  check "count" 6 (Pqtree.count_orders t)

let test_enumerate_mixed () =
  (* Q [a, P[b, c]]: orders a b c / a c b / and mirrors c b a / b c a. *)
  let t =
    Pqtree.Q [ Pqtree.Leaf 'a'; Pqtree.P [ Pqtree.Leaf 'b'; Pqtree.Leaf 'c' ] ]
  in
  check "count" 4 (Pqtree.count_orders t)

let prop_flip_permute_preserve_leafset =
  QCheck.Test.make ~name:"flips/permutations preserve the leaf multiset"
    ~count:100
    QCheck.(int_range 0 1000)
    (fun seed ->
      (* Build a small random tree deterministically from the seed. *)
      let rng = Random.State.make [| seed |] in
      let next_leaf = ref 0 in
      let rec build depth =
        if depth = 0 || Random.State.int rng 3 = 0 then begin
          incr next_leaf;
          Pqtree.Leaf !next_leaf
        end
        else
          let k = 2 + Random.State.int rng 2 in
          let children = List.init k (fun _ -> build (depth - 1)) in
          if Random.State.bool rng then Pqtree.Q children else Pqtree.P children
      in
      let t = Pqtree.Q [ build 2; build 2 ] in
      let flipped = Pqtree.flip t ~path:[] in
      List.sort compare (Pqtree.leaves t)
      = List.sort compare (Pqtree.leaves flipped))

let prop_enumerated_orders_closed_under_mirror =
  QCheck.Test.make ~name:"order sets of Q-rooted trees are mirror-closed"
    ~count:50
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let next_leaf = ref 0 in
      let leaf () = incr next_leaf; Pqtree.Leaf !next_leaf in
      let t =
        Pqtree.Q
          [
            leaf ();
            (if Random.State.bool rng then Pqtree.P [ leaf (); leaf () ]
             else Pqtree.Q [ leaf (); leaf () ]);
            leaf ();
          ]
      in
      let orders = Pqtree.enumerate_orders t in
      List.for_all (fun o -> List.mem (List.rev o) orders) orders)

let test_compress_runs () =
  (* Three consecutive leaves of the same class collapse into one. *)
  let t =
    Pqtree.Q
      [ Pqtree.Leaf (1, 'x'); Pqtree.Leaf (2, 'x'); Pqtree.Leaf (3, 'y') ]
  in
  let c = Pqtree.compress snd t in
  (match c with
  | Pqtree.Q [ Pqtree.Leaf ('x', 2); Pqtree.Leaf ('y', 1) ] -> ()
  | _ -> Alcotest.fail "unexpected compression");
  (* A P node merges same-class leaves regardless of position. *)
  let t2 =
    Pqtree.P
      [ Pqtree.Leaf (1, 'x'); Pqtree.Leaf (2, 'y'); Pqtree.Leaf (3, 'x') ]
  in
  (match Pqtree.compress snd t2 with
  | Pqtree.P [ Pqtree.Leaf ('x', 2); Pqtree.Leaf ('y', 1) ] -> ()
  | _ -> Alcotest.fail "unexpected P compression")

let test_compress_flattens_single_child () =
  let t = Pqtree.Q [ Pqtree.P [ Pqtree.Leaf (1, 'x') ] ] in
  (match Pqtree.compress snd t with
  | Pqtree.Leaf ('x', 1) -> ()
  | _ -> Alcotest.fail "expected full flattening")

let test_bits_monotone_under_compression () =
  let t =
    Pqtree.Q (List.init 20 (fun i -> Pqtree.Leaf (i, i mod 2)))
  in
  let before = Pqtree.bits ~leaf_bits:(fun _ -> 16) t in
  let after =
    Pqtree.bits ~leaf_bits:(fun _ -> 16) (Pqtree.compress snd t)
  in
  check_bool "compression never grows" true (after <= before)

(* ------------------------------------------------------------------ *)
(* Constrained (apex) embedding                                        *)
(* ------------------------------------------------------------------ *)

(* Every edge leaving [part], as [(inside, outside)], in part order. *)
let half_edges g part =
  let in_part = Array.make (Gr.n g) false in
  List.iter (fun v -> in_part.(v) <- true) part;
  List.concat_map
    (fun v ->
      List.filter_map
        (fun w -> if in_part.(w) then None else Some (v, w))
        (Array.to_list (Gr.neighbors g v)))
    part

(* One load of [ws] compared with the graph-building apex oracle on
   everything the embedder reads: the induced edge count, the block
   count, the verdict, the outer order (exactly, not up to rotation) and,
   for a part covering the graph, the rotation. With [~embeds] the part
   must also embed. *)
let agrees_with_apex ?(embeds = false) ws g ~part ~half =
  let want = Apex.shape g ~part ~half in
  Constrained.load ws ~part ~half;
  let induced = Constrained.induced_edges ws and blocks = Constrained.blocks ws in
  let outer =
    if Constrained.embed_loaded ws then Some (Constrained.outer ws) else None
  in
  let full =
    match want.Apex.full with
    | None -> true
    | Some rot ->
        let r = Constrained.rotation ws in
        Array.for_all Fun.id
          (Array.mapi (fun v a -> Rotation.rotation r v = a) rot)
  in
  induced = want.Apex.induced_edges
  && blocks = want.Apex.blocks
  && outer = want.Apex.outer
  && full
  && ((not embeds) || outer <> None)

let test_constrained_whole_graph () =
  (* The part covering the 4x4 grid has no half edges; its rings are the
     grid's rotation system, a planar one. *)
  let g = Gen.grid 4 4 in
  let ws = Constrained.workspace g in
  Constrained.load ws ~part:(List.init 16 Fun.id) ~half:[];
  check_bool "embeds" true (Constrained.embed_loaded ws);
  check "genus" 0 (Rotation.genus (Constrained.rotation ws))

let test_constrained_partial () =
  (* Left half of a 4x4 grid; half-embedded edges cross to the right.
     The outer order is exactly the oracle's, and so a permutation of the
     half edges. *)
  let g = Gen.grid 4 4 in
  let part = [ 0; 1; 4; 5; 8; 9; 12; 13 ] in
  let half = List.map (fun r -> ((r * 4) + 1, (r * 4) + 2)) [ 0; 1; 2; 3 ] in
  let ws = Constrained.workspace g in
  Constrained.load ws ~part ~half;
  check_bool "embeds" true (Constrained.embed_loaded ws);
  let outer = Constrained.outer ws in
  check_bool "outer = oracle's" true
    ((Apex.shape g ~part ~half).Apex.outer = Some outer);
  check_bool "outer order covers all half edges" true
    (List.sort compare outer = List.sort compare half)

(* [load] on a 2x2 grid (cycle 0-1-3-2) refuses with exactly [msg], and
   the workspace stays usable. *)
let refused_load msg ~part ~half () =
  let g = Gen.grid 2 2 in
  let ws = Constrained.workspace g in
  Alcotest.check_raises "refused" (Invalid_argument ("Constrained.load: " ^ msg))
    (fun () -> Constrained.load ws ~part ~half);
  check_bool "usable after the refusal" true
    (agrees_with_apex ws g ~part:[ 3; 1 ] ~half:[ (3, 2); (1, 0) ])

let test_constrained_rejects_bad_half =
  refused_load "half edge is not a graph edge" ~part:[ 0; 1 ] ~half:[ (0, 3) ]

let test_constrained_rejects_inside_outside =
  refused_load "half edge inside endpoint not in part" ~part:[ 0 ]
    ~half:[ (1, 3) ]

let test_constrained_rejects_outside_inside =
  refused_load "half edge outside endpoint in part" ~part:[ 0; 1 ]
    ~half:[ (0, 1) ]

let test_constrained_rejects_duplicate =
  refused_load "duplicate part vertex" ~part:[ 0; 1; 0 ] ~half:[]

let test_constrained_rejects_out_of_range =
  refused_load "part vertex out of range" ~part:[ 0; 4 ] ~half:[]

(* A connected part grown from [root], listed in a shuffled order (local
   ids follow list order), with every edge leaving it as a half edge,
   also shuffled. The part is a BFS ball of [size] vertices or, with
   [~subtree], the vertices under one child of the BFS tree rooted at
   [root]: a hanging part, whose complement is connected, so on a planar
   graph it embeds. *)
let random_part ?(subtree = false) g ~seed ~root ~size =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let part =
    if subtree then begin
      let kids = Traverse.children (Traverse.bfs g root) in
      match kids.(root) with
      | [] -> [ root ]
      | l ->
          let rec collect v = v :: List.concat_map collect kids.(v) in
          collect (List.nth l (seed mod List.length l))
    end
    else begin
      let inside = Array.make (Gr.n g) false in
      let order = ref [] and count = ref 0 in
      let q = Queue.create () in
      Queue.push root q;
      inside.(root) <- true;
      while (not (Queue.is_empty q)) && !count < size do
        let v = Queue.pop q in
        order := v :: !order;
        incr count;
        Gr.iter_neighbors g v (fun w ->
            if not inside.(w) then begin
              inside.(w) <- true;
              Queue.push w q
            end)
      done;
      !order
    end
  in
  let shuffle l =
    List.map snd
      (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))
  in
  (shuffle part, shuffle (half_edges g part))

let install_families =
  [
    ("planar", fun seed n -> Gen.random_planar ~seed ~n ~m:(min ((3 * n) - 6) (2 * n)));
    ("tree", fun seed n -> Gen.random_tree ~seed n);
    ("star", fun _ n -> Gen.star n);
    ("path", fun _ n -> Gen.path n);
    ("outerplanar", fun seed n -> Gen.random_outerplanar ~seed ~n ~chord_prob:0.5);
    ("dense", fun seed n -> Gen.random_connected_graph ~seed ~n ~m:(min (n * (n - 1) / 2) (3 * n)));
  ]

let prop_workspace_matches_apex_oracle =
  QCheck.Test.make
    ~name:"install workspace = apex oracle (counts, verdict, outer order)"
    ~count:300
    QCheck.(triple (int_range 0 100000) (int_range 3 40) (int_range 1 40))
    (fun (seed, n, size) ->
      let families = List.length install_families in
      let (family, make) = List.nth install_families (seed mod families) in
      let g = make seed n in
      let root = seed mod Gr.n g in
      let subtree = seed / families mod 2 = 1 in
      let (part, half) = random_part ~subtree g ~seed ~root ~size in
      agrees_with_apex
        ~embeds:(subtree && family <> "dense")
        (Constrained.workspace g) g ~part ~half)

let prop_constrained_parts_of_planar_graphs_embed =
  QCheck.Test.make
    ~name:"BFS-subtree parts of planar graphs embed with their half edges on one face"
    ~count:40
    QCheck.(pair (int_range 0 100000) (int_range 8 40))
    (fun (seed, n) ->
      let g = Gen.random_planar ~seed ~n ~m:(min ((3 * n) - 6) (2 * n)) in
      let (part, half) =
        random_part ~subtree:true g ~seed ~root:(n - 1) ~size:n
      in
      let ws = Constrained.workspace g in
      agrees_with_apex ~embeds:true ws g ~part ~half
      && List.sort compare (Constrained.outer ws) = List.sort compare half)

let test_workspace_small_parts () =
  (* Parts of one and two vertices, on a path end, a star's centre and
     leaves, and a grid corner. *)
  List.iter
    (fun (name, g, part) ->
      check_bool name true
        (agrees_with_apex (Constrained.workspace g) g ~part
           ~half:(half_edges g part)))
    [
      ("path end", Gen.path 5, [ 0 ]);
      ("path middle pair", Gen.path 5, [ 2; 3 ]);
      ("star centre", Gen.star 8, [ 0 ]);
      ("star centre and leaf", Gen.star 8, [ 3; 0 ]);
      ("star leaf", Gen.star 8, [ 5 ]);
      ("grid corner pair", Gen.grid 4 4, [ 1; 0 ]);
      ("single vertex graph", Gen.path 1, [ 0 ]);
      ("edge graph", Gen.path 2, [ 1; 0 ]);
    ]

let test_constrained_detects_impossible () =
  (* Part = K4 inside K5: the four half edges to the apex vertex of K5
     recreate K5, which is not planar. *)
  let g = Gen.k5 () in
  let ws = Constrained.workspace g in
  Constrained.load ws ~part:[ 0; 1; 2; 3 ]
    ~half:(List.map (fun u -> (u, 4)) [ 0; 1; 2; 3 ]);
  check_bool "impossible" false (Constrained.embed_loaded ws)

let test_workspace_nonplanar_part () =
  (* K4 inside K5: the four half edges to vertex 4 close a K5 through the
     apex, so the workspace refuses it as the oracle does. *)
  let g = Gen.k5 () in
  let part = [ 2; 0; 3; 1 ] and half = List.map (fun u -> (u, 4)) [ 0; 1; 2; 3 ] in
  let ws = Constrained.workspace g in
  check_bool "oracle refuses" true ((Apex.shape g ~part ~half).Apex.outer = None);
  check_bool "workspace agrees" true (agrees_with_apex ws g ~part ~half);
  Constrained.load ws ~part ~half;
  check_bool "refused" false (Constrained.embed_loaded ws)

let test_workspace_reuse () =
  (* One workspace over one graph, parts growing and shrinking, each load
     checked against a fresh oracle; the last covers the graph. *)
  List.iter
    (fun (name, g) ->
      let n = Gr.n g in
      let ws = Constrained.workspace g in
      List.iteri
        (fun i size ->
          let (part, half) =
            random_part g ~seed:i ~root:((i * 7919) mod n) ~size
          in
          check_bool
            (Printf.sprintf "%s: load %d (size %d)" name i size)
            true
            (agrees_with_apex ws g ~part ~half))
        [ 1; n / 2; 2; n - 1; 3; n / 3; n; 1; n ])
    [
      ("grid 6x6", Gen.grid 6 6);
      ("maxplanar 50", Gen.random_maximal_planar ~seed:4 50);
      ("outerplanar 60", Gen.random_outerplanar ~seed:5 ~n:60 ~chord_prob:0.5);
      ("star 30", Gen.star 30);
      ("K5", Gen.k5 ());
    ]

let test_workspace_rejects_bad_loads () =
  (* Each refused input has its own case above; here the rotation of a
     part that does not cover the graph is refused, and the workspace is
     still usable afterwards. *)
  let g = Gen.grid 2 2 in
  let ws = Constrained.workspace g in
  Constrained.load ws ~part:[ 0; 1 ] ~half:[ (0, 2); (1, 3) ];
  ignore (Constrained.embed_loaded ws);
  Alcotest.check_raises "rotation of a proper part"
    (Invalid_argument "Constrained.rotation: the part does not cover the graph")
    (fun () -> ignore (Constrained.rotation ws));
  check_bool "usable after refusals" true
    (agrees_with_apex ws g ~part:[ 3; 1 ] ~half:[ (3, 2); (1, 0) ])

(* ------------------------------------------------------------------ *)
(* Iface                                                               *)
(* ------------------------------------------------------------------ *)

let test_iface_single_vertex () =
  let g = Gen.star 4 in
  (* Part = the center; half edges to all leaves, freely permutable. *)
  match Iface.of_part g ~part:[ 0 ] ~half:[ (0, 1); (0, 2); (0, 3) ] with
  | None -> Alcotest.fail "star center failed"
  | Some t ->
      check "leaves" 3 (List.length (Pqtree.leaves t));
      check "orders" 6 (Pqtree.count_orders t)

let test_iface_path_part () =
  (* Part = middle path of a longer path graph; two half edges, fixed
     (up to mirror) order. *)
  let g = Gen.path 6 in
  match Iface.of_part g ~part:[ 2; 3 ] ~half:[ (2, 1); (3, 4) ] with
  | None -> Alcotest.fail "path part failed"
  | Some t ->
      check "leaves" 2 (List.length (Pqtree.leaves t));
      check_bool "both orders realizable" true (Pqtree.count_orders t <= 2)

let cyclic_equal a b =
  let n = List.length a in
  n = List.length b
  && (n = 0
     ||
     let arr = Array.of_list b in
     let rec rot k =
       k < n && (List.mapi (fun i _ -> arr.((i + k) mod n)) a = a || rot (k + 1))
     in
     rot 0)

let distinct_cyclic_orders t =
  List.fold_left
    (fun classes o ->
      if List.exists (cyclic_equal o) classes then classes else o :: classes)
    []
    (Pqtree.enumerate_orders t)

let test_iface_cycle_part () =
  (* A cycle part with three half edges at distinct vertices: the cyclic
     order is fixed up to a mirror flip, so there are at most 2 distinct
     cyclic orders (the linear enumeration reads each rotation point). *)
  let base = Gen.cycle 3 in
  let g = Gr.union_vertices base ~more:3 [ (0, 3); (1, 4); (2, 5) ] in
  match Iface.of_part g ~part:[ 0; 1; 2 ] ~half:[ (0, 3); (1, 4); (2, 5) ] with
  | None -> Alcotest.fail "cycle part failed"
  | Some t ->
      check "leaves" 3 (List.length (Pqtree.leaves t));
      check_bool "Q-like rigidity" true
        (List.length (distinct_cyclic_orders t) <= 2)

let test_iface_leafset_matches_half () =
  let g = Gen.grid 3 4 in
  let part = [ 0; 1; 4; 5; 8; 9 ] in
  let half = half_edges g part in
  match Iface.of_part g ~part ~half with
  | None -> Alcotest.fail "grid part failed"
  | Some t ->
      check_bool "leafset" true
        (List.sort compare (Pqtree.leaves t) = List.sort compare half)

let prop_realized_outer_order_is_in_interface =
  QCheck.Test.make
    ~name:"realized outer order is one of the interface's cyclic orders"
    ~count:30
    QCheck.(int_range 0 100000)
    (fun seed ->
      (* Small outerplanar part inside a slightly bigger planar graph. *)
      let base = Gen.random_outerplanar ~seed ~n:5 ~chord_prob:0.5 in
      let stubs = List.init 4 (fun i -> (i mod 5, 5 + i)) in
      let g = Gr.union_vertices base ~more:5 ((5, 9) :: (6, 9) :: (7, 9) :: (8, 9) :: stubs) in
      let part = [ 0; 1; 2; 3; 4 ] in
      let half = stubs in
      let ws = Constrained.workspace g in
      Constrained.load ws ~part ~half;
      match Constrained.embed_loaded ws, Iface.of_part g ~part ~half with
      | true, Some t ->
          let realized = List.map snd (Constrained.outer ws) in
          let orders =
            List.map (List.map snd) (Pqtree.enumerate_orders t)
          in
          List.exists (fun o -> cyclic_equal o realized || cyclic_equal (List.rev o) realized) orders
      | _ -> false)

let () =
  Alcotest.run "interface"
    [
      ( "pqtree",
        [
          Alcotest.test_case "leaves" `Quick test_leaves;
          Alcotest.test_case "flip" `Quick test_flip;
          Alcotest.test_case "flip nested" `Quick test_flip_nested;
          Alcotest.test_case "flip wrong node" `Quick test_flip_wrong_node;
          Alcotest.test_case "permute" `Quick test_permute;
          Alcotest.test_case "permute invalid" `Quick test_permute_invalid;
          Alcotest.test_case "enumerate Q" `Quick test_enumerate_q;
          Alcotest.test_case "enumerate P" `Quick test_enumerate_p;
          Alcotest.test_case "enumerate mixed" `Quick test_enumerate_mixed;
          QCheck_alcotest.to_alcotest prop_flip_permute_preserve_leafset;
          QCheck_alcotest.to_alcotest prop_enumerated_orders_closed_under_mirror;
          Alcotest.test_case "compress runs" `Quick test_compress_runs;
          Alcotest.test_case "compress flattens" `Quick
            test_compress_flattens_single_child;
          Alcotest.test_case "compress bits" `Quick
            test_bits_monotone_under_compression;
        ] );
      ( "constrained",
        [
          Alcotest.test_case "whole graph" `Quick test_constrained_whole_graph;
          Alcotest.test_case "partial" `Quick test_constrained_partial;
          Alcotest.test_case "bad half" `Quick test_constrained_rejects_bad_half;
          Alcotest.test_case "bad half: inside endpoint outside" `Quick
            test_constrained_rejects_inside_outside;
          Alcotest.test_case "bad half: outside endpoint inside" `Quick
            test_constrained_rejects_outside_inside;
          Alcotest.test_case "duplicate part vertex" `Quick
            test_constrained_rejects_duplicate;
          Alcotest.test_case "part vertex out of range" `Quick
            test_constrained_rejects_out_of_range;
          Alcotest.test_case "impossible" `Quick
            test_constrained_detects_impossible;
          QCheck_alcotest.to_alcotest prop_constrained_parts_of_planar_graphs_embed;
          QCheck_alcotest.to_alcotest prop_workspace_matches_apex_oracle;
          Alcotest.test_case "workspace: small parts" `Quick
            test_workspace_small_parts;
          Alcotest.test_case "workspace: non-planar part" `Quick
            test_workspace_nonplanar_part;
          Alcotest.test_case "workspace: reuse" `Quick test_workspace_reuse;
          Alcotest.test_case "workspace: bad loads" `Quick
            test_workspace_rejects_bad_loads;
        ] );
      ( "iface",
        [
          Alcotest.test_case "single vertex" `Quick test_iface_single_vertex;
          Alcotest.test_case "path part" `Quick test_iface_path_part;
          Alcotest.test_case "cycle part" `Quick test_iface_cycle_part;
          Alcotest.test_case "leafset" `Quick test_iface_leafset_matches_half;
          QCheck_alcotest.to_alcotest prop_realized_outer_order_is_in_interface;
        ] );
    ]
