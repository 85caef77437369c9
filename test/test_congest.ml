(* Tests for the CONGEST simulator: the engine's bandwidth enforcement and
   quiescence semantics, the real protocols against their centralized
   counterparts, and the cost model's arithmetic. *)

let check = Alcotest.(check int)

(* Engine knobs ride in a Network.Config.t; this keeps the bodies short. *)
let cfg = Network.Config.make

(* ------------------------------------------------------------------ *)
(* Network engine                                                      *)
(* ------------------------------------------------------------------ *)

(* A one-shot protocol: every node sends its id to every neighbor once. *)
let hello_proto bits =
  List_shape.of_lists {
    List_shape.init =
      (fun g v ->
        ((), Array.to_list (Array.map (fun w -> (w, v)) (Gr.neighbors g v))));
    round = (fun _g _v st _inbox -> (st, []));
    msg_bits = (fun _ -> bits);
  }

let test_quiescence () =
  let g = Gen.cycle 6 in
  let m = Metrics.create g in
  let r =
    Network.exec
      ~config:(cfg ~observe:(Observe.of_metrics m) ())
      g (hello_proto 8)
  in
  (* One spontaneous round of sends, then one delivery round. *)
  check "rounds" 1 (Metrics.rounds m);
  check "messages" 12 (Metrics.messages m);
  check "bits" (12 * 8) (Metrics.total_bits m);
  (* The engine's own report agrees with the metrics sink. *)
  check "result rounds" 1 r.Network.rounds;
  check "report messages" 12 r.Network.report.Network.messages;
  check "report bits" (12 * 8) r.Network.report.Network.bits;
  check "report max message" 8 r.Network.report.Network.max_message_bits;
  check "report burst" 8 r.Network.report.Network.max_round_edge_bits;
  check "report active peak" 6 r.Network.report.Network.active_peak

let test_report_without_sinks () =
  (* Observe.none: the flat counters are still tallied. *)
  let g = Gen.cycle 6 in
  let r = Network.exec g (hello_proto 8) in
  check "rounds" 1 r.Network.rounds;
  check "messages" 12 r.Network.report.Network.messages;
  Alcotest.(check bool) "no verdict" true (r.Network.report.Network.verdict = None)

let test_bounds_verdict () =
  (* A bounds request makes the run check itself even without a metrics
     sink. *)
  let g = Gen.cycle 8 in
  let r =
    Network.exec
      ~config:
        (cfg ~observe:(Observe.make ~bounds:(Observe.bounds_spec ~d:4 ()) ()) ())
      g (hello_proto 8)
  in
  match r.Network.report.Network.verdict with
  | None -> Alcotest.fail "expected a bounds verdict"
  | Some v -> Alcotest.(check bool) "bounds hold" true (Bounds.ok v)

let test_bandwidth_enforced () =
  let g = Gen.path 2 in
  (try
     ignore (Network.exec ~config:(cfg ~bandwidth:16 ()) g (hello_proto 17));
     Alcotest.fail "expected Bandwidth_exceeded"
   with Network.Bandwidth_exceeded { bits; _ } -> check "bits" 17 bits)

let test_bandwidth_cumulative () =
  (* Two messages of 10 bits to the same neighbor in one round must break a
     16-bit budget. *)
  let g = Gen.path 2 in
  let proto =
    List_shape.of_lists {
      List_shape.init = (fun _g v -> ((), [ (1 - v, 0); (1 - v, 1) ]));
      round = (fun _g _v st _inbox -> (st, []));
      msg_bits = (fun _ -> 10);
    }
  in
  (try
     ignore (Network.exec ~config:(cfg ~bandwidth:16 ()) g proto);
     Alcotest.fail "expected Bandwidth_exceeded"
   with Network.Bandwidth_exceeded { bits; _ } -> check "bits" 20 bits)

let test_non_neighbor_rejected () =
  let g = Gr.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let proto =
    List_shape.of_lists {
      List_shape.init = (fun _g v -> ((), if v = 0 then [ (2, 0) ] else []));
      round = (fun _g _v st _inbox -> (st, []));
      msg_bits = (fun _ -> 1);
    }
  in
  (try
     ignore (Network.exec g proto);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_livelock_guard () =
  (* A protocol that ping-pongs forever must hit max_rounds. *)
  let g = Gen.path 2 in
  let proto =
    List_shape.of_lists {
      List_shape.init = (fun _g v -> ((), [ (1 - v, 0) ]));
      round = (fun _g v st _inbox -> (st, [ (1 - v, 0) ]));
      msg_bits = (fun _ -> 1);
    }
  in
  (try
     ignore (Network.exec ~config:(cfg ~max_rounds:10 ()) g proto);
     Alcotest.fail "expected No_quiescence"
   with Network.No_quiescence { round; active; messages } ->
     check "round" 10 round;
     (* Both endpoints of the path keep ping-ponging one message each. *)
     check "active" 2 active;
     check "messages" 2 messages)

(* ------------------------------------------------------------------ *)
(* Protocols vs centralized reference                                  *)
(* ------------------------------------------------------------------ *)

let test_leader_bfs_simple () =
  let g = Gen.path 5 in
  let states = Proto.leader_bfs g in
  Array.iteri
    (fun v st ->
      check "leader" 4 st.Proto.leader;
      check "dist" (4 - v) st.Proto.dist)
    states

let prop_leader_bfs_matches_centralized =
  QCheck.Test.make ~name:"leader_bfs agrees with centralized BFS from max id"
    ~count:60
    QCheck.(pair (int_range 0 100000) (int_range 2 40))
    (fun (seed, n) ->
      let g = Gen.random_connected_graph ~seed ~n ~m:(min (2 * n) (n * (n - 1) / 2)) in
      let states = Proto.leader_bfs g in
      let reference = Traverse.bfs g (n - 1) in
      let ok = ref true in
      Array.iteri
        (fun v st ->
          if st.Proto.leader <> n - 1 then ok := false;
          if st.Proto.dist <> reference.Traverse.dist.(v) then ok := false;
          (* The parent must be a neighbor one step closer. *)
          if v <> n - 1 then begin
            if not (Gr.mem_edge g v st.Proto.parent) then ok := false;
            if reference.Traverse.dist.(st.Proto.parent) <> st.Proto.dist - 1
            then ok := false
          end)
        states;
      !ok)

(* The bound proto.mli proves for the two-run election: the scaffold
   takes ecc(R) + 1 rounds and the fused pass ecc(R) + dist(R, M) +
   ecc(M) + 1, at most 4D + 2 together. Cycles are sampled from 3 up;
   the generator shifts a 0-based draw so shrinking stays inside
   [Gen.cycle]'s domain. *)
let prop_leader_bfs_rounds_linear_in_diameter =
  QCheck.Test.make ~name:"leader_bfs quiesces within O(D) rounds" ~count:30
    QCheck.(map ~rev:(fun n -> n - 3) (fun k -> k + 3) (int_range 0 57))
    (fun n ->
      let g = Gen.cycle n in
      let m = Metrics.create g in
      let _ =
        Proto.leader_bfs ~config:(cfg ~observe:(Observe.of_metrics m) ()) g
      in
      let d = Traverse.diameter g in
      Metrics.rounds m <= (4 * d) + 2)

let test_convergecast_sum () =
  let g = Gen.binary_tree 15 in
  let bt = Traverse.bfs g 0 in
  let m = Metrics.create g in
  let total =
    Proto.convergecast
      ~config:(cfg ~observe:(Observe.of_metrics m) ())
      g ~parent:bt.Traverse.parent ~root:0
      ~values:(Array.init 15 (fun i -> i))
      ~op:( + ) ~value_bits:8
  in
  check "sum" (15 * 14 / 2) total;
  check "rounds = depth" (Traverse.depth bt) (Metrics.rounds m)

let prop_convergecast_max =
  QCheck.Test.make ~name:"convergecast computes max over random trees"
    ~count:40
    QCheck.(pair (int_range 0 100000) (int_range 2 50))
    (fun (seed, n) ->
      let g = Gen.random_tree ~seed n in
      let bt = Traverse.bfs g 0 in
      let values = Array.init n (fun i -> (i * 7919) mod 1000) in
      let got =
        Proto.convergecast g ~parent:bt.Traverse.parent ~root:0 ~values
          ~op:max ~value_bits:10
      in
      got = Array.fold_left max 0 values)

let prop_subtree_sizes_protocol =
  QCheck.Test.make ~name:"subtree_sizes protocol matches centralized sizes"
    ~count:40
    QCheck.(pair (int_range 0 100000) (int_range 2 50))
    (fun (seed, n) ->
      let g = Gen.random_connected_graph ~seed ~n ~m:(min (2 * n) (n * (n - 1) / 2)) in
      let bt = Traverse.bfs g 0 in
      let got = Proto.subtree_sizes g ~parent:bt.Traverse.parent ~root:0 in
      got = Traverse.subtree_sizes g bt)

let test_broadcast () =
  let g = Gen.random_tree ~seed:4 20 in
  let bt = Traverse.bfs g 0 in
  let m = Metrics.create g in
  let got =
    Proto.broadcast
      ~config:(cfg ~observe:(Observe.of_metrics m) ())
      g ~parent:bt.Traverse.parent ~root:0 ~value:42 ~value_bits:8
  in
  Array.iter (fun x -> check "value" 42 x) got;
  check "rounds = depth" (Traverse.depth bt) (Metrics.rounds m)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_charge_path () =
  let g = Gen.path 5 in
  let m = Metrics.create g in
  let c = Costmodel.create ~bandwidth:10 g m in
  Costmodel.charge_path c [ 0; 1; 2; 3 ] ~bits:25;
  (* 3 hops + ceil(25/10) - 1 = 3 + 3 - 1 = 5 rounds. *)
  check "rounds" 5 (Costmodel.clock c);
  check "edge bits" 25 (Metrics.edge_bits m (Gr.edge_index g 0 1));
  check "untouched edge" 0 (Metrics.edge_bits m (Gr.edge_index g 3 4))

let test_charge_path_trivial () =
  let g = Gen.path 3 in
  let m = Metrics.create g in
  let c = Costmodel.create ~bandwidth:10 g m in
  Costmodel.charge_path c [ 1 ] ~bits:100;
  Costmodel.charge_path c [] ~bits:100;
  check "no rounds" 0 (Costmodel.clock c)

let test_charge_tree_gather () =
  (* Star with center 0: each leaf ships 8 bits; the root edges each carry
     8 bits; depth 1, max load 8, B=8 -> 1 + 1 = 2 rounds. *)
  let g = Gen.star 5 in
  let m = Metrics.create g in
  let c = Costmodel.create ~bandwidth:8 g m in
  let bt = Traverse.bfs g 0 in
  Costmodel.charge_tree c ~root:0
    ~parent:(fun v -> bt.Traverse.parent.(v))
    ~members:[ 1; 2; 3; 4 ]
    ~bits_of:(fun _ -> 8);
  check "rounds" 2 (Costmodel.clock c);
  check "total" 32 (Metrics.total_bits m)

let test_charge_tree_loads_add_up () =
  (* Path rooted at 0: member 3's payload loads edges (0,1),(1,2),(2,3). *)
  let g = Gen.path 4 in
  let m = Metrics.create g in
  let c = Costmodel.create ~bandwidth:4 g m in
  let bt = Traverse.bfs g 0 in
  Costmodel.charge_tree c ~root:0
    ~parent:(fun v -> bt.Traverse.parent.(v))
    ~members:[ 3; 1 ]
    ~bits_of:(fun v -> if v = 3 then 8 else 4);
  check "edge 0-1 carries both" 12 (Metrics.edge_bits m (Gr.edge_index g 0 1));
  check "edge 2-3 carries one" 8 (Metrics.edge_bits m (Gr.edge_index g 2 3));
  (* depth 3 + ceil(12/4) = 6 *)
  check "rounds" 6 (Costmodel.clock c)

let test_charge_aggregate () =
  let g = Gen.path 4 in
  let m = Metrics.create g in
  let c = Costmodel.create ~bandwidth:4 g m in
  let bt = Traverse.bfs g 0 in
  Costmodel.charge_aggregate c ~root:0
    ~parent:(fun v -> bt.Traverse.parent.(v))
    ~members:[ 1; 2; 3 ] ~bits:8;
  (* Combining: every edge carries 8 bits once; depth 3 + ceil(8/4)-1. *)
  check "edge 0-1" 8 (Metrics.edge_bits m (Gr.edge_index g 0 1));
  check "rounds" 4 (Costmodel.clock c);
  (* The same aggregate from its plan, charged twice more. *)
  let plan =
    Costmodel.aggregate_plan c ~root:0
      ~parent:(fun v -> bt.Traverse.parent.(v))
      ~members:[ 2; 3; 1 ]
  in
  check "plan edges" 3 (Array.length plan.Costmodel.slots);
  check "plan depth" 3 plan.Costmodel.depth;
  check "collecting charges nothing" 4 (Costmodel.clock c);
  Costmodel.charge_plan c plan ~bits:8;
  Costmodel.charge_plan c plan ~bits:8;
  check "edge 0-1, three times" 24 (Metrics.edge_bits m (Gr.edge_index g 0 1));
  check "rounds, three times" 12 (Costmodel.clock c)

let test_branch_max () =
  let g = Gen.path 6 in
  let m = Metrics.create g in
  let c = Costmodel.create ~bandwidth:8 g m in
  Costmodel.branch_max c
    [
      (fun () -> Costmodel.advance c 5);
      (fun () -> Costmodel.advance c 11);
      (fun () -> Costmodel.advance c 2);
    ];
  check "max" 11 (Costmodel.clock c);
  Costmodel.advance c 1;
  check "sequential after" 12 (Costmodel.clock c)

(* Oracle for [charge_tree] / [charge_aggregate]: the original
   Hashtbl formulation of the tree loads, kept here as the reference.
   Every member walks to the root; per-directed-edge (child -> parent)
   loads add up, or combine by max with [combining]. *)
let reference_tree_loads g ~root ~parent ~members ~bits_of ~combining =
  let loads = Hashtbl.create 64 in
  let depth = ref 0 in
  List.iter
    (fun v0 ->
      let bits = bits_of v0 in
      let d = ref 0 in
      let v = ref v0 in
      while !v <> root do
        let p = parent !v in
        if p = !v then invalid_arg "Costmodel: broken tree";
        if not (Gr.mem_edge g !v p) then raise Not_found;
        let key = (!v, p) in
        let sofar = try Hashtbl.find loads key with Not_found -> 0 in
        Hashtbl.replace loads key (if combining then max sofar bits else sofar + bits);
        incr d;
        v := p
      done;
      if !d > !depth then depth := !d)
    members;
  (loads, !depth)

(* Reference clock and per-directed-edge tallies. *)
type reference = { bandwidth : int; mutable clock : int; dir : (int * int, int) Hashtbl.t }

let ceil_div a b = (a + b - 1) / b

let reference_commit r loads =
  Hashtbl.iter
    (fun key l ->
      let sofar = try Hashtbl.find r.dir key with Not_found -> 0 in
      Hashtbl.replace r.dir key (sofar + l))
    loads

let reference_charge_tree r g ~root ~parent ~members ~bits_of =
  let (loads, depth) =
    reference_tree_loads g ~root ~parent ~members ~bits_of ~combining:false
  in
  let max_load = Hashtbl.fold (fun _ l acc -> max l acc) loads 0 in
  reference_commit r loads;
  if max_load > 0 || depth > 0 then
    r.clock <- r.clock + depth + ceil_div max_load r.bandwidth

let reference_charge_aggregate r g ~root ~parent ~members ~bits =
  let (loads, depth) =
    reference_tree_loads g ~root ~parent ~members ~bits_of:(fun _ -> bits)
      ~combining:true
  in
  reference_commit r loads;
  if depth > 0 || bits > 0 then
    r.clock <- r.clock + depth + max 0 (ceil_div bits r.bandwidth - 1)

let dir_tallies m =
  let acc = ref [] in
  Metrics.iter_dir m (fun ~src ~dst ~bits ~messages:_ ~burst:_ ->
      if bits > 0 then acc := (src, dst, bits) :: !acc);
  List.sort compare !acc

let reference_tallies r =
  List.sort compare
    (Hashtbl.fold
       (fun (u, v) b acc -> if b > 0 then (u, v, b) :: acc else acc)
       r.dir [])

let outcome f =
  match f () with
  | () -> "ok"
  | exception Not_found -> "Not_found"
  | exception Invalid_argument _ -> "Invalid_argument"

(* One random charge on a random tree of [g]: a BFS tree from a random
   root, with repeated members, the root sometimes among them, and
   non-constant payloads (zero included). With [fault] 1 a non-root
   member's parent is redirected to a non-neighbour (Not_found); with 2
   it becomes the vertex itself (broken tree). *)
let random_charge rng g =
  let n = Gr.n g in
  let root = Random.State.int rng n in
  let bt = Traverse.bfs g root in
  let members =
    List.init (1 + Random.State.int rng (2 * n)) (fun _ ->
        if Random.State.int rng 8 = 0 then root else Random.State.int rng n)
  in
  let salt = Random.State.int rng 1000 in
  let bits_of v = ((v * 37) + salt) mod 23 in
  let parent =
    let victim =
      List.find_opt (fun v -> v <> root) members
      |> Option.value ~default:root
    in
    match Random.State.int rng 10 with
    | 0 when victim <> root ->
        let far =
          List.find_opt
            (fun w -> w <> victim && not (Gr.mem_edge g victim w))
            (List.init n Fun.id)
        in
        (match far with
        | Some w -> fun v -> if v = victim then w else bt.Traverse.parent.(v)
        | None -> fun v -> bt.Traverse.parent.(v))
    | 1 when victim <> root ->
        fun v -> if v = victim then v else bt.Traverse.parent.(v)
    | _ -> fun v -> bt.Traverse.parent.(v)
  in
  (root, parent, members, bits_of, Random.State.int rng 40)

let prop_costmodel_matches_reference =
  QCheck.Test.make ~name:"charge_tree/charge_aggregate match the Hashtbl oracle"
    ~count:200
    QCheck.(pair (int_range 0 100_000) (int_range 2 40))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let g =
        Gen.random_connected_graph ~seed ~n
          ~m:(min (n * (n - 1) / 2) (n - 1 + Random.State.int rng n))
      in
      let bandwidth = 1 + Random.State.int rng 16 in
      let m = Metrics.create g in
      let c = Costmodel.create ~bandwidth g m in
      let r = { bandwidth; clock = 0; dir = Hashtbl.create 16 } in
      (* Several charges on one cost model: scratch reuse across charges,
         and after a failed one, must not leak state. *)
      List.for_all
        (fun _ ->
          let (root, parent, members, bits_of, bits) = random_charge rng g in
          let (got, want) =
            if Random.State.bool rng then
              ( outcome (fun () ->
                    Costmodel.charge_tree c ~root ~parent ~members ~bits_of),
                outcome (fun () ->
                    reference_charge_tree r g ~root ~parent ~members ~bits_of) )
            else
              ( outcome (fun () ->
                    Costmodel.charge_aggregate c ~root ~parent ~members ~bits),
                outcome (fun () ->
                    reference_charge_aggregate r g ~root ~parent ~members ~bits)
              )
          in
          got = want
          && Costmodel.clock c = r.clock
          && dir_tallies m = reference_tallies r)
        (List.init 6 Fun.id))

let test_costmodel_error_paths () =
  let g = Gen.path 5 in
  let m = Metrics.create g in
  let c = Costmodel.create ~bandwidth:8 g m in
  let chain v = v - 1 in
  Alcotest.check_raises "non-edge" Not_found (fun () ->
      Costmodel.charge_aggregate c ~root:0
        ~parent:(fun v -> if v = 3 then 1 else chain v)
        ~members:[ 4 ] ~bits:8);
  Alcotest.check_raises "broken tree" (Invalid_argument "Costmodel: broken tree")
    (fun () ->
      Costmodel.charge_tree c ~root:0
        ~parent:(fun v -> if v = 2 then 2 else chain v)
        ~members:[ 1; 4 ] ~bits_of:(fun _ -> 8));
  (* A plan's walk fails the same way, and charges nothing either. *)
  Alcotest.check_raises "non-edge (plan)" Not_found (fun () ->
      ignore
        (Costmodel.aggregate_plan c ~root:0
           ~parent:(fun v -> if v = 3 then 1 else chain v)
           ~members:[ 4 ]
          : Costmodel.plan));
  Alcotest.check_raises "broken tree (plan)"
    (Invalid_argument "Costmodel: broken tree") (fun () ->
      ignore
        (Costmodel.aggregate_plan c ~root:0
           ~parent:(fun v -> if v = 2 then 2 else chain v)
           ~members:[ 1; 4 ]
          : Costmodel.plan));
  check "failed charges leave the clock" 0 (Costmodel.clock c);
  check "failed charges leave the tallies" 0 (Metrics.total_bits m);
  Costmodel.charge_aggregate c ~root:0 ~parent:chain ~members:[ 4; 2 ] ~bits:8;
  check "usable afterwards" 4 (Costmodel.clock c);
  check "each edge once" 32 (Metrics.total_bits m);
  (* A parent cycle that misses the root (along real edges: the triangle
     1-2-3) is a broken tree too, in both modes, rather than a walk that
     never ends. *)
  let g = Gr.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (1, 3) ] in
  let c = Costmodel.create ~bandwidth:8 g (Metrics.create g) in
  let cyc = function 1 -> 2 | 2 -> 3 | 3 -> 1 | v -> v in
  Alcotest.check_raises "cycle (tree)" (Invalid_argument "Costmodel: broken tree")
    (fun () ->
      Costmodel.charge_tree c ~root:0 ~parent:cyc ~members:[ 3 ]
        ~bits_of:(fun _ -> 8));
  Alcotest.check_raises "cycle (aggregate)"
    (Invalid_argument "Costmodel: broken tree") (fun () ->
      Costmodel.charge_aggregate c ~root:0 ~parent:cyc ~members:[ 3 ] ~bits:8)

let () =
  Alcotest.run "congest"
    [
      ( "network",
        [
          Alcotest.test_case "quiescence" `Quick test_quiescence;
          Alcotest.test_case "report without sinks" `Quick
            test_report_without_sinks;
          Alcotest.test_case "bounds verdict" `Quick test_bounds_verdict;
          Alcotest.test_case "bandwidth" `Quick test_bandwidth_enforced;
          Alcotest.test_case "bandwidth cumulative" `Quick
            test_bandwidth_cumulative;
          Alcotest.test_case "non-neighbor" `Quick test_non_neighbor_rejected;
          Alcotest.test_case "livelock guard" `Quick test_livelock_guard;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "leader path" `Quick test_leader_bfs_simple;
          QCheck_alcotest.to_alcotest prop_leader_bfs_matches_centralized;
          QCheck_alcotest.to_alcotest prop_leader_bfs_rounds_linear_in_diameter;
          Alcotest.test_case "convergecast sum" `Quick test_convergecast_sum;
          QCheck_alcotest.to_alcotest prop_convergecast_max;
          QCheck_alcotest.to_alcotest prop_subtree_sizes_protocol;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
        ] );
      ( "costmodel",
        [
          Alcotest.test_case "path" `Quick test_charge_path;
          Alcotest.test_case "path trivial" `Quick test_charge_path_trivial;
          Alcotest.test_case "tree gather" `Quick test_charge_tree_gather;
          Alcotest.test_case "tree loads" `Quick test_charge_tree_loads_add_up;
          Alcotest.test_case "aggregate" `Quick test_charge_aggregate;
          Alcotest.test_case "branch max" `Quick test_branch_max;
          QCheck_alcotest.to_alcotest prop_costmodel_matches_reference;
          Alcotest.test_case "error paths" `Quick test_costmodel_error_paths;
        ] );
    ]
