(* The push protocol interface against the list shape it replaced.

   Every protocol the library runs natively (Proto's tree primitives
   and the certificate verifier), and the native max-id flood oracle,
   keeps its pre-port list version in List_oracles. Here the two run side by side, the oracle through
   [List_shape.of_lists], and must agree bit for bit: final states, rounds,
   the engine's report, the metrics sink (round log, per-directed-edge
   bits and bursts) and the message-level trace — on every generator
   family, at every domain count, and under a seeded fault
   plan. A second group pins the interface's own contracts: allocation
   per message, a leaked [send] or inbox, and engine errors raised from
   inside a [send]. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let dir_table m =
  let rows = ref [] in
  Metrics.iter_dir m (fun ~src ~dst ~bits ~messages ~burst ->
      rows := (src, dst, bits, messages, burst) :: !rows);
  List.rev !rows

let metrics_equal name a b =
  check (name ^ ": rounds") (Metrics.rounds a) (Metrics.rounds b);
  check (name ^ ": messages") (Metrics.messages a) (Metrics.messages b);
  check (name ^ ": total bits") (Metrics.total_bits a) (Metrics.total_bits b);
  check (name ^ ": max burst") (Metrics.max_round_edge_bits a)
    (Metrics.max_round_edge_bits b);
  check (name ^ ": active peak") (Metrics.active_peak a) (Metrics.active_peak b);
  check_bool (name ^ ": round log") true
    (Metrics.round_log a = Metrics.round_log b);
  check_bool (name ^ ": per-directed-edge table") true
    (dir_table a = dir_table b);
  check_bool (name ^ ": fault counts") true (Metrics.faults a = Metrics.faults b)

(* A native protocol and its list-shaped original, over one state type
   (the certificate oracle declares its own copy of the abstract message
   type, so the message types may differ). *)
type case =
  | Case :
      string * ('s, 'm) Network.protocol * ('s, 'n) Network.protocol
      -> case

let cases g =
  let n = Gr.n g in
  let root = n - 1 in
  let parent = (Traverse.bfs g root).Traverse.parent in
  let values = Array.init n (fun v -> (v * 7) mod 13) in
  (* Not commutative: any change in delivery order changes the fold. *)
  let op a x = ((a * 31) + x) land 0xffff in
  let rot =
    match Planarity.embed g with
    | Planarity.Planar r -> r
    | Planarity.Nonplanar -> Rotation.of_sorted_adjacency g
  in
  let certs = Certify.prove rot in
  [
    Case
      ("leader-bfs", List_oracles.max_id_flood g, List_oracles.leader_bfs g);
    Case
      ( "convergecast",
        Proto.convergecast_protocol g ~parent ~root ~values ~op ~value_bits:16,
        List_oracles.convergecast g ~parent ~root ~values ~op ~value_bits:16 );
    Case
      ( "subtree-sizes",
        Proto.subtree_sizes_protocol g ~parent ~root,
        List_oracles.subtree_sizes g ~parent ~root );
    Case
      ( "broadcast",
        Proto.broadcast_protocol g ~parent ~root ~value:42 ~value_bits:8,
        List_oracles.broadcast g ~parent ~root ~value:42 ~value_bits:8 );
    Case
      ("certify", Certify.protocol rot certs, List_oracles.certify rot certs);
  ]

let sweep_points = [ 1; 2; 3; 4; 7 ]

let observed config g proto =
  let m = Metrics.create g in
  let tr = Trace.create ~keep_messages:true () in
  let config =
    config
    |> Network.Config.with_bandwidth 4096
    |> Network.Config.with_observe (Observe.make ~metrics:m ~trace:tr ())
  in
  (Network.exec ~config g proto, m, tr)

let same_run name (r_a, m_a, t_a) (r_b, m_b, t_b) =
  check_bool (name ^ ": states") true (r_a.Network.states = r_b.Network.states);
  check (name ^ ": rounds") r_a.Network.rounds r_b.Network.rounds;
  check_bool (name ^ ": report") true (r_a.Network.report = r_b.Network.report);
  metrics_equal name m_a m_b;
  check_bool (name ^ ": trace events") true
    (Trace.events t_a = Trace.events t_b)

let diff_case gname (Case (pname, native, oracle)) g =
  List.iter
    (fun domains ->
      let name = Printf.sprintf "%s/%s[domains=%d]" gname pname domains in
      let config = Network.Config.make ~domains () in
      same_run name (observed config g native) (observed config g oracle);
      let bare p =
        Network.exec ~config:(Network.Config.with_bandwidth 4096 config) g p
      in
      let a = bare native and b = bare oracle in
      check_bool (name ^ ": unobserved states") true
        (a.Network.states = b.Network.states);
      check_bool (name ^ ": unobserved report") true
        (a.Network.report = b.Network.report))
    sweep_points

let families =
  [
    ("path 13", Gen.path 13);
    ("path 2", Gen.path 2);
    ("cycle 17", Gen.cycle 17);
    ("star 9", Gen.star 9);
    ("grid 5x7", Gen.grid 5 7);
    ("triangular grid 3x4", Gen.triangular_grid 3 4);
    ("toroidal grid 4x4", Gen.toroidal_grid 4 4);
    ("binary tree 15", Gen.binary_tree 15);
    ("complete 6", Gen.complete 6);
    ("K3,3", Gen.k33 ());
    ("petersen", Gen.petersen ());
    ("wheel 9", Gen.wheel 9);
    ("ladder 6", Gen.ladder 6);
    ("fan 11", Gen.fan 11);
    ("random connected", Gen.random_connected_graph ~seed:3 ~n:30 ~m:60);
    ("random tree", Gen.random_tree ~seed:4 40);
    ("random maximal planar", Gen.random_maximal_planar ~seed:5 40);
    ("random outerplanar", Gen.random_outerplanar ~seed:6 ~n:25 ~chord_prob:0.4);
  ]

let test_families () =
  List.iter
    (fun (gname, g) -> List.iter (fun c -> diff_case gname c g) (cases g))
    families

(* One seeded lossy plan, raw and under the reliable layer, at one and
   at two domains (one and two compute shards of the clocked engine). A
   fresh plan per run replays the same fault schedule. *)
let lossy =
  {
    Fault.default with
    Fault.drop = 0.1;
    duplicate = 0.05;
    reorder = 0.1;
    delay = 0.1;
    max_delay = 3;
  }

let test_fault_plan () =
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun (Case (pname, native, oracle)) ->
          List.iter
            (fun domains ->
              let name = Printf.sprintf "%s/%s[faults,domains=%d]" gname pname domains in
              let run p =
                let plan = Fault.make ~spec:lossy ~seed:11 () in
                let config =
                  Network.Config.make ~domains ~faults:plan ()
                in
                let (r, m, tr) = observed config g p in
                ((r, m, tr), Fault.stats plan)
              in
              let (a, sa) = run native and (b, sb) = run oracle in
              same_run name a b;
              check_bool (name ^ ": fault stats") true (sa = sb);
              let reliable p =
                let plan = Fault.make ~spec:lossy ~seed:12 () in
                let m = Metrics.create g in
                let tr = Trace.create ~keep_messages:true () in
                let r =
                  Reliable.exec ~domains ~faults:plan
                    ~observe:(Observe.make ~metrics:m ~trace:tr ())
                    g p
                in
                (r, m, tr)
              in
              same_run (name ^ "/reliable") (reliable native) (reliable oracle))
            [ 1; 2 ])
        (cases g))
    [ ("grid 5x7", Gen.grid 5 7); ("petersen", Gen.petersen ()) ]

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* OCaml 5 folds minor-heap allocation into [quick_stat] only at a minor
   collection, so one is forced first. *)
let words_now () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let words_per_message g proto =
  ignore (Network.exec g proto);
  let before = words_now () in
  let r = Network.exec g proto in
  let after = words_now () in
  (after -. before) /. float r.Network.report.Network.messages

(* The max-id flood on the pipeline bench's grid: the native port
   shares one message per announce and the engine allocates nothing per
   message, so the run's whole allocation — states, announces, the
   engine's arrays — stays under 8 words a message. The list original pays for outbox cells,
   tuples and inbox lists (about 33). *)
let test_leader_bfs_words () =
  let g = Gen.grid 40 40 in
  let native = words_per_message g (List_oracles.max_id_flood g) in
  let oracle = words_per_message g (List_oracles.leader_bfs g) in
  check_bool
    (Printf.sprintf "native leader_bfs: %.2f words/message <= 8" native)
    true (native <= 8.);
  check_bool
    (Printf.sprintf "list leader_bfs: %.2f words/message >= 20" oracle)
    true (oracle >= 20.)

(* ------------------------------------------------------------------ *)
(* Misuse                                                              *)
(* ------------------------------------------------------------------ *)

let expect_invalid name f =
  match f () with
  | () -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* A protocol that leaks every [send] and inbox that node [node]
   receives out of their calls, and with [~raise_in_round] raises in
   each of that node's rounds after leaking them. *)
let leaky ?(raise_in_round = false) node =
  let sends = ref [] and inboxes = ref [] in
  let proto =
    {
      Network.init =
        (fun g v send ->
          if v = node then sends := send :: !sends;
          Gr.iter_neighbors g v (fun w -> send w v);
          v);
      round =
        (fun _g v st ib send ->
          if v = node then begin
            sends := send :: !sends;
            inboxes := ib :: !inboxes;
            if raise_in_round then failwith "leaky"
          end;
          st);
      msg_bits = (fun _ -> 8);
    }
  in
  (proto, sends, inboxes)

(* Every leaked [send] refuses, even toward a real neighbor, and every
   leaked inbox reads as empty. *)
let check_leaks name ~dst sends inboxes =
  if !sends = [] then Alcotest.failf "%s: no call ran" name;
  List.iter
    (fun send -> expect_invalid (name ^ ": leaked send") (fun () -> send dst 0))
    !sends;
  List.iter
    (fun ib ->
      check (name ^ ": leaked inbox reads empty") 0 (Network.Inbox.length ib);
      expect_invalid (name ^ ": leaked inbox msg") (fun () ->
          ignore (Network.Inbox.msg ib 0)))
    !inboxes

(* Node 0 covers the parallel engine's extra seed call of node 0's
   [init] and the clocked engine's serial wake-up of node 0; the round-0
   crash plans cover the discarding [send] of a node
   that is down at wake-up; the raising runs cover calls cut short. *)
let test_leaked_send () =
  let g = Gen.cycle 6 in
  let down_at_0 node =
    Fault.make
      ~spec:
        {
          Fault.default with
          crashes = [ { Fault.node; at = 0; restart = None } ];
        }
      ~seed:1 ()
  in
  let configs node =
    [
      ("clean", Network.Config.default);
      ("sharded", Network.Config.make ~domains:2 ());
      ("faulty", Network.Config.make ~faults:(Fault.make ~seed:1 ()) ());
      ( "faulty sharded",
        Network.Config.make ~domains:2 ~faults:(Fault.make ~seed:1 ()) () );
      ("down at round 0", Network.Config.make ~faults:(down_at_0 node) ());
      ( "down at round 0, sharded",
        Network.Config.make ~domains:2 ~faults:(down_at_0 node) () );
    ]
  in
  List.iter
    (fun node ->
      let dst = (node + 1) mod Gr.n g in
      List.iter
        (fun raise_in_round ->
          List.iter
            (fun (name, config) ->
              let name =
                Printf.sprintf "%s, node %d%s" name node
                  (if raise_in_round then ", raising" else "")
              in
              let (proto, sends, inboxes) = leaky ~raise_in_round node in
              (match Network.exec ~config g proto with
              | _ -> ()
              | exception Failure _ when raise_in_round -> ());
              check_leaks name ~dst sends inboxes)
            (configs node))
        [ false; true ])
    [ 0; 1 ];
  let (proto, sends, inboxes) = leaky 1 in
  ignore (Reliable.exec ~faults:(Fault.make ~seed:1 ()) g proto);
  check_leaks "reliable" ~dst:2 sends inboxes

(* Errors raised from inside a native [send] carry the same payload and
   leave the same observation prefix as the list shape, which raises
   only after its call returns: both send the same messages in the
   same order before the failing one. *)
let outcome config g proto =
  let m = Metrics.create g in
  let tr = Trace.create ~keep_messages:true () in
  let config =
    Network.Config.with_observe (Observe.make ~metrics:m ~trace:tr ()) config
  in
  let err =
    match Network.exec ~config g proto with
    | _ -> "no error"
    | exception Network.Bandwidth_exceeded { round; u; v; bits } ->
        Printf.sprintf "bandwidth round=%d u=%d v=%d bits=%d" round u v bits
    | exception Invalid_argument s -> "invalid: " ^ s
    | exception Failure s -> "failure: " ^ s
  in
  (err, Metrics.messages m, Metrics.total_bits m, Trace.events tr)

(* On a path 0-1-2-3 under a 16-bit budget, node 2 over-sends to
   node 1 in round 1, twice ([`Bandwidth]), or node 3 sends to a
   non-neighbor in round 1 ([`Neighbor]). *)
let erring_lists ~bad : (unit, int) List_shape.t =
  {
    List_shape.init =
      (fun g v ->
        ((), Gr.fold_neighbors g v ~init:[] ~f:(fun acc w -> (w, v) :: acc)));
    round =
      (fun _g v st _inbox ->
        if v = 2 && bad = `Bandwidth then
          (st, [ (1, 0); (1, 1); (1, 2); (1, 3) ])
        else if v = 3 && bad = `Neighbor then (st, [ (2, 0); (0, 0) ])
        else (st, []));
    msg_bits = (fun _ -> 6);
  }

(* The same natively. [~catch:`Swallow] wraps every send in a
   catch-all handler; [~catch:`Then_fail] also raises its own error
   once its sends are done. *)
let erring_native ?(catch = `None) ~bad () =
  let wrap send =
    match catch with
    | `None -> send
    | `Swallow | `Then_fail -> fun w m -> try send w m with _ -> ()
  in
  {
    Network.init =
      (fun g v send ->
        let send = wrap send in
        let offs = Gr.dart_offsets g and nbr = Gr.dart_sources g in
        for d = offs.(v + 1) - 1 downto offs.(v) do
          send nbr.(d) v
        done);
    round =
      (fun _g v () _inbox send ->
        let send = wrap send in
        let erring =
          (v = 2 && bad = `Bandwidth) || (v = 3 && bad = `Neighbor)
        in
        if v = 2 && bad = `Bandwidth then List.iter (send 1) [ 0; 1; 2; 3 ]
        else if v = 3 && bad = `Neighbor then begin
          send 2 0;
          send 0 0
        end;
        if catch = `Then_fail && erring then failwith "after");
    msg_bits = (fun _ -> 6);
  }

let test_error_parity () =
  let g = Gen.path 4 in
  List.iter
    (fun bad ->
      List.iter
        (fun domains ->
          let name = Printf.sprintf "[domains=%d]" domains in
          let config = Network.Config.make ~bandwidth:16 ~domains () in
          let (e_n, m_n, b_n, t_n) = outcome config g (erring_native ~bad ()) in
          let (e_l, m_l, b_l, t_l) =
            outcome config g (List_shape.of_lists (erring_lists ~bad))
          in
          Alcotest.(check string) (name ^ ": payload") e_l e_n;
          check_bool (name ^ ": raised") true (e_n <> "no error");
          check (name ^ ": messages before the error") m_l m_n;
          check (name ^ ": bits before the error") b_l b_n;
          check_bool (name ^ ": trace prefix") true (t_l = t_n))
        sweep_points)
    [ `Bandwidth; `Neighbor ]

(* A protocol that catches the engine error its [send] raised cannot
   hide it: the run ends with the same payload and the same observation
   prefix as when the error propagates, and an error the protocol
   raises afterwards does not replace it. Under a fault plan the
   engine stages sends and raises these errors after the round's calls,
   outside protocol code, with the same result. *)
let test_swallowed_errors () =
  let g = Gen.path 4 in
  let clean =
    List.map
      (fun domains ->
        ( Printf.sprintf "[domains=%d]" domains,
          fun () -> Network.Config.make ~bandwidth:16 ~domains () ))
      sweep_points
  in
  let faulty domains =
    ( Printf.sprintf "[faults, domains=%d]" domains,
      fun () ->
        Network.Config.make ~bandwidth:16 ~domains
          ~faults:(Fault.make ~seed:1 ()) () )
  in
  List.iter
    (fun bad ->
      List.iter
        (fun (name, config) ->
          let (e0, m0, b0, t0) = outcome (config ()) g (erring_native ~bad ()) in
          check_bool (name ^ ": raised") true (e0 <> "no error");
          List.iter
            (fun catch ->
              let (e, m, b, t) =
                outcome (config ()) g (erring_native ~catch ~bad ())
              in
              Alcotest.(check string) (name ^ ": payload") e0 e;
              check (name ^ ": messages before the error") m0 m;
              check (name ^ ": bits before the error") b0 b;
              check_bool (name ^ ": trace prefix") true (t0 = t))
            [ `Swallow; `Then_fail ])
        (clean @ [ faulty 1; faulty 2 ]))
    [ `Bandwidth; `Neighbor ]

(* A protocol that raises by itself after sending: the sends it made
   first are observed, identically on every engine. *)
let test_sends_before_raise () =
  let g = Gen.path 4 in
  let proto =
    {
      Network.init =
        (fun _g v send ->
          if v = 0 then send 1 0;
          ());
      round =
        (fun _g v () _inbox send ->
          if v = 1 then begin
            send 0 1;
            send 2 1;
            failwith "boom"
          end);
      msg_bits = (fun _ -> 4);
    }
  in
  let (e1, m1, b1, t1) = outcome Network.Config.default g proto in
  Alcotest.(check string) "sequential raises" "failure: boom" e1;
  check "the sends before the raise are counted" 3 m1;
  List.iter
    (fun domains ->
      let name = Printf.sprintf "[domains=%d]" domains in
      let (e, m, b, t) =
        outcome (Network.Config.make ~domains ()) g proto
      in
      Alcotest.(check string) (name ^ ": payload") e1 e;
      check (name ^ ": messages") m1 m;
      check (name ^ ": bits") b1 b;
      check_bool (name ^ ": trace prefix") true (t1 = t))
    sweep_points

let () =
  Alcotest.run "native"
    [
      ( "native vs list",
        [
          Alcotest.test_case "every family, every domain count" `Quick
            test_families;
          Alcotest.test_case "seeded fault plan" `Quick test_fault_plan;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "leader_bfs words per message" `Quick
            test_leader_bfs_words;
        ] );
      ( "misuse",
        [
          Alcotest.test_case "leaked send and inbox" `Quick test_leaked_send;
          Alcotest.test_case "engine errors inside send" `Quick
            test_error_parity;
          Alcotest.test_case "swallowed engine errors" `Quick
            test_swallowed_errors;
          Alcotest.test_case "sends before a protocol raise" `Quick
            test_sends_before_raise;
        ] );
    ]
