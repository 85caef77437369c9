type bfs_state = { leader : int; dist : int; parent : int }

(* Protocol entry points run clean by default; a config with a fault
   plan routes them through the reliable link layer under that plan,
   so each primitive survives lossy links unmodified. *)
let exec_net ?(config = Network.Config.default) g proto =
  match config.Network.Config.faults with
  | None -> Network.exec ~config g proto
  | Some plan ->
      Reliable.exec ~domains:config.Network.Config.domains
        ?bandwidth:config.Network.Config.bandwidth
        ?max_rounds:config.Network.Config.max_rounds
        ~observe:config.Network.Config.observe ~faults:plan g proto

let leader_bfs_protocol g =
  let word = Gr.id_bits g in
  let offs = Gr.dart_offsets g and nbr = Gr.dart_sources g in
  (* One message per announce, shared by every neighbor's copy, sent in
     ascending neighbor order. *)
  let announce v st send =
    let m = (st.leader, st.dist) in
    for d = offs.(v) to offs.(v + 1) - 1 do
      send nbr.(d) m
    done
  in
  {
    Network.init =
      (fun _g v send ->
        let st = { leader = v; dist = 0; parent = v } in
        announce v st send;
        st);
    round =
      (fun _g v st inbox send ->
        let leader = ref st.leader
        and dist = ref st.dist
        and parent = ref st.parent
        and better = ref false in
        for i = 0 to Network.Inbox.length inbox - 1 do
          let (root, d) = Network.Inbox.msg inbox i in
          if root > !leader || (root = !leader && d + 1 < !dist) then begin
            leader := root;
            dist := d + 1;
            parent := Network.Inbox.src inbox i;
            better := true
          end
        done;
        if not !better then st
        else begin
          let st = { leader = !leader; dist = !dist; parent = !parent } in
          announce v st send;
          st
        end);
    msg_bits = (fun _ -> 2 * word);
  }

let leader_bfs ?config g =
  if Gr.n g = 0 then invalid_arg "Proto.leader_bfs: empty network";
  (exec_net ?config g (leader_bfs_protocol g)).Network.states

(* Convergecast over an explicitly given tree. Each node knows its child
   count (in a real network, children identify themselves during the BFS
   construction); leaves start, and a node fires the fold of its subtree
   as soon as all children reported. *)
type cc_state = { pending : int; acc : int; done_ : bool }

let children_counts n parent root =
  let cnt = Array.make n 0 in
  Array.iteri
    (fun v p -> if v <> root then cnt.(p) <- cnt.(p) + 1)
    parent;
  cnt

(* The fold both aggregations share: a node starts from [start v], folds
   its children's reports with [op] as they arrive, and reports to its
   parent once every child has. *)
let fold_up g ~parent ~root ~start ~op ~bits =
  let kids = children_counts (Gr.n g) parent root in
  let settle v st send =
    if st.pending = 0 && v <> root then begin
      send parent.(v) st.acc;
      { st with done_ = true }
    end
    else st
  in
  {
    Network.init =
      (fun _g v send ->
        settle v { pending = kids.(v); acc = start v; done_ = false } send);
    round =
      (fun _g v st inbox send ->
        if st.done_ then st
        else begin
          let acc = ref st.acc in
          for i = 0 to Network.Inbox.length inbox - 1 do
            acc := op !acc (Network.Inbox.msg inbox i)
          done;
          settle v
            {
              pending = st.pending - Network.Inbox.length inbox;
              acc = !acc;
              done_ = false;
            }
            send
        end);
    msg_bits = (fun _ -> bits);
  }

let convergecast_protocol g ~parent ~root ~values ~op ~value_bits =
  let n = Gr.n g in
  if Array.length parent <> n || Array.length values <> n then
    invalid_arg "Proto.convergecast: bad arrays";
  fold_up g ~parent ~root ~start:(Array.get values) ~op ~bits:value_bits

let convergecast ?config g ~parent ~root ~values ~op ~value_bits =
  let proto = convergecast_protocol g ~parent ~root ~values ~op ~value_bits in
  (exec_net ?config g proto).Network.states.(root).acc

let subtree_sizes_protocol g ~parent ~root =
  if Array.length parent <> Gr.n g then
    invalid_arg "Proto.subtree_sizes: bad parent";
  fold_up g ~parent ~root ~start:(fun _ -> 1) ~op:( + ) ~bits:(Gr.id_bits g)

let subtree_sizes ?config g ~parent ~root =
  let proto = subtree_sizes_protocol g ~parent ~root in
  Array.map (fun st -> st.acc) (exec_net ?config g proto).Network.states

let broadcast_protocol g ~parent ~root ~value ~value_bits =
  let n = Gr.n g in
  if Array.length parent <> n then invalid_arg "Proto.broadcast: bad parent";
  let kids = Array.make n [] in
  Array.iteri (fun v p -> if v <> root then kids.(p) <- v :: kids.(p)) parent;
  let forward v x send = List.iter (fun c -> send c x) kids.(v) in
  {
    Network.init =
      (fun _g v send ->
        if v = root then begin
          forward v value send;
          Some value
        end
        else None);
    round =
      (fun _g v st inbox send ->
        match st with
        | Some _ -> st
        | None when Network.Inbox.length inbox = 0 -> st
        | None ->
            let x = Network.Inbox.msg inbox 0 in
            forward v x send;
            Some x);
    msg_bits = (fun _ -> value_bits);
  }

let broadcast ?config g ~parent ~root ~value ~value_bits =
  let proto = broadcast_protocol g ~parent ~root ~value ~value_bits in
  let r = exec_net ?config g proto in
  Array.map
    (function Some x -> x | None -> invalid_arg "Proto.broadcast: unreached node")
    r.Network.states
