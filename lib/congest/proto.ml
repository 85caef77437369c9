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

(* The scaffold's candidate order: a fixed bijective mix of the id (the
   splitmix64 finalizer with its multipliers cut to odd 62-bit
   constants). Ids that grow along the graph, as the generators number
   them, come out in no useful order, so a candidate's wave is soon
   stopped by a better one and a node changes its candidate about
   ln n times rather than once per round. *)
let rank x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

(* One message per announce, shared by every neighbor's copy, sent in
   ascending neighbor order. *)
let to_all offs nbr v m send =
  for d = offs.(v) to offs.(v + 1) - 1 do
    send nbr.(d) m
  done

(* Run 1, the scaffold: flood the best candidate by [rank] while
   relaxing distances. Ends with a BFS tree rooted at argmax rank. *)
let scaffold_protocol g =
  let word = Gr.id_bits g in
  let offs = Gr.dart_offsets g and nbr = Gr.dart_sources g in
  {
    Network.init =
      (fun _g v send ->
        to_all offs nbr v (v, 0) send;
        { leader = v; dist = 0; parent = v });
    round =
      (fun _g v st inbox send ->
        let leader = ref st.leader
        and best = ref (rank st.leader)
        and dist = ref st.dist
        and parent = ref st.parent
        and better = ref false in
        for i = 0 to Network.Inbox.length inbox - 1 do
          let (root, d) = Network.Inbox.msg inbox i in
          let take =
            if root = !leader then d + 1 < !dist
            else begin
              let r = rank root in
              if r > !best then begin
                best := r;
                true
              end
              else false
            end
          in
          if take then begin
            leader := root;
            dist := d + 1;
            parent := Network.Inbox.src inbox i;
            better := true
          end
        done;
        if not !better then st
        else begin
          to_all offs nbr v (!leader, !dist) send;
          { leader = !leader; dist = !dist; parent = !parent }
        end);
    msg_bits = (fun _ -> 2 * word);
  }

(* Run 2's traffic. A receiver can tell the kinds apart without a tag:
   a message from a scaffold child that has not reported yet is its
   [Report] (a child reports before any wave exists), and a [Token] is
   one word where a [Wave] is two. *)
type wave_msg =
  | Report of int * int  (* subtree (size, max id), child to parent. *)
  | Token of int  (* n, scaffold root down to the max-id node. *)
  | Wave of int * int  (* (leader, dist), as the flood announced them. *)

type wave_state = {
  pending : int;  (* scaffold children yet to report. *)
  size : int;  (* subtree size so far; n at the root once complete. *)
  top : int;  (* max id in the subtree so far. *)
  via : int;  (* the child whose report carried [top], or the node. *)
  n : int;  (* n at the max-id node once the token arrives, else 0. *)
  bfs : bfs_state;  (* the wave's result; leader -1 until it arrives. *)
}

(* Run 2, one fused pass over the scaffold [parent] tree: a convergecast
   of (size, max id) up the tree, a token carrying n from the root down
   the recorded path to the max id M, and a BFS wave out of M that uses
   the flood's relax rule, so every node ends with the flood's state.
   Child counts come from [parent], as in [fold_up] below. *)
let wave_protocol g ~parent =
  let n = Gr.n g in
  let word = Gr.id_bits g in
  let offs = Gr.dart_offsets g and nbr = Gr.dart_sources g in
  let kids = Array.make n 0 in
  Array.iteri (fun v p -> if p <> v then kids.(p) <- kids.(p) + 1) parent;
  let start v st send =
    to_all offs nbr v (Wave (v, 0)) send;
    { st with bfs = { leader = v; dist = 0; parent = v } }
  in
  (* n reaches a node on the path to M: M (the only one whose own id
     tops its subtree) starts the wave, the others pass n on. *)
  let arrive v st n send =
    if st.via = v then start v { st with n } send
    else begin
      send st.via (Token n);
      st
    end
  in
  (* The subtree is complete: report it, or, at the root, send n on. *)
  let settle v st send =
    if parent.(v) <> v then begin
      send parent.(v) (Report (st.size, st.top));
      st
    end
    else arrive v st st.size send
  in
  {
    Network.init =
      (fun _g v send ->
        let st =
          {
            pending = kids.(v);
            size = 1;
            top = v;
            via = v;
            n = 0;
            bfs = { leader = -1; dist = max_int; parent = v };
          }
        in
        if st.pending = 0 then settle v st send else st);
    round =
      (fun _g v st inbox send ->
        let st = ref st and wave = ref false in
        for i = 0 to Network.Inbox.length inbox - 1 do
          let s = !st in
          match Network.Inbox.msg inbox i with
          | Report (size, top) ->
              st :=
                if top > s.top then
                  {
                    s with
                    pending = s.pending - 1;
                    size = s.size + size;
                    top;
                    via = Network.Inbox.src inbox i;
                  }
                else { s with pending = s.pending - 1; size = s.size + size };
              if !st.pending = 0 then st := settle v !st send
          | Token n -> st := arrive v s n send
          | Wave (root, d) ->
              let b = s.bfs in
              if root > b.leader || (root = b.leader && d + 1 < b.dist) then begin
                st :=
                  {
                    s with
                    bfs =
                      {
                        leader = root;
                        dist = d + 1;
                        parent = Network.Inbox.src inbox i;
                      };
                  };
                wave := true
              end
              else if
                root = b.leader && d + 1 = b.dist
                && Network.Inbox.src inbox i < b.parent
              then
                (* Another neighbour one layer closer: the smaller one is
                   the parent, whatever order faults delivered them in.
                   Nothing changes for the neighbours, so no announce. *)
                st :=
                  {
                    s with
                    bfs = { b with parent = Network.Inbox.src inbox i };
                  }
        done;
        let s = !st in
        if !wave then to_all offs nbr v (Wave (s.bfs.leader, s.bfs.dist)) send;
        s);
    msg_bits = (function Token _ -> word | Report _ | Wave _ -> 2 * word);
  }

let elect ?config g =
  if Gr.n g = 0 then invalid_arg "Proto.leader_bfs: empty network";
  let scaffold = (exec_net ?config g (scaffold_protocol g)).Network.states in
  let parent = Array.map (fun s -> s.parent) scaffold in
  let states =
    (exec_net ?config g (wave_protocol g ~parent)).Network.states
  in
  let bfs = Array.map (fun s -> s.bfs) states in
  (bfs, states.(bfs.(0).leader).n)

let leader_bfs ?config g = fst (elect ?config g)

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
