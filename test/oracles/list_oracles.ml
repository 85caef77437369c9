(* The list-shaped originals of every protocol the library now runs
   natively on the push interface: Proto's primitives and the
   certificate verifier, as they stood before the port (only the record
   and module qualifiers changed). The differential suite runs them
   through [List_shape.of_lists] and demands bit-identical runs from the
   native versions.

   The max-id flood sits here in both shapes: [max_id_flood] natively
   (the reference [Proto.leader_bfs]'s states are pinned to, and a dense
   workload for engine tests) and [leader_bfs] as a list protocol. *)

let word_of = Gr.id_bits

let leader_bfs g =
  let word = word_of g in
  let announce g v st =
    List.rev
      (Gr.fold_neighbors g v ~init:[] ~f:(fun acc w ->
           (w, (st.Proto.leader, st.Proto.dist)) :: acc))
  in
  List_shape.of_lists
    {
      List_shape.init =
        (fun g v ->
          let st = { Proto.leader = v; dist = 0; parent = v } in
          (st, announce g v st));
      round =
        (fun g v st inbox ->
          let best = ref st in
          List.iter
            (fun (from, (root, d)) ->
              let better =
                root > !best.Proto.leader
                || (root = !best.Proto.leader && d + 1 < !best.Proto.dist)
              in
              if better then
                best := { Proto.leader = root; dist = d + 1; parent = from })
            inbox;
          if !best = st then (st, []) else (!best, announce g v !best));
      msg_bits = (fun (_root, _d) -> 2 * word);
    }

(* The native max-id flood: flood the maximum id while relaxing
   distances. A node re-announces on every improvement, so ids that grow
   toward the maximum cost Θ(m·D) messages. *)
let max_id_flood g =
  let word = word_of g in
  let offs = Gr.dart_offsets g and nbr = Gr.dart_sources g in
  (* One message per announce, shared by every neighbor's copy, sent in
     ascending neighbor order. *)
  let announce v st send =
    let m = (st.Proto.leader, st.Proto.dist) in
    for d = offs.(v) to offs.(v + 1) - 1 do
      send nbr.(d) m
    done
  in
  {
    Network.init =
      (fun _g v send ->
        let st = { Proto.leader = v; dist = 0; parent = v } in
        announce v st send;
        st);
    round =
      (fun _g v st inbox send ->
        let leader = ref st.Proto.leader
        and dist = ref st.Proto.dist
        and parent = ref st.Proto.parent
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
          let st = { Proto.leader = !leader; dist = !dist; parent = !parent } in
          announce v st send;
          st
        end);
    msg_bits = (fun _ -> 2 * word);
  }

(* Every node's state once the max-id flood quiesces. *)
let max_id_leader_bfs ?config g =
  (Network.exec ?config g (max_id_flood g)).Network.states

let children_counts n parent root =
  let cnt = Array.make n 0 in
  Array.iteri (fun v p -> if v <> root then cnt.(p) <- cnt.(p) + 1) parent;
  cnt

let convergecast g ~parent ~root ~values ~op ~value_bits =
  let n = Gr.n g in
  let kids = children_counts n parent root in
  List_shape.of_lists
    {
      List_shape.init =
        (fun _g v ->
          let st = { Proto.pending = kids.(v); acc = values.(v); done_ = false } in
          if st.Proto.pending = 0 && v <> root then
            ({ st with Proto.done_ = true }, [ (parent.(v), st.Proto.acc) ])
          else (st, []));
      round =
        (fun _g v st inbox ->
          if st.Proto.done_ then (st, [])
          else begin
            let acc =
              List.fold_left (fun acc (_from, x) -> op acc x) st.Proto.acc inbox
            in
            let pending = st.Proto.pending - List.length inbox in
            let st = { Proto.pending; acc; done_ = false } in
            if pending = 0 && v <> root then
              ({ st with Proto.done_ = true }, [ (parent.(v), acc) ])
            else (st, [])
          end);
      msg_bits = (fun _ -> value_bits);
    }

let subtree_sizes g ~parent ~root =
  let n = Gr.n g in
  let word = word_of g in
  let kids = children_counts n parent root in
  List_shape.of_lists
    {
      List_shape.init =
        (fun _g v ->
          let st = { Proto.pending = kids.(v); acc = 1; done_ = false } in
          if st.Proto.pending = 0 && v <> root then
            ({ st with Proto.done_ = true }, [ (parent.(v), st.Proto.acc) ])
          else (st, []));
      round =
        (fun _g v st inbox ->
          if st.Proto.done_ then (st, [])
          else begin
            let acc =
              List.fold_left (fun acc (_from, x) -> acc + x) st.Proto.acc inbox
            in
            let pending = st.Proto.pending - List.length inbox in
            let st = { Proto.pending; acc; done_ = false } in
            if pending = 0 && v <> root then
              ({ st with Proto.done_ = true }, [ (parent.(v), acc) ])
            else (st, [])
          end);
      msg_bits = (fun _ -> word);
    }

let broadcast g ~parent ~root ~value ~value_bits =
  let n = Gr.n g in
  let kids = Array.make n [] in
  Array.iteri (fun v p -> if v <> root then kids.(p) <- v :: kids.(p)) parent;
  List_shape.of_lists
    {
      List_shape.init =
        (fun _g v ->
          if v = root then (Some value, List.map (fun c -> (c, value)) kids.(v))
          else (None, []));
      round =
        (fun _g v st inbox ->
          match (st, inbox) with
          | Some _, _ -> (st, [])
          | None, (_, x) :: _ -> (Some x, List.map (fun c -> (c, x)) kids.(v))
          | None, [] -> (st, []));
      msg_bits = (fun _ -> value_bits);
    }

(* ------------------------------------------------------------------ *)
(* The certificate verifier                                            *)
(* ------------------------------------------------------------------ *)

(* The library keeps its message record abstract; the oracle declares
   the same nine fields. Only states, schedules and sizes are compared,
   never messages, so the two types need not be the same type. *)
type msg = {
  m_root : int;
  m_parent : int;
  m_depth : int;
  m_nv : int;
  m_ne : int;
  m_nf : int;
  m_lu : int;
  m_lv : int;
  m_dist : int;
}

let bits_for x =
  let rec go k acc = if k = 0 then acc else go (k lsr 1) (acc + 1) in
  if x <= 0 then 1 else go x 0

let widths g =
  let w_id = Bounds.word_bits (Gr.n g) in
  let w_edge = bits_for (Gr.m g) in
  let w_face = bits_for (2 * Gr.m g) in
  (w_id, w_edge, w_face, w_face)

let flag bad r = if bad = 0 then r else min bad r

let certify r (certs : Certify.t) =
  let g = Rotation.graph r in
  let n = Gr.n g in
  let (w_id, w_edge, w_face, w_dist) = widths g in
  let message_bits = (6 * w_id) + w_edge + w_face + w_dist in
  let offs = Gr.dart_offsets g in
  let own_ne =
    Array.init n (fun v ->
        Gr.fold_neighbors g v ~init:0 ~f:(fun acc u ->
            if u < v then acc + 1 else acc))
  in
  (* The node's own face-leader claims: in-darts at certified distance
     0 (the local zero-check below pins them to actual leader names). *)
  let own_nf =
    Array.init n (fun v ->
        if offs.(v + 1) = offs.(v) then
          (* Degree 0 only happens on the single-vertex network (prove
             rejects disconnected graphs): the dartless embedding has
             one face and no orbit to certify it. *)
          1
        else begin
          let c = ref 0 in
          for d = offs.(v) to offs.(v + 1) - 1 do
            if certs.dist.(d) = 0 then incr c
          done;
          !c
        end)
  in
  let local_bad v =
    let b = ref 0 in
    let rho = certs.root.(v)
    and p = certs.parent.(v)
    and d = certs.depth.(v) in
    if d < 0 then b := flag !b 2
    else if d = 0 then begin
      if not (v = rho && p = v) then b := flag !b 3
    end
    else if not (p >= 0 && p < n && p <> v && Gr.mem_edge g p v) then
      b := flag !b 2;
    if v = rho && d <> 0 then b := flag !b 3;
    for dt = offs.(v) to offs.(v + 1) - 1 do
      let dd = certs.dist.(dt) in
      if
        dd < 0
        || dd = 0
           && not
                (certs.leader_u.(dt) = Gr.dart_src g dt
                && certs.leader_v.(dt) = v)
      then b := flag !b 9
    done;
    !b
  in
  let absorb v (st : Certify.state) (u, m) =
    let b = ref st.bad in
    if m.m_root <> certs.root.(v) then b := flag !b 1;
    if u = certs.parent.(v) && certs.depth.(v) <> m.m_depth + 1 then
      b := flag !b 4;
    let d = Gr.dart g ~src:u ~dst:v in
    if m.m_lu <> certs.leader_u.(d) || m.m_lv <> certs.leader_v.(d) then
      b := flag !b 7;
    if m.m_dist > 0 && certs.dist.(d) <> m.m_dist - 1 then b := flag !b 8;
    let (snv, sne, snf) =
      if m.m_parent = v then
        (st.sum_nv + m.m_nv, st.sum_ne + m.m_ne, st.sum_nf + m.m_nf)
      else (st.sum_nv, st.sum_ne, st.sum_nf)
    in
    {
      st with
      waiting = st.waiting - 1;
      bad = !b;
      sum_nv = snv;
      sum_ne = sne;
      sum_nf = snf;
    }
  in
  let finalize v (st : Certify.state) =
    let b = ref st.bad in
    if
      certs.nv.(v) <> 1 + st.sum_nv
      || certs.ne.(v) <> own_ne.(v) + st.sum_ne
      || certs.nf.(v) <> own_nf.(v) + st.sum_nf
    then b := flag !b 5;
    if certs.root.(v) = v && certs.nv.(v) - certs.ne.(v) + certs.nf.(v) <> 2
    then b := flag !b 6;
    { st with bad = !b; settled = true }
  in
  List_shape.of_lists
  {
    List_shape.init =
      (fun g v ->
        let rot_v = Rotation.rotation r v in
        let deg = Array.length rot_v in
        let st : Certify.state =
          {
            waiting = deg;
            bad = local_bad v;
            sum_nv = 0;
            sum_ne = 0;
            sum_nf = 0;
            settled = false;
          }
        in
        let st = if deg = 0 then finalize v st else st in
        let out = ref [] in
        for i = deg - 1 downto 0 do
          let w = rot_v.(i) in
          (* The recipient w holds the in-dart v -> w; its face-orbit
             predecessor is (pred -> v) where pred precedes w in v's
             clockwise order — exactly the dart record w must check
             its own against. *)
          let pred = rot_v.((i + deg - 1) mod deg) in
          let dp = Gr.dart g ~src:pred ~dst:v in
          out :=
            ( w,
              {
                m_root = certs.root.(v);
                m_parent = certs.parent.(v);
                m_depth = certs.depth.(v);
                m_nv = certs.nv.(v);
                m_ne = certs.ne.(v);
                m_nf = certs.nf.(v);
                m_lu = certs.leader_u.(dp);
                m_lv = certs.leader_v.(dp);
                m_dist = certs.dist.(dp);
              } )
            :: !out
        done;
        (st, !out));
    round =
      (fun _g v (st : Certify.state) inbox ->
        if st.settled || inbox = [] then (st, [])
        else begin
          let st = List.fold_left (fun st im -> absorb v st im) st inbox in
          let st = if st.waiting = 0 then finalize v st else st in
          (st, [])
        end);
    msg_bits = (fun _ -> message_bits);
  }
