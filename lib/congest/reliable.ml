type 'm packet = Data of { seq : int; payload : 'm } | Ack of { upto : int }

(* One link's channel state, both directions. Mutable records owned by
   exactly one node: the engine hands a node its own state back each
   round, so in-place mutation is safe and keeps the wrapper simple. *)
type 'm chan = {
  peer : int;
  (* sender side *)
  mutable next_seq : int;
  mutable unacked : (int * 'm) list;  (* ascending seq *)
  mutable ticks : int;  (* rounds since the oldest unacked was (re)sent *)
  (* receiver side *)
  mutable expected : int;  (* next in-order seq *)
  mutable buffered : (int * 'm) list;  (* ascending seq, all > expected *)
  mutable ack_due : bool;
}

type ('s, 'm) state = { mutable inner : 's; chans : 'm chan array }

let inner_state st = st.inner

type counters = {
  mutable retransmits : int;
  mutable dup_discards : int;
  mutable out_of_order : int;
}

let counters () = { retransmits = 0; dup_discards = 0; out_of_order = 0 }

(* 32 bits of sequence number + 2 of tag: constant, documented, and far
   from wrapping in any simulated run. *)
let header_bits = 34

let wrap ?(timeout = 6) ?stats (p : ('s, 'm) Network.protocol) :
    (('s, 'm) state, 'm packet) Network.protocol =
  if timeout < 2 then invalid_arg "Reliable.wrap: timeout must be >= 2";
  (* The wrapper rewrites the inner traffic, so it drives the inner
     protocol in list shape and is itself a list protocol. *)
  let p = Network.to_lists p in
  let count f = match stats with Some c -> f c | None -> () in
  let chan_of v st =
    (* Degrees are small in CONGEST practice; a linear probe beats
       carrying a per-node index structure through the state. *)
    let rec find i =
      if i >= Array.length st.chans then
        invalid_arg
          (Printf.sprintf "Reliable: node has no link to %d" v)
      else if st.chans.(i).peer = v then st.chans.(i)
      else find (i + 1)
    in
    find 0
  in
  (* Assign sequence numbers in outbox order and emit the data packets;
     per-link FIFO is exactly what the receiver reconstructs. *)
  let post st outs =
    List.map
      (fun (w, m) ->
        let ch = chan_of w st in
        let s = ch.next_seq in
        ch.next_seq <- s + 1;
        if ch.unacked = [] then ch.ticks <- 0;
        ch.unacked <- ch.unacked @ [ (s, m) ];
        (w, Data { seq = s; payload = m }))
      outs
  in
  let init g v =
    let (s0, out0) = p.init g v in
    let peers =
      List.rev (Gr.fold_neighbors g v ~init:[] ~f:(fun acc w -> w :: acc))
    in
    let chans =
      Array.of_list
        (List.map
           (fun w ->
             {
               peer = w;
               next_seq = 0;
               unacked = [];
               ticks = 0;
               expected = 0;
               buffered = [];
               ack_due = false;
             })
           peers)
    in
    let st = { inner = s0; chans } in
    (st, post st out0)
  in
  let round g v st inbox =
    (* 1. Sort arrivals into the channels. Arrival order within the
       inbox is irrelevant — sequence numbers carry the order — which is
       precisely why the wrapper is immune to adversarial delivery. *)
    let delivered = Array.map (fun _ -> ref []) st.chans in
    let deliver_from idx ch =
      (* Drain the in-order prefix newly available on this channel. *)
      let rec drain () =
        match ch.buffered with
        | (s, m) :: rest when s = ch.expected ->
            ch.buffered <- rest;
            ch.expected <- s + 1;
            (delivered.(idx) : 'm list ref) := m :: !(delivered.(idx));
            drain ()
        | _ -> ()
      in
      drain ()
    in
    let chan_index u =
      let rec find i =
        if i >= Array.length st.chans then
          invalid_arg (Printf.sprintf "Reliable: packet from non-link %d" u)
        else if st.chans.(i).peer = u then i
        else find (i + 1)
      in
      find 0
    in
    List.iter
      (fun (u, pkt) ->
        let i = chan_index u in
        let ch = st.chans.(i) in
        match pkt with
        | Ack { upto } ->
            let before = ch.unacked in
            ch.unacked <- List.filter (fun (s, _) -> s > upto) before;
            (* Progress restarts the retransmission clock. *)
            if ch.unacked != before then ch.ticks <- 0
        | Data { seq; payload } ->
            ch.ack_due <- true;
            if seq < ch.expected then count (fun c ->
                c.dup_discards <- c.dup_discards + 1)
            else if seq = ch.expected then begin
              ch.expected <- seq + 1;
              (delivered.(i) : 'm list ref) := payload :: !(delivered.(i));
              deliver_from i ch
            end
            else begin
              (* Ahead of the expected seq: buffer once. *)
              if List.mem_assoc seq ch.buffered then
                count (fun c -> c.dup_discards <- c.dup_discards + 1)
              else begin
                count (fun c -> c.out_of_order <- c.out_of_order + 1);
                let rec insert = function
                  | [] -> [ (seq, payload) ]
                  | (s, _) :: _ as l when seq < s -> (seq, payload) :: l
                  | kv :: rest -> kv :: insert rest
                in
                ch.buffered <- insert ch.buffered
              end
            end)
      inbox;
    (* 2. Hand the inner protocol its newly deliverable messages, in the
       documented order: ascending sender id (channel arrays are built
       from the sorted neighbor slice), per-sender sequence order. *)
    let inner_inbox =
      Array.to_list st.chans
      |> List.mapi (fun i ch ->
             List.rev_map (fun m -> (ch.peer, m)) !(delivered.(i)))
      |> List.concat
    in
    let outs =
      if inner_inbox = [] then []
      else begin
        let (s', outs) = p.round g v st.inner inner_inbox in
        st.inner <- s';
        outs
      end
    in
    let data = post st outs in
    (* 3. Retransmission timers: the engine steps every live node every
       round under a fault plan, so [ticks] is a real clock. Only the
       oldest unacknowledged packet per link is retransmitted —
       cumulative acks make anything the receiver already buffered
       collapse the moment the gap closes. *)
    let retrans = ref [] in
    Array.iter
      (fun ch ->
        if ch.unacked <> [] then begin
          ch.ticks <- ch.ticks + 1;
          if ch.ticks >= timeout then begin
            let (s, m) = List.hd ch.unacked in
            count (fun c -> c.retransmits <- c.retransmits + 1);
            ch.ticks <- 0;
            retrans := (ch.peer, Data { seq = s; payload = m }) :: !retrans
          end
        end)
      st.chans;
    (* 4. One cumulative ack per link that received data this round. *)
    let acks = ref [] in
    Array.iter
      (fun ch ->
        if ch.ack_due then begin
          ch.ack_due <- false;
          acks := (ch.peer, Ack { upto = ch.expected - 1 }) :: !acks
        end)
      st.chans;
    (st, data @ List.rev !retrans @ List.rev !acks)
  in
  let msg_bits = function
    | Data { payload; _ } -> header_bits + p.msg_bits payload
    | Ack _ -> header_bits
  in
  Network.of_lists { Network.init; round; msg_bits }

let exec ?domains ?bandwidth ?max_rounds ?observe ?faults ?timeout ?stats g p =
  let base =
    match bandwidth with Some b -> b | None -> Network.default_bandwidth g
  in
  let wrapped = wrap ?timeout ?stats p in
  let config =
    Network.Config.make ?domains
      ~bandwidth:((3 * base) + 128)
      ?max_rounds ?observe ?faults ()
  in
  let r = Network.exec ~config g wrapped in
  {
    Network.states = Array.map inner_state r.Network.states;
    rounds = r.Network.rounds;
    report = r.Network.report;
  }
