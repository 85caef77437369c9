type 'm packet = Data of { seq : int; payload : 'm } | Ack of { upto : int }

(* One link's channel state, both directions. Mutable records owned by
   exactly one node: the engine hands a node its own state back each
   round, so in-place mutation is safe and keeps the wrapper simple. *)
type 'm chan = {
  peer : int;
  (* sender side *)
  mutable next_seq : int;
  unacked : 'm Queue.t;  (* seqs next_seq - length .. next_seq - 1 *)
  mutable ticks : int;  (* rounds since the oldest unacked was (re)sent *)
  (* receiver side *)
  mutable expected : int;  (* next in-order seq *)
  mutable buffered : (int * 'm) list;  (* ascending seq, all > expected *)
  ready : 'm Queue.t;  (* delivered in order, not yet handed inward *)
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

(* Node [v]'s channels are in the order of its sorted neighbour slice,
   so the channel to [w] is [w]'s slot there: one binary search
   ({!Gr.dart}), not a scan of the channels. *)
let chan g v chans w ~missing =
  match Gr.dart g ~src:w ~dst:v with
  | d -> chans.(d - (Gr.dart_offsets g).(v))
  | exception Not_found -> invalid_arg (Printf.sprintf missing w)

(* Unacknowledged seqs are contiguous: they are pushed in order and
   acknowledged from the front. *)
let oldest_unacked ch = ch.next_seq - Queue.length ch.unacked

(* Move the in-order prefix newly available on a channel from
   [buffered] to [ready]. *)
let rec drain ch =
  match ch.buffered with
  | (s, m) :: rest when s = ch.expected ->
      ch.buffered <- rest;
      ch.expected <- s + 1;
      Queue.push m ch.ready;
      drain ch
  | _ -> ()

let wrap ?(timeout = 6) ?stats (p : ('s, 'm) Network.protocol) :
    (('s, 'm) state, 'm packet) Network.protocol =
  if timeout < 2 then invalid_arg "Reliable.wrap: timeout must be >= 2";
  let count f = match stats with Some c -> f c | None -> () in
  (* The [send] the inner protocol sees: number the message on its link,
     put it on the wire at once and keep it until it is acknowledged.
     Per-link FIFO is exactly what the receiver reconstructs. *)
  let post g v chans send w m =
    let ch = chan g v chans w ~missing:"Reliable: node has no link to %d" in
    let s = ch.next_seq in
    send w (Data { seq = s; payload = m });
    ch.next_seq <- s + 1;
    if Queue.is_empty ch.unacked then ch.ticks <- 0;
    Queue.push m ch.unacked
  in
  let init g v send =
    let offs = Gr.dart_offsets g and nbrs = Gr.dart_sources g in
    let chans =
      Array.init (Gr.degree g v) (fun i ->
          {
            peer = nbrs.(offs.(v) + i);
            next_seq = 0;
            unacked = Queue.create ();
            ticks = 0;
            expected = 0;
            buffered = [];
            ready = Queue.create ();
            ack_due = false;
          })
    in
    { inner = p.init g v (post g v chans send); chans }
  in
  let round g v st inbox send =
    (* 1. Sort arrivals into the channels. Arrival order within the
       inbox is irrelevant — sequence numbers carry the order — which is
       precisely why the wrapper is immune to adversarial delivery. *)
    for i = 0 to Network.Inbox.length inbox - 1 do
      let ch =
        chan g v st.chans (Network.Inbox.src inbox i)
          ~missing:"Reliable: packet from non-link %d"
      in
      match Network.Inbox.msg inbox i with
      | Ack { upto } ->
          (* Only progress restarts the retransmission clock: a stale or
             duplicated ack acknowledges nothing and leaves it running. *)
          if (not (Queue.is_empty ch.unacked)) && oldest_unacked ch <= upto
          then begin
            ch.ticks <- 0;
            while
              (not (Queue.is_empty ch.unacked)) && oldest_unacked ch <= upto
            do
              ignore (Queue.pop ch.unacked)
            done
          end
      | Data { seq; payload } ->
          ch.ack_due <- true;
          if seq < ch.expected then
            count (fun c -> c.dup_discards <- c.dup_discards + 1)
          else if seq = ch.expected then begin
            ch.expected <- seq + 1;
            Queue.push payload ch.ready;
            drain ch
          end
          else if List.mem_assoc seq ch.buffered then
            (* Ahead of the expected seq: buffer once. *)
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
    done;
    (* 2. Hand the inner protocol its newly deliverable messages, in the
       documented order: ascending sender id (the channels' order),
       per-sender sequence order. Its sends go out as it makes them. *)
    let ready =
      Array.fold_left (fun k ch -> k + Queue.length ch.ready) 0 st.chans
    in
    if ready > 0 then begin
      let c = ref 0 in
      let srcs = Array.make ready 0 in
      let msgs =
        Array.init ready (fun i ->
            while Queue.is_empty st.chans.(!c).ready do incr c done;
            let ch = st.chans.(!c) in
            srcs.(i) <- ch.peer;
            Queue.pop ch.ready)
      in
      st.inner <-
        Network.Inbox.scoped ~srcs ~msgs (fun ib ->
            p.round g v st.inner ib (post g v st.chans send))
    end;
    (* 3. Retransmission timers, in channel order: the engine steps
       every live node every round under a fault plan, so [ticks] is a
       real clock. Only the oldest unacknowledged packet per link is
       retransmitted — cumulative acks make anything the receiver
       already buffered collapse the moment the gap closes. *)
    for i = 0 to Array.length st.chans - 1 do
      let ch = st.chans.(i) in
      if not (Queue.is_empty ch.unacked) then begin
        ch.ticks <- ch.ticks + 1;
        if ch.ticks >= timeout then begin
          count (fun c -> c.retransmits <- c.retransmits + 1);
          ch.ticks <- 0;
          send ch.peer
            (Data { seq = oldest_unacked ch; payload = Queue.peek ch.unacked })
        end
      end
    done;
    (* 4. Then one cumulative ack per link that received data this
       round, in channel order. *)
    for i = 0 to Array.length st.chans - 1 do
      let ch = st.chans.(i) in
      if ch.ack_due then begin
        ch.ack_due <- false;
        send ch.peer (Ack { upto = ch.expected - 1 })
      end
    done;
    st
  in
  let msg_bits = function
    | Data { payload; _ } -> header_bits + p.msg_bits payload
    | Ack _ -> header_bits
  in
  { Network.init; round; msg_bits }

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
