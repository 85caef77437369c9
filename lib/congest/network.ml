(* A read-only window [lo, lo + len) onto parallel sender/message
   arrays. The engine points one record at each node's mail in turn and
   zeroes [len] when the call returns; [scoped] does the same for a
   hand-built inbox. Either way a leaked inbox reads as empty and
   indexing it raises. *)
module Inbox = struct
  type 'm t = {
    mutable srcs : int array;
    mutable msgs : 'm array;
    mutable lo : int;
    mutable len : int;
  }

  let length t = t.len

  let index t i =
    if i < 0 || i >= t.len then invalid_arg "Network.Inbox: index out of range";
    t.lo + i

  let src t i = t.srcs.(index t i)
  let msg t i = t.msgs.(index t i)

  let fold f acc t =
    let acc = ref acc in
    for i = t.lo to t.lo + t.len - 1 do
      acc := f !acc t.srcs.(i) t.msgs.(i)
    done;
    !acc

  let scoped ~srcs ~msgs f =
    if Array.length srcs <> Array.length msgs then
      invalid_arg "Network.Inbox.scoped: srcs and msgs differ in length";
    let t = { srcs; msgs; lo = 0; len = Array.length srcs } in
    Fun.protect ~finally:(fun () -> t.len <- 0) (fun () -> f t)

  let empty () = { srcs = [||]; msgs = [||]; lo = 0; len = 0 }
end

type 'm send = int -> 'm -> unit

type ('s, 'm) protocol = {
  init : Gr.t -> int -> 'm send -> 's;
  round : Gr.t -> int -> 's -> 'm Inbox.t -> 'm send -> 's;
  msg_bits : 'm -> int;
}

let leaked () =
  invalid_arg "Network: send called after the call that received it returned"

(* Run [call] against a [send] that drops its messages (a node down at
   round 0). Like every [send], it refuses once its call has returned. *)
let discarding call =
  let live = ref true in
  let send _ _ = if not !live then leaked () in
  Fun.protect ~finally:(fun () -> live := false) (fun () -> call send)

exception Bandwidth_exceeded of { round : int; u : int; v : int; bits : int }
exception No_quiescence of { round : int; active : int; messages : int }

let default_bandwidth g = 16 * Gr.id_bits g

type report = {
  messages : int;
  bits : int;
  max_message_bits : int;
  max_round_edge_bits : int;
  active_peak : int;
  verdict : Bounds.verdict option;
}

type 's run_result = { states : 's array; rounds : int; report : report }

(* The run configuration: every engine knob in one value, so call sites
   thread one [Config.t] instead of re-threading five optional labels
   per layer. [default] is sequential, unobserved, fault-free. *)
module Config = struct
  type t = {
    domains : int;
    bandwidth : int option;
    max_rounds : int option;
    observe : Observe.t;
    faults : Fault.plan option;
  }

  let make ?(domains = 1) ?bandwidth ?max_rounds ?(observe = Observe.none)
      ?faults () =
    { domains; bandwidth; max_rounds; observe; faults }

  let default = make ()
  let with_domains domains c = { c with domains }
  let with_bandwidth b c = { c with bandwidth = Some b }
  let with_max_rounds r c = { c with max_rounds = Some r }
  let with_observe observe c = { c with observe }
end

(* In-place ascending heapsort of a.(0 .. k-1): the engine's worklists
   live in preallocated buffers, so the sort must not allocate. *)
let sort_prefix (a : int array) k =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec down i k =
    let l = (2 * i) + 1 in
    if l < k then begin
      let c = if l + 1 < k && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        swap c i;
        down c k
      end
    end
  in
  for i = (k / 2) - 1 downto 0 do
    down i k
  done;
  for j = k - 1 downto 1 do
    swap 0 j;
    down 0 j
  done

(* The round's worklist: the [k] staged recipients (flagged in
   [has_mail]) into [dst.(0 .. k-1)] in ascending order. A dense round
   is a linear scan of the flags, a sparse one a heapsort of the staging
   order; both yield the same sorted list. The scan costs O(n) and the
   heapsort O(k log k): measured in isolation, the scan is the faster at
   k = n/16 for n from 1 600 to 100 000, and the heapsort at k = n/64
   (DESIGN.md §8). *)
let sort_staged ~n has_mail staged k dst =
  if k * 16 >= n then begin
    let j = ref 0 in
    for v = 0 to n - 1 do
      if has_mail.(v) then begin
        dst.(!j) <- v;
        incr j
      end
    done
  end
  else begin
    Array.blit staged 0 dst 0 k;
    sort_prefix dst k
  end

(* Rank of [v] in the sorted slice [a.(lo .. hi)], or -1. This is the
   engine's per-message neighbor lookup: the sender's own CSR slice is
   searched (cache-hot across a whole outbox) and the matching dart comes
   from the reversal involution — no cross-module call, no exception
   handler, no allocation. *)
let rec rank (a : int array) lo hi v =
  if lo > hi then -1
  else begin
    let mid = (lo + hi) / 2 in
    let y = a.(mid) in
    if y = v then mid
    else if y < v then rank a (mid + 1) hi v
    else rank a lo (mid - 1) v
  end
(* [a] with room for [need] cells, [x] filling the new ones. *)
let reserve a need x =
  if Array.length a >= need then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) x in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Growable int buffer, reused across rounds: per-chunk dart lists and
   staged sends have no static bound, so they amortize to their peak and
   stay there. The header is padded past a cache line: adjacent chunks'
   buffers are allocated back to back and their [len] fields are bumped
   concurrently by different domains — without the pad every push would
   false-share. *)
module Ibuf = struct
  type t = {
    mutable a : int array;
    mutable len : int;
    mutable _p0 : int;
    mutable _p1 : int;
    mutable _p2 : int;
    mutable _p3 : int;
    mutable _p4 : int;
    mutable _p5 : int;
  }

  let make cap =
    { a = Array.make (max 16 cap) 0; len = 0; _p0 = 0; _p1 = 0; _p2 = 0;
      _p3 = 0; _p4 = 0; _p5 = 0 }

  let clear t = t.len <- 0

  let grow t = t.a <- reserve t.a (t.len + 1) 0

  (* Small enough for the compiler to inline into a send. *)
  let push t x =
    if t.len = Array.length t.a then grow t;
    t.a.(t.len) <- x;
    t.len <- t.len + 1
end

(* One message copy in flight under a fault plan: its delivery round,
   global send sequence number, inbox sort key (the sequence number
   unless the copy was reordered), dart and message. *)
type 'm copy = { at : int; seq : int; key : int; dart : int; msg : 'm }

(* The copies in flight: a binary min-heap on (round, seq), so the
   copies due in a round leave it in send order and it grows with the
   copies in flight, never with the plan's [max_delay]. *)
module Pending = struct
  type 'm t = { mutable a : 'm copy array; mutable len : int }

  let before x y = x.at < y.at || (x.at = y.at && x.seq < y.seq)

  (* Sift [c] from the hole at [i] toward the root. *)
  let rec up a i c =
    let p = (i - 1) / 2 in
    if i > 0 && before c a.(p) then begin
      a.(i) <- a.(p);
      up a p c
    end
    else a.(i) <- c

  (* Sift [c] from the hole at [i] toward the leaves. *)
  let rec down t i c =
    let l = (2 * i) + 1 in
    let m = if l + 1 < t.len && before t.a.(l + 1) t.a.(l) then l + 1 else l in
    if m < t.len && before t.a.(m) c then begin
      t.a.(i) <- t.a.(m);
      down t m c
    end
    else t.a.(i) <- c

  let add t c =
    t.a <- reserve t.a (t.len + 1) c;
    t.len <- t.len + 1;
    up t.a (t.len - 1) c

  let has_due t r = t.len > 0 && t.a.(0).at = r

  let pop t =
    let top = t.a.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then down t 0 t.a.(t.len);
    top
end

(* One contiguous slice of a round's work — a run of the sorted
   worklist, or of the node range at wake-up — and everything its nodes'
   sends touch: a flat queue of the chunk's sends as (dart, bits, msg)
   in send order ([q_bits] only when observing), the distinct recipients
   it reached this round ([reached_at.(v)] is the last round it reached
   [v]), its counters, the node whose call is running (-1 between calls)
   and the error that stopped it. *)
type 'm chunk = {
  mutable q_dart : int array;
  mutable q_bits : int array;
  mutable q_msg : 'm array;
  mutable q_len : int;
  reached : Ibuf.t;
  reached_at : int array;
  mutable bits : int;
  mutable max_msg : int;
  mutable max_burst : int;
  mutable u : int;
  mutable err : exn option;
  view : 'm Inbox.t;
}

(* The round loop. Per-round bookkeeping lives in arrays preallocated
   at entry (or grown to their peak) and reused across rounds:

   - [cnt.(d)]      messages queued on dart [d] this round; a dart id is
                    its slot in the CSR adjacency, so the in-darts of a
                    recipient are one contiguous range ordered by sender;
   - [load.(d)]     bits pushed through dart [d] this round (the CONGEST
                    bandwidth budget is checked against it at send time);
   - [staged]/[has_mail]  the recipients reached this round, so a round
                    costs O(active slices + messages), never O(n).

   Each round splits the sorted worklist into [k = min domains active]
   contiguous chunks and runs them on a {!Pool.t}; at [k = 1] the chunk
   runs inline, with no pool and no barrier. A chunk's [send] resolves
   the dart, charges [cnt]/[load] and checks the budget at once: a
   dart's only sender is its source node, so no two chunks write one
   cell. A serial merge then walks the chunks in order — ascending
   sender, the sequential visit order — staging the recipients the
   chunks reached, feeding the metrics and trace sinks, and folding the
   counters, so nothing observable depends on [k]. A chunk stops at its
   first error (a [send] error is sticky, so a protocol that catches it
   stops too); the merge raises the lowest chunk's error after observing
   exactly the sends a sequential sweep would have made before it.

   Delivery is a stable counting scatter: the worklist's in-dart slices
   are laid out back to back in [in_src]/[in_msg], each dart gets its
   slice's cursor, and one pass drops every message into place.
   Stability keeps a sender's messages in send order, the slice order
   sorts by sender: the documented delivery order with no comparison
   sort and no allocation. Each chunk's nodes then read their mail
   through the chunk's one reused {!Inbox} view.

   A fault plan is a per-round policy of the same loop, tested once per
   round. The worklist is every live node, mail or not (the clock a
   recovery layer's retransmission timers run on), not the recipients.
   The merge draws each send's fate as it walks it, and the surviving
   copies join a {!Pending} store instead of being scattered next round.
   Delivery takes the round's due copies from the store in send order,
   loses those whose recipient is down, scatters the rest, sorts each
   slice by (sender, key, seq) and, under [adversarial], permutes it.
   The run stops by the plan's grace/horizon rule instead of at the
   first silent round. Every draw comes off the plan's one stream in
   this serial order, so a run is the same at every domain count;
   [domains] (capped at [n]) only sets the number of compute chunks. *)
let exec ?(config = Config.default) g (proto : ('s, 'm) protocol) =
  let { Config.domains; bandwidth; max_rounds; observe; faults = plan } =
    config
  in
  if domains < 1 then invalid_arg "Network.exec: domains must be at least 1";
  let n = Gr.n g in
  let domains = min domains (max 1 n) in
  Option.iter
    (fun p ->
      List.iter
        (fun { Fault.node; _ } ->
          if node < 0 || node >= n then
            invalid_arg
              (Printf.sprintf
                 "Network.exec: fault plan crashes node %d, outside [0, %d)"
                 node n))
        (Fault.spec p).Fault.crashes)
    plan;
  let bandwidth =
    match bandwidth with Some b -> b | None -> default_bandwidth g
  in
  let max_rounds = match max_rounds with Some r -> r | None -> (16 * n) + 64 in
  let trace = Observe.trace observe in
  let metrics =
    (* A bounds request needs a metrics accumulator; conjure a private
       one when the caller did not supply a sink. *)
    match (Observe.metrics observe, Observe.bounds observe) with
    | None, Some _ -> Some (Metrics.create g)
    | m, _ -> m
  in
  (* Only a sink that consumes per-message events, or a fault plan,
     makes the merge walk the queues. *)
  let observing =
    Option.is_some metrics
    || match trace with Some tr -> Trace.keep_messages tr | None -> false
  in
  (* Successive runs on the same metrics continue one timeline: rounds
     already accumulated offset this run's round numbers in the round log
     and the trace. *)
  let base = match metrics with Some m -> Metrics.rounds m | None -> 0 in
  let xadj = Gr.dart_offsets g in
  let srcs = Gr.dart_sources g in
  let dedge = Gr.dart_edges g in
  let rev = Gr.dart_reversals g in
  let nd = Array.length srcs in
  (* The metrics slot of dart [d] into recipient [v]. *)
  let dir d v = (2 * dedge.(d)) + if srcs.(d) < v then 0 else 1 in
  let cnt = Array.make (max 1 nd) 0 and load = Array.make (max 1 nd) 0 in
  let cursor = Array.make (max 1 nd) 0 in
  let has_mail = Array.make (max 1 n) false in
  let staged = Array.make (max 1 n) 0 and n_staged = ref 0 in
  let active_buf = Array.make (max 1 n) 0 and n_active = ref 0 in
  let n_chunks = ref domains in
  let slice = Array.make (n + 1) 0 in
  (* The message arrays start empty and grow from the first message
     (their fill value), so no dummy ['m] is ever needed. *)
  let in_src = ref [||] and in_msg = ref [||] in
  let round = ref 0 and msgs_round = ref 0 and bits_round = ref 0 in
  let total_msgs = ref 0 and total_bits = ref 0 in
  let max_msg_bits = ref 0 and max_burst = ref 0 and active_peak = ref 0 in
  (* Fault-plan state: the copies in flight, the round's due copies, the
     copy behind each inbox slot, the global send sequence number and the
     count of quiet rounds. *)
  let planned = Option.is_some plan in
  let pending = { Pending.a = [||]; len = 0 } in
  let due = ref [||] and n_due = ref 0 and in_copy = ref [||] in
  let seq = ref 0 and idle = ref 0 in
  let chunks =
    Array.init domains (fun _ ->
        { q_dart = [||]; q_bits = [||]; q_msg = [||]; q_len = 0;
          reached = Ibuf.make 64; reached_at = Array.make (max 1 n) (-1);
          bits = 0; max_msg = 0; max_burst = 0; u = -1; err = None;
          view = Inbox.empty () })
  in
  let fail ch e =
    ch.err <- Some e;
    ch.u <- -1;
    raise e
  in
  (* Each chunk's own [send], built once. The [let] before the [fun]
     keeps it a true two-argument closure, so the protocol's call lands
     in this body directly, not through a partial application. *)
  let chunk_send ch =
    let reached = ch.reached and reached_at = ch.reached_at in
    fun v msg ->
    let u = ch.u in
    if u < 0 then (match ch.err with Some e -> raise e | None -> leaked ());
    let s = rank srcs xadj.(u) (xadj.(u + 1) - 1) v in
    if s < 0 then
      fail ch
        (Invalid_argument
           (Printf.sprintf "Network.exec: node %d sent to non-neighbor %d" u v));
    let d = rev.(s) in
    let bits = proto.msg_bits msg in
    ch.bits <- ch.bits + bits;
    if bits > ch.max_msg then ch.max_msg <- bits;
    let j = ch.q_len in
    if j = Array.length ch.q_msg then begin
      let grow a x =
        let b = Array.make (max 64 (2 * j)) x in
        Array.blit a 0 b 0 j;
        b
      in
      ch.q_dart <- grow ch.q_dart 0;
      if observing then ch.q_bits <- grow ch.q_bits 0;
      ch.q_msg <- grow ch.q_msg msg
    end;
    ch.q_dart.(j) <- d;
    if observing then ch.q_bits.(j) <- bits;
    ch.q_msg.(j) <- msg;
    ch.q_len <- j + 1;
    if reached_at.(v) <> !round then begin
      reached_at.(v) <- !round;
      Ibuf.push reached v
    end;
    cnt.(d) <- cnt.(d) + 1;
    let now = load.(d) + bits in
    load.(d) <- now;
    if now > ch.max_burst then ch.max_burst <- now;
    if now > bandwidth then
      fail ch (Bandwidth_exceeded { round = !round; u; v; bits = now })
  in
  let sends = Array.map chunk_send chunks in
  (* A chunk stops at its first error: a [send] error is already
     recorded (only [fail] clears [u] inside a call), anything else the
     call raised is recorded here. *)
  let stopped ch e =
    ch.u <- -1;
    ch.view.Inbox.len <- 0;
    if Option.is_none ch.err then ch.err <- Some e
  in
  let states = ref [||] in
  (* A node down at round 0 still computes its initial state (the engine
     needs one) but takes no step: its spontaneous sends are dropped. *)
  let init v send =
    match plan with
    | Some p when Fault.down p ~node:v ~round:0 -> discarding (proto.init g v)
    | _ -> proto.init g v send
  in
  (* Wake-up over the node range, [domains] chunks. Node 0 wakes first,
     alone: its state seeds the array. *)
  let wake lo hi c =
    let ch = chunks.(c) and send = sends.(c) in
    let v = ref lo in
    try
      while !v < hi do
        ch.u <- !v;
        let s = init !v send in
        if !v = 0 then states := Array.make n s else !states.(!v) <- s;
        if ch.u < 0 then v := hi
        else begin
          ch.u <- -1;
          incr v
        end
      done
    with e -> stopped ch e
  in
  let wake_chunk c =
    wake (max 1 (c * n / domains)) ((c + 1) * n / domains) c
  in
  (* One round's compute over chunk [c] of the [n_active] recipients. *)
  let compute c =
    let ch = chunks.(c) and send = sends.(c) and st = !states in
    let ib = ch.view in
    ib.Inbox.srcs <- !in_src;
    ib.Inbox.msgs <- !in_msg;
    let k = !n_active and kc = !n_chunks in
    let hi = (c + 1) * k / kc in
    let i = ref (c * k / kc) in
    try
      while !i < hi do
        let v = active_buf.(!i) in
        ib.Inbox.lo <- slice.(!i);
        ib.Inbox.len <- slice.(!i + 1) - slice.(!i);
        ch.u <- v;
        st.(v) <- proto.round g v st.(v) ib send;
        ib.Inbox.len <- 0;
        if ch.u < 0 then i := hi
        else begin
          ch.u <- -1;
          incr i
        end
      done
    with e -> stopped ch e
  in
  let scatter c =
    let ch = chunks.(c) in
    let qd = ch.q_dart and qm = ch.q_msg in
    let is = !in_src and im = !in_msg in
    for j = 0 to ch.q_len - 1 do
      let d = qd.(j) in
      let p = cursor.(d) in
      is.(p) <- srcs.(d);
      im.(p) <- qm.(j);
      cursor.(d) <- p + 1
    done;
    ch.q_len <- 0
  in
  let pool = if domains > 1 then Some (Pool.create ~domains ()) else None in
  let dispatch k task =
    match pool with
    | Some p when k > 1 -> Pool.run p ~tasks:k task
    | _ -> task 0
  in
  let observe_send d bits =
    let u = srcs.(d) and v = srcs.(rev.(d)) in
    (match metrics with
    | Some m -> Metrics.add_message_at m ~dir:(dir d v) ~bits
    | None -> ());
    match trace with
    | Some tr -> Trace.on_message tr ~round:(base + !round) ~src:u ~dst:v ~bits
    | None -> ()
  in
  let on_fault kind ~src ~dst =
    (match metrics with Some m -> Metrics.note_fault m ~kind | None -> ());
    match trace with
    | Some tr -> Trace.on_fault tr ~round:(base + !round) ~kind ~src ~dst
    | None -> ()
  in
  let schedule ~src ~dst d msg (c : Fault.delivery) =
    if c.Fault.offset > 0 then on_fault "delay" ~src ~dst;
    if Option.is_some c.Fault.key then on_fault "reorder" ~src ~dst;
    let key = Option.value c.Fault.key ~default:!seq in
    Pending.add pending
      { at = !round + 1 + c.Fault.offset; seq = !seq; key; dart = d; msg };
    incr seq
  in
  (* The serial merge of chunks [0, k): observe their sends in chunk
     order up to the first erring chunk and raise its error; otherwise
     fold every chunk's counters into the round and stage each recipient
     once, in the order the chunks first reached them. *)
  let merge k =
    let stop = ref k in
    for c = k - 1 downto 0 do
      if Option.is_some chunks.(c).err then stop := c
    done;
    (match plan with
    | None ->
        if observing then
          for c = 0 to min !stop (k - 1) do
            let ch = chunks.(c) in
            for j = 0 to ch.q_len - 1 do
              observe_send ch.q_dart.(j) ch.q_bits.(j)
            done
          done
    | Some p ->
        (* A send's fate is drawn after its sender paid for it. A chunk
           stopped by a bandwidth error holds the offending send last:
           observed, but never handed to the network. *)
        for c = 0 to min !stop (k - 1) do
          let ch = chunks.(c) in
          let fated =
            match ch.err with
            | Some (Bandwidth_exceeded _) -> ch.q_len - 1
            | _ -> ch.q_len
          in
          for j = 0 to ch.q_len - 1 do
            let d = ch.q_dart.(j) in
            if observing then observe_send d ch.q_bits.(j);
            if j < fated then begin
              let src = srcs.(d) and dst = srcs.(rev.(d)) in
              let msg = ch.q_msg.(j) in
              match Fault.fate p with
              | [] -> on_fault "drop" ~src ~dst
              | [ c ] -> schedule ~src ~dst d msg c
              | cs ->
                  on_fault "duplicate" ~src ~dst;
                  List.iter (schedule ~src ~dst d msg) cs
            end
          done
        done);
    (if !stop < k then
       match chunks.(!stop).err with Some e -> raise e | None -> ());
    for c = 0 to k - 1 do
      let ch = chunks.(c) in
      msgs_round := !msgs_round + ch.q_len;
      bits_round := !bits_round + ch.bits;
      if ch.max_msg > !max_msg_bits then max_msg_bits := ch.max_msg;
      if ch.max_burst > !max_burst then max_burst := ch.max_burst;
      ch.bits <- 0;
      ch.max_msg <- 0;
      ch.max_burst <- 0;
      if planned then ch.q_len <- 0;
      let r = ch.reached in
      for i = 0 to r.Ibuf.len - 1 do
        let v = r.Ibuf.a.(i) in
        if not has_mail.(v) then begin
          has_mail.(v) <- true;
          staged.(!n_staged) <- v;
          incr n_staged
        end
      done;
      Ibuf.clear r
    done
  in
  (* Close the books on the round just merged: per-dart burst maxima
     (every loaded dart's head is a staged recipient, so scanning the
     staged slices covers exactly the loaded darts), the round record,
     and the run's totals. *)
  let commit_round ~active =
    (match metrics with
    | Some m ->
        for i = 0 to !n_staged - 1 do
          let v = staged.(i) in
          for d = xadj.(v) to xadj.(v + 1) - 1 do
            if load.(d) > 0 then
              Metrics.note_round_edge_at m ~dir:(dir d v) ~bits:load.(d)
          done
        done;
        Metrics.record_round m ~round:(base + !round) ~active
          ~messages:!msgs_round ~bits:!bits_round
    | None -> ());
    (match trace with
    | Some tr ->
        Trace.on_round tr ~round:(base + !round) ~active ~messages:!msgs_round
          ~bits:!bits_round
    | None -> ());
    if active > !active_peak then active_peak := active;
    total_msgs := !total_msgs + !msgs_round;
    total_bits := !total_bits + !bits_round
  in
  (* Lay the in-dart slices of the worklist's [k] nodes out back to back,
     point each dart's cursor at its slice and reset the dart state for
     the sends of this round; returns the slots laid out. *)
  let layout k =
    let pos = ref 0 in
    for i = 0 to k - 1 do
      let v = active_buf.(i) in
      has_mail.(v) <- false;
      slice.(i) <- !pos;
      for d = xadj.(v) to xadj.(v + 1) - 1 do
        cursor.(d) <- !pos;
        pos := !pos + cnt.(d);
        cnt.(d) <- 0;
        load.(d) <- 0
      done
    done;
    slice.(k) <- !pos;
    n_active := k;
    !pos
  in
  (* Fault-free delivery: the worklist is the sorted recipients, and the
     last round's queues scatter straight into their slices. *)
  let deliver () =
    let k = !n_staged in
    sort_staged ~n has_mail staged k active_buf;
    n_staged := 0;
    let pos = layout k in
    if Array.length !in_msg < pos then begin
      let c = ref 0 in
      while chunks.(!c).q_len = 0 do
        incr c
      done;
      in_src := reserve !in_src pos 0;
      in_msg := reserve !in_msg pos chunks.(!c).q_msg.(0)
    end;
    dispatch !n_chunks scatter;
    k
  in
  (* Delivery under a plan, O(n + m) per round: release last round's
     send-time charges, then lay the due copies out over the live nodes
     through [in_copy]. A slice without reordered copies is already in
     (sender, key, seq) order, so the insertion sort moves only those.
     Returns the nodes that got mail. *)
  let deliver_planned p =
    let r = !round in
    Array.fill cnt 0 nd 0;
    Array.fill load 0 nd 0;
    Array.fill has_mail 0 n false;
    n_staged := 0;
    n_due := 0;
    while Pending.has_due pending r do
      let c = Pending.pop pending in
      let dst = srcs.(rev.(c.dart)) in
      if Fault.down p ~node:dst ~round:r then begin
        Fault.note_crash_lost p;
        on_fault "crash-lost" ~src:srcs.(c.dart) ~dst
      end
      else begin
        cnt.(c.dart) <- cnt.(c.dart) + 1;
        due := reserve !due (!n_due + 1) c;
        !due.(!n_due) <- c;
        incr n_due
      end
    done;
    let k = ref 0 in
    for v = 0 to n - 1 do
      if not (Fault.down p ~node:v ~round:r) then begin
        active_buf.(!k) <- v;
        incr k
      end
    done;
    let pos = layout !k in
    if pos > 0 then begin
      let c0 = !due.(0) in
      in_copy := reserve !in_copy pos c0;
      in_src := reserve !in_src pos 0;
      in_msg := reserve !in_msg pos c0.msg
    end;
    let ic = !in_copy in
    for j = 0 to !n_due - 1 do
      let c = !due.(j) in
      ic.(cursor.(c.dart)) <- c;
      cursor.(c.dart) <- cursor.(c.dart) + 1
    done;
    let later a b =
      let sa = srcs.(a.dart) and sb = srcs.(b.dart) in
      sa > sb || (sa = sb && (a.key > b.key || (a.key = b.key && a.seq > b.seq)))
    in
    let hit = ref 0 in
    for i = 0 to !k - 1 do
      let lo = slice.(i) and hi = slice.(i + 1) in
      if hi > lo then begin
        incr hit;
        for a = lo + 1 to hi - 1 do
          let x = ic.(a) in
          let b = ref (a - 1) in
          while !b >= lo && later ic.(!b) x do
            ic.(!b + 1) <- ic.(!b);
            decr b
          done;
          ic.(!b + 1) <- x
        done;
        if (Fault.spec p).Fault.adversarial then
          Fault.permute p ic ~pos:lo ~len:(hi - lo)
      end
    done;
    for q = 0 to pos - 1 do
      !in_src.(q) <- srcs.(ic.(q).dart);
      !in_msg.(q) <- ic.(q).msg
    done;
    !hit
  in
  (* The distinct recipients of the copies in flight: the [active] of a
     planned run's [No_quiescence]. *)
  let pending_recipients () =
    let seen = Array.make (max 1 n) false in
    for j = 0 to pending.Pending.len - 1 do
      seen.(srcs.(rev.(pending.Pending.a.(j).dart))) <- true
    done;
    Array.fold_left (fun c hit -> if hit then c + 1 else c) 0 seen
  in
  let transitions p =
    List.iter
      (fun (node, what) ->
        let kind = match what with `Crash -> "crash" | `Restart -> "restart" in
        on_fault kind ~src:node ~dst:(-1))
      (Fault.transitions p ~round:!round)
  in
  let run () =
    Option.iter transitions plan;
    if n > 0 then begin
      wake 0 1 0;
      if Option.is_none chunks.(0).err then dispatch domains wake_chunk
    end;
    merge domains;
    (* Round 0's spontaneous sends are checked and counted too; every
       node ran its init, so all n nodes are active. *)
    if !msgs_round > 0 then commit_round ~active:n;
    (* Fault-free, the run ends when no mail is staged. Under a plan it
       ends once [grace] consecutive rounds saw no send and nothing in
       flight, and the crash schedule's horizon has passed (a restart
       scheduled after a lull must still happen); a run whose init sent
       nothing, under a plan that schedules nothing, is over at once. *)
    let quiet () = !msgs_round = 0 && pending.Pending.len = 0 in
    let live =
      match plan with
      | None -> fun () -> !n_staged > 0
      | Some p ->
          let grace = Fault.grace p and horizon = Fault.horizon p in
          if quiet () then idle := grace;
          fun () -> !idle < grace || !round < horizon
    in
    while live () do
      if !round >= max_rounds then begin
        let active = if planned then pending_recipients () else !n_staged in
        raise (No_quiescence { round = !round; active; messages = !msgs_round })
      end;
      incr round;
      let active =
        match plan with
        | None -> deliver ()
        | Some p ->
            transitions p;
            deliver_planned p
      in
      msgs_round := 0;
      bits_round := 0;
      n_chunks := max 1 (min domains !n_active);
      dispatch !n_chunks compute;
      merge !n_chunks;
      commit_round ~active;
      if planned then idle := if quiet () then !idle + 1 else 0
    done;
    !states
  in
  let states =
    Fun.protect
      ~finally:(fun () -> Option.iter Pool.shutdown pool)
      (fun () ->
        try run ()
        with e ->
          Array.iter
            (fun ch ->
              ch.u <- -1;
              ch.err <- None;
              ch.view.Inbox.len <- 0)
            chunks;
          raise e)
  in
  (match metrics with Some m -> Metrics.add_rounds m !round | None -> ());
  let verdict =
    match (Observe.bounds observe, metrics) with
    | Some b, Some m ->
        Some
          (Bounds.check ?c_rounds:b.Observe.c_rounds ?c_bits:b.Observe.c_bits
             ~bandwidth ~n ~d:b.Observe.d m)
    | _ -> None
  in
  let report =
    { messages = !total_msgs; bits = !total_bits;
      max_message_bits = !max_msg_bits; max_round_edge_bits = !max_burst;
      active_peak = !active_peak; verdict }
  in
  { states; rounds = !round; report }
