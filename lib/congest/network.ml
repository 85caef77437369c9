(* A read-only window [lo, lo + len) onto parallel sender/message
   arrays the engine owns. The engine points one record at each node's
   mail in turn and zeroes [len] when the call returns, so a leaked
   inbox reads as empty and indexing it raises. *)
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

  let iter f t =
    for i = t.lo to t.lo + t.len - 1 do
      f t.srcs.(i) t.msgs.(i)
    done

  let fold f acc t =
    let acc = ref acc in
    for i = t.lo to t.lo + t.len - 1 do
      acc := f !acc t.srcs.(i) t.msgs.(i)
    done;
    !acc

  let to_list t =
    let l = ref [] in
    for i = t.lo + t.len - 1 downto t.lo do
      l := (t.srcs.(i), t.msgs.(i)) :: !l
    done;
    !l

  let of_list l =
    let len = List.length l in
    {
      srcs = Array.of_list (List.map fst l);
      msgs = Array.of_list (List.map snd l);
      lo = 0;
      len;
    }

  let empty () = { srcs = [||]; msgs = [||]; lo = 0; len = 0 }

  (* Copy a list inbox into [t]'s own storage (the list-mail loops). *)
  let load t l =
    let len = List.length l in
    (match l with
    | (_, m) :: _ when Array.length t.msgs < len ->
        let cap = max len (2 * Array.length t.msgs) in
        t.srcs <- Array.make cap 0;
        t.msgs <- Array.make cap m
    | _ -> ());
    List.iteri
      (fun i (u, m) ->
        t.srcs.(i) <- u;
        t.msgs.(i) <- m)
      l;
    t.lo <- 0;
    t.len <- len
end

type 'm send = int -> 'm -> unit

type ('s, 'm) list_protocol = {
  init : Gr.t -> int -> 's * (int * 'm) list;
  round : Gr.t -> int -> 's -> (int * 'm) list -> 's * (int * 'm) list;
  msg_bits : 'm -> int;
}

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

(* The list shape as a push protocol: each call's outbox is sent after
   the call returns, in list order. *)
let of_lists (p : ('s, 'm) list_protocol) : ('s, 'm) protocol =
  let emit send out = List.iter (fun (w, m) -> send w m) out in
  {
    init =
      (fun g v send ->
        let (s, out) = p.init g v in
        emit send out;
        s);
    round =
      (fun g v s inbox send ->
        let (s, out) = p.round g v s (Inbox.to_list inbox) in
        emit send out;
        s);
    msg_bits = p.msg_bits;
  }

(* The converse: run one push call against a collecting [send] and a
   list inbox. Layers that rewrite another protocol's traffic
   ({!Reliable}) and the legacy oracle engine work on this shape. *)
let to_lists (p : ('s, 'm) protocol) : ('s, 'm) list_protocol =
  let collect ib call =
    let out = ref [] and live = ref true in
    let send w m = if !live then out := (w, m) :: !out else leaked () in
    let s =
      Fun.protect
        ~finally:(fun () ->
          live := false;
          ib.Inbox.len <- 0)
        (fun () -> call send)
    in
    (s, List.rev !out)
  in
  {
    init = (fun g v -> collect (Inbox.empty ()) (p.init g v));
    round =
      (fun g v s inbox ->
        let ib = Inbox.of_list inbox in
        collect ib (p.round g v s ib));
    msg_bits = p.msg_bits;
  }

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

  let default =
    {
      domains = 1;
      bandwidth = None;
      max_rounds = None;
      observe = Observe.none;
      faults = None;
    }

  let with_domains domains c = { c with domains }
  let with_bandwidth b c = { c with bandwidth = Some b }
  let with_max_rounds r c = { c with max_rounds = Some r }
  let with_observe observe c = { c with observe }
  let with_faults p c = { c with faults = Some p }

  let make ?(domains = 1) ?bandwidth ?max_rounds ?(observe = Observe.none)
      ?faults () =
    { domains; bandwidth; max_rounds; observe; faults }
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

  let grow t =
    let a' = Array.make (2 * Array.length t.a) 0 in
    Array.blit t.a 0 a' 0 t.len;
    t.a <- a'

  (* Small enough for the compiler to inline into a send. *)
  let push t x =
    if t.len = Array.length t.a then grow t;
    t.a.(t.len) <- x;
    t.len <- t.len + 1
end

(* Growable message buffer — [Ibuf] for 'm values (shard outboxes).
   Starts empty so no dummy element is needed; padded for the same
   false-sharing reason. *)
module Mbuf = struct
  type 'm t = {
    mutable a : 'm array;
    mutable len : int;
    mutable _p0 : int;
    mutable _p1 : int;
    mutable _p2 : int;
    mutable _p3 : int;
    mutable _p4 : int;
    mutable _p5 : int;
  }

  let make () =
    { a = [||]; len = 0; _p0 = 0; _p1 = 0; _p2 = 0; _p3 = 0; _p4 = 0;
      _p5 = 0 }

  let clear t = t.len <- 0

  let push t x =
    let cap = Array.length t.a in
    if t.len = cap then begin
      let a' = Array.make (max 16 (2 * cap)) x in
      Array.blit t.a 0 a' 0 cap;
      t.a <- a'
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1
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

(* The fault-free round loop. All per-round bookkeeping lives in arrays
   preallocated at entry (or grown to their peak) and reused across
   rounds:

   - [cnt.(d)]      messages queued on dart [d] this round; a dart id is
                    its slot in the CSR adjacency, so the in-darts of a
                    recipient are one contiguous range ordered by sender;
   - [load.(d)]     bits pushed through dart [d] this round (the CONGEST
                    bandwidth budget is checked against it at send time);
   - [staged]/[has_mail]  worklist of recipients with mail, so a round
                    costs O(active slices + messages), never O(n);
   - one {!chunk} per domain, holding its sends' flat queue and the
                    recipients it reached.

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

   Delivery is a stable counting scatter: the sorted recipients' in-dart
   slices are laid out back to back in [in_src]/[in_msg], each dart gets
   its slice's cursor, and one pass over each queue drops every message
   into place — a dart's messages all sit in its sender's queue, in send
   order. Stability keeps a sender's messages in send order, the slice
   order sorts by sender: the documented delivery order with no
   comparison sort and no allocation. Each chunk's nodes then read their
   mail through the chunk's one reused {!Inbox} view. *)
let exec_flat ~domains ?bandwidth ?max_rounds ?(observe = Observe.none) g
    (proto : ('s, 'm) protocol) =
  let n = Gr.n g in
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
  (* Only a sink that consumes per-message events makes the merge walk
     the queues. *)
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
  let cnt = Array.make (max 1 nd) 0 in
  let load = Array.make (max 1 nd) 0 in
  let cursor = Array.make (max 1 nd) 0 in
  let has_mail = Array.make (max 1 n) false in
  let staged = Array.make (max 1 n) 0 in
  let n_staged = ref 0 in
  let active_buf = Array.make (max 1 n) 0 in
  let n_active = ref 0 in
  let n_chunks = ref domains in
  let slice = Array.make (n + 1) 0 in
  (* The message arrays start empty and grow from the first message
     (their fill value), so no dummy ['m] is ever needed. *)
  let in_src = ref [||] in
  let in_msg = ref [||] in
  let round = ref 0 in
  let msgs_round = ref 0 in
  let bits_round = ref 0 in
  let total_msgs = ref 0 in
  let total_bits = ref 0 in
  let max_msg_bits = ref 0 in
  let max_burst = ref 0 in
  let active_peak = ref 0 in
  let chunks =
    Array.init domains (fun _ ->
        {
          q_dart = [||];
          q_bits = [||];
          q_msg = [||];
          q_len = 0;
          reached = Ibuf.make 64;
          reached_at = Array.make (max 1 n) (-1);
          bits = 0;
          max_msg = 0;
          max_burst = 0;
          u = -1;
          err = None;
          view = Inbox.empty ();
        })
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
  (* Wake-up over the node range, [domains] chunks. Node 0 wakes first,
     alone: its state seeds the array. *)
  let wake lo hi c =
    let ch = chunks.(c) and send = sends.(c) in
    let v = ref lo in
    try
      while !v < hi do
        ch.u <- !v;
        let s = proto.init g !v send in
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
  let observe_chunk ch =
    for j = 0 to ch.q_len - 1 do
      let d = ch.q_dart.(j) and bits = ch.q_bits.(j) in
      let u = srcs.(d) and v = srcs.(rev.(d)) in
      (match metrics with
      | Some m -> Metrics.add_message_at m ~dir:(dir d v) ~bits
      | None -> ());
      match trace with
      | Some tr -> Trace.on_message tr ~round:(base + !round) ~src:u ~dst:v ~bits
      | None -> ()
    done
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
    if observing then
      for c = 0 to min !stop (k - 1) do
        observe_chunk chunks.(c)
      done;
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
  let run () =
    if n > 0 then begin
      wake 0 1 0;
      if Option.is_none chunks.(0).err then dispatch domains wake_chunk
    end;
    merge domains;
    (* Round 0's spontaneous sends are checked and counted too; every
       node ran its init, so all n nodes are active. *)
    if !msgs_round > 0 then commit_round ~active:n;
    while !n_staged > 0 do
      if !round >= max_rounds then
        raise
          (No_quiescence
             { round = !round; active = !n_staged; messages = !msgs_round });
      incr round;
      (* Deliver: lay the sorted recipients' in-dart slices out back to
         back, reset the dart state for the sends of this round, then
         scatter the last round's queues into the slices. *)
      let k = !n_staged in
      sort_staged ~n has_mail staged k active_buf;
      n_staged := 0;
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
      if Array.length !in_msg < !pos then begin
        let c = ref 0 in
        while chunks.(!c).q_len = 0 do
          incr c
        done;
        let cap = max !pos (2 * Array.length !in_msg) in
        in_src := Array.make cap 0;
        in_msg := Array.make cap chunks.(!c).q_msg.(0)
      end;
      dispatch !n_chunks scatter;
      msgs_round := 0;
      bits_round := 0;
      (* Compute: only the recipients run, in ascending id order within
         each chunk. *)
      n_active := k;
      n_chunks := min domains k;
      dispatch !n_chunks compute;
      merge !n_chunks;
      commit_round ~active:k
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
  {
    states;
    rounds = !round;
    report =
      {
        messages = !total_msgs;
        bits = !total_bits;
        max_message_bits = !max_msg_bits;
        max_round_edge_bits = !max_burst;
        active_peak = !active_peak;
        verdict;
      };
  }

(* The fault-aware clocked engine. [exec] runs here whenever a fault
   plan is installed, at every domain count, so this loop favors clarity
   over allocation discipline: deliveries live in a round-indexed
   pending table (messages can be delayed across rounds), and every live
   node takes a step every round — the clock that timeout-driven
   recovery layers ({!Reliable}) need in order to retransmit.

   Compute runs over [k] contiguous node shards (one at [domains = 1]).
   Each shard steps its own nodes against shard-owned state/inbox cells
   and stages its sends as (sender, recipient, msg) triples; a serial
   network phase then walks the staged sends in ascending shard order —
   ascending node order, each sender's sends in the order it made them —
   doing everything order-sensitive in one thread: metrics, trace,
   bandwidth accounting, fault fates, delivery scheduling and the plan's
   stats. Every random decision is drawn from the plan's single stream
   in that order (message fates in the walk, adversarial inbox shuffles
   in ascending recipient order), so the run is a pure function of
   (protocol, graph, spec, seed) and the same at every domain count. The
   semantics of each fault kind are specified in DESIGN.md §9.

   Error faithfulness: a compute error in shard i suppresses the network
   phase for shards > i and for the erring shard's unstaged tail, so the
   error surfaces exactly after the sends a sequential sweep would have
   processed first; bandwidth and non-neighbor violations raise from the
   network phase mid-walk, outside protocol code. *)
let exec_clocked ~plan ~domains ?bandwidth ?max_rounds
    ?(observe = Observe.none) g (proto : ('s, 'm) protocol) =
  let n = Gr.n g in
  let k = domains in
  let bandwidth =
    match bandwidth with Some b -> b | None -> default_bandwidth g
  in
  let max_rounds = match max_rounds with Some r -> r | None -> (16 * n) + 64 in
  let trace = Observe.trace observe in
  let metrics =
    match (Observe.metrics observe, Observe.bounds observe) with
    | None, Some _ -> Some (Metrics.create g)
    | m, _ -> m
  in
  let base = match metrics with Some m -> Metrics.rounds m | None -> 0 in
  let xadj = Gr.dart_offsets g in
  let srcs = Gr.dart_sources g in
  let dedge = Gr.dart_edges g in
  let rev = Gr.dart_reversals g in
  let nd = Array.length srcs in
  (* A dart is a directed edge, so the metrics slot of each dart is
     fixed; memo it once instead of re-deriving it per message. *)
  let dir_of_dart = Array.make (max 1 nd) 0 in
  for v = 0 to n - 1 do
    for d = xadj.(v) to xadj.(v + 1) - 1 do
      dir_of_dart.(d) <- (2 * dedge.(d)) + if srcs.(d) < v then 0 else 1
    done
  done;
  let shard_lo = Array.init (k + 1) (fun i -> i * n / k) in
  let round = ref 0 in
  let msgs_round = ref 0 in
  let bits_round = ref 0 in
  let total_msgs = ref 0 in
  let total_bits = ref 0 in
  let max_msg_bits = ref 0 in
  let max_burst = ref 0 in
  let active_peak = ref 0 in
  (* Per-dart load of the current round, reset through the touched list
     at commit time; only the network phase reads or writes them. *)
  let load = Array.make (max 1 nd) 0 in
  let touched = ref [] in
  (* Deliveries in flight: delivery round -> (dst, src, key, seq, msg)
     list in reverse insertion order. [seq] is the global send sequence
     number; [key] is the inbox sort key — equal to [seq] normally, a
     random draw for a reordered copy. *)
  let pending : (int, (int * int * int * int * 'm) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let in_flight = ref 0 in
  let seq = ref 0 in
  (* Per-shard staged sends of the current phase: (u, v) int pairs plus
     the message payloads, in the shard's node order, and the shard's
     first compute error. *)
  let ob_uv = Array.init k (fun _ -> Ibuf.make 64) in
  let ob_m : 'm Mbuf.t array = Array.init k (fun _ -> Mbuf.make ()) in
  let sh_err : exn option array = Array.make k None in
  let on_fault kind ~src ~dst =
    (match metrics with Some m -> Metrics.note_fault m ~kind | None -> ());
    match trace with
    | Some tr -> Trace.on_fault tr ~round:(base + !round) ~kind ~src ~dst
    | None -> ()
  in
  let schedule ~src ~dst msg (c : Fault.delivery) =
    if c.Fault.offset > 0 then on_fault "delay" ~src ~dst;
    let key =
      match c.Fault.key with
      | Some key ->
          on_fault "reorder" ~src ~dst;
          key
      | None -> !seq
    in
    let at = !round + 1 + c.Fault.offset in
    let sofar = try Hashtbl.find pending at with Not_found -> [] in
    Hashtbl.replace pending at ((dst, src, key, !seq, msg) :: sofar);
    incr seq;
    incr in_flight
  in
  (* The network phase: walk the shards' staged sends in shard (= node)
     order, charging metrics and bandwidth and drawing each message's
     fate — the sender paid for the message before the network decides
     it. A shard's compute error re-raises after its staged prefix, and
     before any higher shard's sends, which a sequential sweep would
     never have reached. *)
  let apply_sends () =
    for i = 0 to k - 1 do
      let uv = ob_uv.(i) in
      let mb = ob_m.(i) in
      for j = 0 to (uv.Ibuf.len / 2) - 1 do
        let u = uv.Ibuf.a.(2 * j) in
        let v = uv.Ibuf.a.((2 * j) + 1) in
        let msg = mb.Mbuf.a.(j) in
        let d =
          let s = rank srcs xadj.(u) (xadj.(u + 1) - 1) v in
          if s < 0 then
            invalid_arg
              (Printf.sprintf "Network.exec: node %d sent to non-neighbor %d" u
                 v);
          rev.(s)
        in
        let bits = proto.msg_bits msg in
        (match metrics with
        | Some m -> Metrics.add_message_at m ~dir:dir_of_dart.(d) ~bits
        | None -> ());
        (match trace with
        | Some tr ->
            Trace.on_message tr ~round:(base + !round) ~src:u ~dst:v ~bits
        | None -> ());
        incr msgs_round;
        bits_round := !bits_round + bits;
        if bits > !max_msg_bits then max_msg_bits := bits;
        if load.(d) = 0 then touched := d :: !touched;
        let now = load.(d) + bits in
        load.(d) <- now;
        if now > !max_burst then max_burst := now;
        if now > bandwidth then
          raise (Bandwidth_exceeded { round = !round; u; v; bits = now });
        match Fault.fate plan with
        | [] -> on_fault "drop" ~src:u ~dst:v
        | [ c ] -> schedule ~src:u ~dst:v msg c
        | cs ->
            on_fault "duplicate" ~src:u ~dst:v;
            List.iter (schedule ~src:u ~dst:v msg) cs
      done;
      Ibuf.clear uv;
      Mbuf.clear mb;
      match sh_err.(i) with Some e -> raise e | None -> ()
    done
  in
  let commit_round ~active =
    (match metrics with
    | Some m ->
        List.iter
          (fun d ->
            Metrics.note_round_edge_at m ~dir:dir_of_dart.(d) ~bits:load.(d))
          !touched;
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
    total_bits := !total_bits + !bits_round;
    List.iter (fun d -> load.(d) <- 0) !touched;
    touched := []
  in
  let apply_transitions r =
    List.iter
      (fun (node, what) ->
        match what with
        | `Crash -> on_fault "crash" ~src:node ~dst:(-1)
        | `Restart -> on_fault "restart" ~src:node ~dst:(-1))
      (Fault.transitions plan ~round:r)
  in
  (* Per-shard push [send]: stages (sender, recipient, msg) as the
     shard's running node, refused between calls. *)
  let sh_u = Array.make k (-1) in
  let psend =
    Array.init k (fun i w msg ->
        let u = sh_u.(i) in
        if u < 0 then leaked ();
        Ibuf.push ob_uv.(i) u;
        Ibuf.push ob_uv.(i) w;
        Mbuf.push ob_m.(i) msg)
  in
  let note_error i e =
    sh_u.(i) <- -1;
    sh_err.(i) <- Some e
  in
  (* Wake-up: a node down at round 0 still computes its initial state
     (the engine needs one) but takes no step — its spontaneous sends
     are suppressed. *)
  let init i v =
    if Fault.down plan ~node:v ~round:0 then discarding (proto.init g v)
    else begin
      sh_u.(i) <- v;
      let s = proto.init g v psend.(i) in
      sh_u.(i) <- -1;
      s
    end
  in
  let pool = Pool.create ~domains:k () in
  let run () =
    (* Round 0: crashes scheduled at round 0 apply first. Node 0 wakes
       serially and its state seeds the array; the shards then wake the
       rest in parallel. *)
    apply_transitions 0;
    let states =
      if n = 0 then [||]
      else
        match init 0 0 with
        | s -> Array.make n s
        | exception e ->
            (* Raises [e] after node 0's staged sends. *)
            note_error 0 e;
            apply_sends ();
            raise e
    in
    Pool.run pool ~tasks:k (fun i ->
        try
          for v = max 1 shard_lo.(i) to shard_lo.(i + 1) - 1 do
            states.(v) <- init i v
          done
        with e -> note_error i e);
    apply_sends ();
    if !msgs_round > 0 then commit_round ~active:n;
    let inbox : (int * 'm) list array = Array.make (max 1 n) [] in
    let views = Array.init k (fun _ -> Inbox.empty ()) in
    (* Landed copies of the round being delivered: per-recipient reverse
       lists of (src, key, seq, msg). *)
    let landed : (int * int * int * 'm) list array = Array.make (max 1 n) [] in
    let idle = ref 0 in
    let grace = Fault.grace plan in
    let horizon = Fault.horizon plan in
    let pending_recipients () =
      let seen = Hashtbl.create 16 in
      Hashtbl.iter
        (fun _ copies ->
          List.iter
            (fun (dst, _, _, _, _) -> Hashtbl.replace seen dst ())
            copies)
        pending;
      Hashtbl.length seen
    in
    if !msgs_round = 0 && !in_flight = 0 then idle := grace;
    (* The clocked loop: runs until [grace] consecutive rounds saw no send
       and nothing in flight, and the crash schedule's horizon has passed
       (a restart scheduled after a lull must still execute). A run whose
       init sent nothing, under a plan that schedules nothing, is over
       immediately — as in the clean engine. *)
    while not (!idle >= grace && !round >= horizon) do
      if !round >= max_rounds then
        raise
          (No_quiescence
             {
               round = !round;
               active = pending_recipients ();
               messages = !msgs_round;
             });
      incr round;
      let r = !round in
      apply_transitions r;
      (* Deliver: due copies land in their recipients' inboxes — unless
         the recipient is down, in which case the network discards them
         and keeps the score (a retransmission from the reliable layer,
         not the engine, is what carries data past an outage). *)
      let due = try List.rev (Hashtbl.find pending r) with Not_found -> [] in
      Hashtbl.remove pending r;
      List.iter
        (fun (dst, src, key, sq, msg) ->
          decr in_flight;
          if Fault.down plan ~node:dst ~round:r then begin
            Fault.note_crash_lost plan;
            on_fault "crash-lost" ~src ~dst
          end
          else landed.(dst) <- (src, key, sq, msg) :: landed.(dst))
        due;
      (* Sort each hit inbox by (sender, key, seq): with no reordered
         copies this is exactly the documented guarantee — ascending
         sender, per-sender send order. Adversarial mode then shuffles the
         whole inbox. *)
      let active = ref 0 in
      for v = 0 to n - 1 do
        match landed.(v) with
        | [] -> ()
        | copies ->
            incr active;
            landed.(v) <- [];
            let a = Array.of_list copies in
            Array.sort
              (fun (s1, k1, q1, _) (s2, k2, q2, _) ->
                compare (s1, k1, q1) (s2, k2, q2))
              a;
            if (Fault.spec plan).Fault.adversarial then Fault.permute plan a;
            inbox.(v) <-
              Array.fold_right (fun (src, _, _, m) acc -> (src, m) :: acc) a []
      done;
      msgs_round := 0;
      bits_round := 0;
      (* Compute: every live node steps, with an empty inbox if nothing
         arrived — the clock a recovery layer's retransmission timers run
         on ([active] keeps its metrics meaning: nodes that had mail).
         Shards own disjoint state/inbox ranges; sends are staged, so no
         shard writes outside its range. *)
      Pool.run pool ~tasks:k (fun i ->
          let ib = views.(i) in
          try
            for u = shard_lo.(i) to shard_lo.(i + 1) - 1 do
              if not (Fault.down plan ~node:u ~round:r) then begin
                Inbox.load ib inbox.(u);
                inbox.(u) <- [];
                sh_u.(i) <- u;
                states.(u) <- proto.round g u states.(u) ib psend.(i);
                sh_u.(i) <- -1;
                ib.Inbox.len <- 0
              end
              else inbox.(u) <- []
            done
          with e ->
            ib.Inbox.len <- 0;
            note_error i e);
      apply_sends ();
      commit_round ~active:!active;
      idle := if !msgs_round = 0 && !in_flight = 0 then !idle + 1 else 0
    done;
    (match metrics with Some m -> Metrics.add_rounds m !round | None -> ());
    let verdict =
      match (Observe.bounds observe, metrics) with
      | Some b, Some m ->
          Some
            (Bounds.check ?c_rounds:b.Observe.c_rounds ?c_bits:b.Observe.c_bits
               ~bandwidth ~n ~d:b.Observe.d m)
      | _ -> None
    in
    {
      states;
      rounds = !round;
      report =
        {
          messages = !total_msgs;
          bits = !total_bits;
          max_message_bits = !max_msg_bits;
          max_round_edge_bits = !max_burst;
          active_peak = !active_peak;
          verdict;
        };
    }
  in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) run

(* One entry point, two loops: the flat loop whenever no fault plan is
   installed, and the clocked fault-aware loop whenever one is. On
   both, [domains] (capped at [n]) only sets the number of compute
   chunks. *)
let exec ?(config = Config.default) g proto =
  let { Config.domains; bandwidth; max_rounds; observe; faults } = config in
  if domains < 1 then invalid_arg "Network.exec: domains must be at least 1";
  let domains = min domains (max 1 (Gr.n g)) in
  match faults with
  | Some plan ->
      exec_clocked ~plan ~domains ?bandwidth ?max_rounds ~observe g proto
  | None -> exec_flat ~domains ?bandwidth ?max_rounds ~observe g proto
