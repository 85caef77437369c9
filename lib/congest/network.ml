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
   round 0, the sharded engines' seed call). Like every [send], it
   refuses once its call has returned. *)
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
    epoch : int;
    steal : int;
    bandwidth : int option;
    max_rounds : int option;
    observe : Observe.t;
    faults : Fault.plan option;
  }

  let default =
    {
      domains = 1;
      epoch = 8;
      steal = 4;
      bandwidth = None;
      max_rounds = None;
      observe = Observe.none;
      faults = None;
    }

  let with_domains domains c = { c with domains }
  let with_epoch epoch c = { c with epoch }
  let with_steal steal c = { c with steal }
  let with_bandwidth b c = { c with bandwidth = Some b }
  let with_max_rounds r c = { c with max_rounds = Some r }
  let with_observe observe c = { c with observe }
  let with_faults p c = { c with faults = Some p }

  let make ?(domains = 1) ?bandwidth ?max_rounds ?(observe = Observe.none)
      ?faults ?(epoch = 8) ?(steal = 4) () =
    { domains; epoch; steal; bandwidth; max_rounds; observe; faults }
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

(* The flat-array engine. All per-round bookkeeping lives in arrays
   preallocated at entry (or grown to their peak) and reused across
   rounds:

   - [q_dart]/[q_msg]  the round's sends in send order — ascending
                    sender, then each sender's own send order;
   - [cnt.(d)]      messages queued on dart [d] this round; a dart id is
                    its slot in the CSR adjacency, so the in-darts of a
                    recipient are one contiguous range ordered by sender;
   - [load.(d)]     bits pushed through dart [d] this round (the CONGEST
                    bandwidth budget is checked against it at send time);
   - [staged]/[has_mail]  worklist of recipients with mail, so a round
                    costs O(active slices + messages), never O(n).

   Delivery is a stable counting scatter: the sorted recipients' in-dart
   slices are laid out back to back in [in_src]/[in_msg], each dart gets
   its slice's cursor, and one pass over the queue drops every message
   into place. Stability keeps a sender's messages in send order, the
   slice order sorts by sender — the documented delivery order with no
   comparison sort and no allocation. Each node then reads its mail
   through one reused {!Inbox} view.

   This is the zero-fault path: [exec] dispatches here whenever no fault
   plan is installed, so the loop below must stay bit-identical to the
   pre-fault engine (test_engine_diff.ml holds it to that). *)
let exec_clean ?bandwidth ?max_rounds ?(observe = Observe.none) g
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
  (* Successive runs on the same metrics continue one timeline: rounds
     already accumulated offset this run's round numbers in the round log
     and the trace. *)
  let base = match metrics with Some m -> Metrics.rounds m | None -> 0 in
  let xadj = Gr.dart_offsets g in
  let srcs = Gr.dart_sources g in
  let dedge = Gr.dart_edges g in
  let rev = Gr.dart_reversals g in
  let nd = Array.length srcs in
  let cnt = Array.make (max 1 nd) 0 in
  let load = Array.make (max 1 nd) 0 in
  let cursor = Array.make (max 1 nd) 0 in
  let has_mail = Array.make (max 1 n) false in
  let staged = Array.make (max 1 n) 0 in
  let n_staged = ref 0 in
  let active_buf = Array.make (max 1 n) 0 in
  let slice = Array.make (n + 1) 0 in
  (* The message arrays start empty and grow from the first message
     (their fill value), so no dummy ['m] is ever needed. *)
  let q_dart = ref [||] in
  let q_msg = ref [||] in
  let q_len = ref 0 in
  let in_src = ref [||] in
  let in_msg = ref [||] in
  let inbox = Inbox.empty () in
  let round = ref 0 in
  let msgs_round = ref 0 in
  let bits_round = ref 0 in
  let total_msgs = ref 0 in
  let total_bits = ref 0 in
  let max_msg_bits = ref 0 in
  let max_burst = ref 0 in
  let active_peak = ref 0 in
  (* The node whose [init]/[round] call is running; -1 between calls, so
     a [send] that outlives its call fails loudly. *)
  let cur = ref (-1) in
  (* The engine error a [send] raised. It ends the run even if the
     protocol catches it: the call's later sends and its return raise it
     again, so the observations stop at the failing message. *)
  let failed = ref None in
  let fail e =
    failed := Some e;
    cur := -1;
    raise e
  in
  let refuse () = match !failed with Some e -> raise e | None -> leaked () in
  let send v msg =
    let u = !cur in
    if u < 0 then refuse ();
    let d =
      let s = rank srcs xadj.(u) (xadj.(u + 1) - 1) v in
      if s < 0 then
        fail
          (Invalid_argument
             (Printf.sprintf "Network.exec: node %d sent to non-neighbor %d" u
                v));
      rev.(s)
    in
    let bits = proto.msg_bits msg in
    (match metrics with
    | Some m ->
        Metrics.add_message_at m
          ~dir:((2 * dedge.(d)) + if u < v then 0 else 1)
          ~bits
    | None -> ());
    (match trace with
    | Some tr -> Trace.on_message tr ~round:(base + !round) ~src:u ~dst:v ~bits
    | None -> ());
    incr msgs_round;
    bits_round := !bits_round + bits;
    if bits > !max_msg_bits then max_msg_bits := bits;
    if not has_mail.(v) then begin
      has_mail.(v) <- true;
      staged.(!n_staged) <- v;
      incr n_staged
    end;
    let j = !q_len in
    if j = Array.length !q_msg then begin
      let cap = max 64 (2 * j) in
      let qd = Array.make cap 0 and qm = Array.make cap msg in
      Array.blit !q_dart 0 qd 0 j;
      Array.blit !q_msg 0 qm 0 j;
      q_dart := qd;
      q_msg := qm
    end;
    !q_dart.(j) <- d;
    !q_msg.(j) <- msg;
    q_len := j + 1;
    cnt.(d) <- cnt.(d) + 1;
    let now = load.(d) + bits in
    load.(d) <- now;
    if now > !max_burst then max_burst := now;
    if now > bandwidth then
      fail (Bandwidth_exceeded { round = !round; u; v; bits = now })
  in
  (* Close the books on the round just computed: per-dart burst maxima
     (every loaded dart's head is a staged recipient, so scanning the
     staged slices covers exactly the loaded darts), the round record,
     and the engine's own flat counters. *)
  let commit_round ~active =
    (match metrics with
    | Some m ->
        for i = 0 to !n_staged - 1 do
          let v = staged.(i) in
          for d = xadj.(v) to xadj.(v + 1) - 1 do
            if load.(d) > 0 then
              Metrics.note_round_edge_at m
                ~dir:((2 * dedge.(d)) + if srcs.(d) < v then 0 else 1)
                ~bits:load.(d)
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
    let states =
      Array.init n (fun v ->
          cur := v;
          let s = proto.init g v send in
          if !cur < 0 then refuse ();
          cur := -1;
          s)
    in
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
         back, then scatter the queue into them, and reset the dart
         state for the sends of this round. *)
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
      let q = !q_len in
      if Array.length !in_msg < q then begin
        let cap = max q (2 * Array.length !in_msg) in
        in_src := Array.make cap 0;
        in_msg := Array.make cap !q_msg.(0)
      end;
      let qd = !q_dart and qm = !q_msg and is = !in_src and im = !in_msg in
      for j = 0 to q - 1 do
        let d = qd.(j) in
        let p = cursor.(d) in
        is.(p) <- srcs.(d);
        im.(p) <- qm.(j);
        cursor.(d) <- p + 1
      done;
      q_len := 0;
      msgs_round := 0;
      bits_round := 0;
      (* Compute: only the recipients run, in ascending id order, so
         metrics/trace record messages in the same order as the legacy
         engine's whole-network scan. *)
      inbox.Inbox.srcs <- is;
      inbox.Inbox.msgs <- im;
      for i = 0 to k - 1 do
        let v = active_buf.(i) in
        inbox.Inbox.lo <- slice.(i);
        inbox.Inbox.len <- slice.(i + 1) - slice.(i);
        cur := v;
        states.(v) <- proto.round g v states.(v) inbox send;
        (* Only [fail] clears [cur] inside a call. *)
        if !cur < 0 then refuse ();
        cur := -1;
        inbox.Inbox.len <- 0
      done;
      commit_round ~active:k
    done;
    states
  in
  let states =
    try run ()
    with e ->
      cur := -1;
      inbox.Inbox.len <- 0;
      let e = match !failed with Some f -> f | None -> e in
      failed := None;
      raise e
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

(* ------------------------------------------------------------------ *)
(* The epoch-batched work-stealing engine (Tier A of the multicore     *)
(* layer)                                                              *)
(* ------------------------------------------------------------------ *)

(* Growable int buffer, reused across rounds: per-slot stagings and
   event logs have no static bound, so they amortize to their peak and
   stay there. The header is padded past a cache line: adjacent slots'
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

  let push t x =
    let cap = Array.length t.a in
    if t.len = cap then begin
      let a' = Array.make (2 * cap) 0 in
      Array.blit t.a 0 a' 0 cap;
      t.a <- a'
    end;
    t.a.(t.len) <- x;
    t.len <- t.len + 1
end

(* Growable message buffer — [Ibuf] for 'm values (boundary-mail
   payloads, shard outboxes). Starts empty so no dummy element is
   needed; padded for the same false-sharing reason. *)
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

(* A slot aborts at its first error so its event buffer is exactly the
   prefix the sequential engine would have recorded before raising:
   [pos] is the buffered event count at the instant the error struck,
   [rnd] the absolute round (epoch tasks run several rounds between
   merges, so the slot must remember which one failed). *)
exception Stop_shard

type slot_error = { rnd : int; pos : int; err : exn }

(* Per-slot counters, one padded block per slot: in the width-1
   stolen-chunk path every send bumps its slot's counters, and with the
   old parallel arrays (sl_msgs/sl_bits/...) adjacent slots' counters
   shared cache lines — a measured overhead fraction on chunk-heavy
   workloads. 13 fields + header > 64 bytes keeps any two slots' hot
   fields on different lines. *)
type slot_acc = {
  mutable a_msgs : int;
  mutable a_bits : int;
  mutable a_maxmsg : int;
  mutable a_maxburst : int;
  mutable a_tick : int;  (* current sender's stamp for the load scratch *)
  mutable a_err : slot_error option;
  mutable a_u : int;  (* node whose call is running; -1 between calls *)
  mutable a_rnd : int;  (* that call's absolute round *)
  mutable _a2 : int;
  mutable _a3 : int;
  mutable _a4 : int;
  mutable _a5 : int;
  mutable _a6 : int;
  mutable _a7 : int;
}

let slot_acc () =
  { a_msgs = 0; a_bits = 0; a_maxmsg = 0; a_maxburst = 0; a_tick = 0;
    a_err = None; a_u = -1; a_rnd = 0;
    _a2 = 0; _a3 = 0; _a4 = 0; _a5 = 0; _a6 = 0; _a7 = 0 }

(* Append node [v]'s in-flight mail to the slot store [mb] (its [len] is
   the fill pointer) and empty its darts. Darts ascend by sender and each
   dart's list is newest-first, so the copy runs each list backwards:
   the documented delivery order, with no intermediate list. *)
let drain_box (box : 'm list array) xadj srcs (mb : 'm Inbox.t) v =
  for d = xadj.(v) to xadj.(v + 1) - 1 do
    match box.(d) with
    | [] -> ()
    | msgs ->
        let u = srcs.(d) in
        let c = List.length msgs in
        let top = mb.Inbox.len + c in
        if Array.length mb.Inbox.msgs < top then begin
          let cap = max top (2 * Array.length mb.Inbox.msgs) in
          let ns = Array.make cap 0 and nm = Array.make cap (List.hd msgs) in
          Array.blit mb.Inbox.srcs 0 ns 0 mb.Inbox.len;
          Array.blit mb.Inbox.msgs 0 nm 0 mb.Inbox.len;
          mb.Inbox.srcs <- ns;
          mb.Inbox.msgs <- nm
        end;
        let rec fill i = function
          | [] -> ()
          | m :: rest ->
              mb.Inbox.srcs.(i) <- u;
              mb.Inbox.msgs.(i) <- m;
              fill (i - 1) rest
        in
        fill (top - 1) msgs;
        mb.Inbox.len <- top;
        box.(d) <- []
  done

(* The parallel round engine. The node range is split into [k]
   contiguous shards; a persistent [Pool.t] of [k] domains executes the
   parallel sections, claiming tasks dynamically. Each global iteration
   picks one of two modes:

   {b Chunk mode} (epoch width 1 — the active set touches a shard
   boundary, or epochs are disabled). The {e sorted active list} — not
   the node range — is split into up to [k * steal] contiguous index
   chunks, so a wavefront concentrated in one shard still spreads over
   every domain, and the work-stealing pool keeps all domains busy even
   when chunk costs are skewed. Deliver and compute are separate pool
   dispatches (a barrier sits between them because sends may cross
   chunks); per-chunk counters, event logs and stagings then merge in
   chunk order, which equals ascending node order, which equals the
   sequential engine's visit order.

   {b Epoch mode} (width e >= 2). [dist.(v)] — precomputed once by
   multi-source BFS — is the hop distance from [v] to the nearest
   {e frontier} node (one with a neighbor in another shard). If every
   active node has [dist >= e], then inductively every node computing in
   local round j of the epoch has [dist >= e - (j - 1) >= 1], so {e no
   send leaves its shard for e rounds}: each shard runs e fused
   deliver+compute rounds against the shared dart state it exclusively
   owns, touching the pool barrier twice per epoch instead of twice per
   round. Boundary darts cannot be written during the epoch by
   construction — the "flush" of boundary traffic is the return to
   width-1 chunk mode as soon as the active set nears a frontier.
   Per-shard round logs (plain cumulative counters per local round) let
   the serial epoch merge fold per-round totals without touching a
   single message.

   {b Deferred observation.} Observation sinks no longer cost a serial
   replay per barrier. When no sink consumes per-message events (the
   benchmark hot path) the slots buffer nothing and the barriers fold
   plain counters. When observation is on, each slot appends its events
   to a persistent log, every committed round appends one {e frame}
   (round, active, totals, per-slot event watermarks) to a run-global
   frame log, and the whole timeline is merged {e once at run end} — a
   slot-order k-way walk of the frame log that replays messages, derives
   each round's first-touched recipients for burst accounting, and emits
   the round records. The price is retaining the event log for the whole
   run, the same order of memory a message-keeping trace already costs.

   {b Boundary mail.} Sends never write another shard's cache lines
   during a parallel section: a cross-shard message (sid u <> sid v) is
   staged in its slot's per-destination-shard buffer and flushed at the
   barrier — serially when light, by a pool dispatch over destination
   shards when heavy (each destination's box/has_mail cells then have
   exactly one writer, draining slots in order, which preserves the
   sequential per-dart cons order). Bandwidth is charged at send time
   from a slot-local per-outbox accumulator — all traffic on a dart in
   one round comes from its unique sender's single outbox — so the
   engine no longer keeps a shared per-dart load array at all.

   Both modes preserve bit-identity with [exec_clean] — states,
   rounds, report, metrics, trace — at every (domains, epoch, steal);
   the differential suite (test_engine_diff.ml) holds them to that.
   Error behavior is faithful too: each slot stops at its first error,
   the merge flushes the frame log and then replays exactly the event
   prefix the sequential engine would have recorded (slots below the
   failing one in full, the failing slot up to the error — for epochs,
   complete rounds before the failing round first), and re-raises the
   error the sequential sweep would have hit first: lowest
   (round, slot).

   Protocols must be pure (no shared mutable state in their closures):
   [init]/[round] of different nodes run concurrently, and [init] of
   node 0 is invoked one extra time to seed the states array. *)
let exec_parallel ~domains ~epoch ~steal ?bandwidth ?max_rounds
    ?(observe = Observe.none) g (proto : ('s, 'm) protocol) =
  let n = Gr.n g in
  let k = domains in
  let epoch_max = epoch in
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
  (* Events are buffered as (dart, bits) pairs; the head table turns a
     dart back into its recipient at replay time. *)
  let head = Array.make (max 1 nd) 0 in
  for v = 0 to n - 1 do
    for d = xadj.(v) to xadj.(v + 1) - 1 do
      head.(d) <- v
    done
  done;
  (* Replay is only needed when a sink actually consumes per-message
     events; a trace that drops messages costs nothing in the slots. *)
  let observing =
    Option.is_some metrics
    || (match trace with Some tr -> Trace.keep_messages tr | None -> false)
  in
  let shard_lo = Array.init (k + 1) (fun i -> i * n / k) in
  (* Shard of each node: the boundary-mail test (stage iff
     sid u <> sid v) consults it on every chunk-mode send. *)
  let sid = Array.make (max 1 n) 0 in
  for i = 0 to k - 1 do
    for v = shard_lo.(i) to shard_lo.(i + 1) - 1 do
      sid.(v) <- i
    done
  done;
  (* Hop distance to the nearest shard frontier, the epoch-legality
     oracle: an epoch of width e is sound iff every active node is at
     distance >= e. Nodes in components with no frontier keep max_int —
     their activity can never leave the shard. *)
  let dist =
    if epoch_max <= 1 then [||]
    else begin
      let d = Array.make (max 1 n) max_int in
      let q = Array.make (max 1 n) 0 in
      let qt = ref 0 in
      for v = 0 to n - 1 do
        let frontier = ref false in
        let dd = ref xadj.(v) in
        while (not !frontier) && !dd < xadj.(v + 1) do
          if sid.(srcs.(!dd)) <> sid.(v) then frontier := true;
          incr dd
        done;
        if !frontier then begin
          d.(v) <- 0;
          q.(!qt) <- v;
          incr qt
        end
      done;
      let qh = ref 0 in
      while !qh < !qt do
        let u = q.(!qh) in
        incr qh;
        let du = d.(u) in
        for dd = xadj.(u) to xadj.(u + 1) - 1 do
          let w = srcs.(dd) in
          if d.(w) > du + 1 then begin
            d.(w) <- du + 1;
            q.(!qt) <- w;
            incr qt
          end
        done
      done;
      d
    end
  in
  let box : 'm list array = Array.make (max 1 nd) [] in
  let has_mail = Array.make (max 1 n) false in
  let staged = Array.make (max 1 n) 0 in
  let n_staged = ref 0 in
  let active_buf = Array.make (max 1 n) 0 in
  let n_active = ref 0 in
  (* One extra (discarded) init of node 0 seeds the array; protocols are
     pure, so the real pass below overwrites it with the same value. Its
     sends go nowhere. *)
  let states = Array.make n (discarding (proto.init g 0)) in
  let round = ref 0 in
  let msgs_round = ref 0 in
  let bits_round = ref 0 in
  let total_msgs = ref 0 in
  let total_bits = ref 0 in
  let max_msg_bits = ref 0 in
  let max_burst = ref 0 in
  let active_peak = ref 0 in
  (* Per-slot accumulators: a slot is a chunk in chunk mode (up to
     k * steal of them) or a shard in epoch mode (the first k). Counters
     fold at the merge, stagings dedupe there; event logs are
     append-only for the whole run and replay once at the end. *)
  let nslots = k * steal in
  let sl = Array.init nslots (fun _ -> slot_acc ()) in
  let sl_staged = Array.init nslots (fun _ -> Ibuf.make 64) in
  let sl_events =
    Array.init nslots (fun _ -> Ibuf.make (if observing then 256 else 16))
  in
  (* Slot-local per-round load scratch, indexed by the sender's
     adjacency rank: within one round all traffic on a dart comes from
     its unique sender's single outbox, so the bandwidth/burst
     accumulator needs no shared load array. [ld_cum.(slot).(o)] is the
     cumulative bits of the current sender's out-dart [o] (its rank in
     the sender's CSR slice); validity is a stamp compare against the
     slot's [a_tick], bumped once per sender — O(1) per send, no
     per-node clearing, no probe. *)
  let maxdeg =
    let m = ref 1 in
    for v = 0 to n - 1 do
      let d = xadj.(v + 1) - xadj.(v) in
      if d > !m then m := d
    done;
    !m
  in
  let ld_cum = Array.init nslots (fun _ -> Array.make maxdeg 0) in
  let ld_stp = Array.init nslots (fun _ -> Array.make maxdeg 0) in
  (* Boundary mail staged at send, per (slot, destination shard),
     flushed at the barrier. *)
  let ob_d = Array.init nslots (fun _ -> Array.init k (fun _ -> Ibuf.make 32)) in
  let ob_m : 'm Mbuf.t array array =
    Array.init nslots (fun _ -> Array.init k (fun _ -> Mbuf.make ()))
  in
  let fl_staged = Array.init k (fun _ -> Ibuf.make 64) in
  (* Epoch-mode per-shard logs. [sh_dstaged] accumulates the {e deduped}
     staged recipients of every local round in first-touch order;
     [sh_rlog] stores five ints per completed local round — cumulative
     messages, cumulative bits, active count, event watermark, staging
     watermark — so the merge can fold per-round deltas and slices.
     [sh_cur] is the shard's working (sorted) active list. *)
  let sh_dstaged = Array.init k (fun _ -> Ibuf.make 64) in
  let sh_rlog = Array.init k (fun _ -> Ibuf.make 80) in
  let sh_cur = Array.init k (fun _ -> Ibuf.make 64) in
  (* The run-global frame log (observing runs only): per committed round
     [rnd; nc; active; msgs; bits; wm_0 .. wm_{nc-1}], where wm_s is
     slot s's event-log length at commit. [cursor] tracks each slot's
     replay position during the run-end merge. *)
  let frames = Ibuf.make (if observing then 256 else 16) in
  let fpos = ref 0 in
  let cursor = Array.make nslots 0 in
  (* Merge-time per-dart load reconstruction: the burst accounting of
     every round replays into a scratch copy at merge time. [mstamp]
     and [rbuf] derive the round's first-touched recipients from the
     replayed events — exactly the sequential engine's staging set. *)
  let mload =
    if Option.is_some metrics then Array.make (max 1 nd) 0 else [||]
  in
  let mtouch = Ibuf.make 256 in
  let mstamp = Array.make (max 1 n) 0 in
  let rbuf = Ibuf.make 256 in
  let frame_no = ref 0 in
  let send slot rnd u v msg =
    let s = rank srcs xadj.(u) (xadj.(u + 1) - 1) v in
    if s < 0 then begin
      sl.(slot).a_err <-
        Some
          {
            rnd;
            pos = sl_events.(slot).Ibuf.len;
            err =
              Invalid_argument
                (Printf.sprintf "Network.exec: node %d sent to non-neighbor %d"
                   u v);
          };
      raise_notrace Stop_shard
    end;
    let d = rev.(s) in
    let bits = proto.msg_bits msg in
    if observing then begin
      Ibuf.push sl_events.(slot) d;
      Ibuf.push sl_events.(slot) bits
    end;
    let a = sl.(slot) in
    a.a_msgs <- a.a_msgs + 1;
    a.a_bits <- a.a_bits + bits;
    if bits > a.a_maxmsg then a.a_maxmsg <- bits;
    let o = s - xadj.(u) in
    let cum = ld_cum.(slot) and stp = ld_stp.(slot) in
    let now =
      if stp.(o) = a.a_tick then cum.(o) + bits else bits
    in
    cum.(o) <- now;
    stp.(o) <- a.a_tick;
    if now > a.a_maxburst then a.a_maxburst <- now;
    if now > bandwidth then begin
      (* The sequential engine records the violating message in its
         sinks before raising; [pos] already includes it. *)
      a.a_err <-
        Some
          {
            rnd;
            pos = sl_events.(slot).Ibuf.len;
            err = Bandwidth_exceeded { round = rnd; u; v; bits = now };
          };
      raise_notrace Stop_shard
    end;
    if sid.(u) = sid.(v) then begin
      (match box.(d) with
      | [] -> Ibuf.push sl_staged.(slot) v
      | _ :: _ -> ());
      box.(d) <- msg :: box.(d)
    end
    else begin
      Ibuf.push ob_d.(slot).(sid.(v)) d;
      Mbuf.push ob_m.(slot).(sid.(v)) msg
    end
  in
  (* Per-slot protocol plumbing: the push [send] (as the slot's running
     node, refused between calls), the slot's delivered mail laid out
     back to back with per-node offsets, and the one inbox view over it.
     A slot's first error is sticky: should the protocol catch the
     [Stop_shard] that reported it, the call's later sends and its
     return ([after_call]) raise again, so the slot stops where the
     sequential engine would. *)
  let psend =
    Array.init nslots (fun slot v msg ->
        let a = sl.(slot) in
        if a.a_u < 0 then leaked ()
        else if Option.is_some a.a_err then raise_notrace Stop_shard
        else send slot a.a_rnd a.a_u v msg)
  in
  let after_call a =
    a.a_u <- -1;
    if Option.is_some a.a_err then raise_notrace Stop_shard
  in
  (* Record a slot's error unless it already holds one. *)
  let note_err slot e =
    if Option.is_none sl.(slot).a_err then sl.(slot).a_err <- Some e
  in
  let mail = Array.init nslots (fun _ -> Inbox.empty ()) in
  let moff = Array.init nslots (fun _ -> Ibuf.make 64) in
  let view = Array.init nslots (fun _ -> Inbox.empty ()) in
  let deliver slot v =
    let mb = mail.(slot) in
    Ibuf.push moff.(slot) mb.Inbox.len;
    has_mail.(v) <- false;
    drain_box box xadj srcs mb v
  in
  (* Run node [v]'s round on the mail of its [j]-th delivery in [slot]. *)
  let step slot rnd j v =
    let a = sl.(slot) and mb = mail.(slot) and ib = view.(slot) in
    let off = moff.(slot).Ibuf.a in
    ib.Inbox.srcs <- mb.Inbox.srcs;
    ib.Inbox.msgs <- mb.Inbox.msgs;
    ib.Inbox.lo <- off.(j);
    ib.Inbox.len <-
      (if j + 1 < moff.(slot).Ibuf.len then off.(j + 1) else mb.Inbox.len)
      - off.(j);
    a.a_tick <- a.a_tick + 1;
    a.a_u <- v;
    a.a_rnd <- rnd;
    states.(v) <- proto.round g v states.(v) ib psend.(slot);
    ib.Inbox.len <- 0;
    after_call a
  in
  let reset_mail slot =
    mail.(slot).Inbox.len <- 0;
    Ibuf.clear moff.(slot)
  in
  (* Replay buffered event pairs [lo, hi) of a slot into the sinks as
     round [rnd]; with [tally] also rebuild the per-dart round loads and
     collect first-touched recipients for burst accounting. *)
  let replay ~rnd ~tally slot lo hi =
    let ev = sl_events.(slot).Ibuf.a in
    for j = lo to hi - 1 do
      let d = ev.(2 * j) and bits = ev.((2 * j) + 1) in
      let u = srcs.(d) and v = head.(d) in
      (match metrics with
      | Some m ->
          Metrics.add_message_at m
            ~dir:((2 * dedge.(d)) + if u < v then 0 else 1)
            ~bits;
          if tally then begin
            if mload.(d) = 0 then Ibuf.push mtouch d;
            mload.(d) <- mload.(d) + bits;
            if mstamp.(v) <> !frame_no then begin
              mstamp.(v) <- !frame_no;
              Ibuf.push rbuf v
            end
          end
      | None -> ());
      match trace with
      | Some tr -> Trace.on_message tr ~round:(base + rnd) ~src:u ~dst:v ~bits
      | None -> ()
    done
  in
  (* The deferred observation merge: walk the frame log once — at run
     end or at the error boundary — replaying each round's events in
     slot order (the sequential visit order), scanning the round's
     first-touched recipients' darts for the per-edge burst maxima, and
     emitting the round records. One serial pass over the whole
     timeline replaces the old serial replay inside every barrier. *)
  let flush_frames () =
    let fa = frames.Ibuf.a in
    while !fpos < frames.Ibuf.len do
      incr frame_no;
      let p = !fpos in
      let rnd = fa.(p) in
      let nc = fa.(p + 1) in
      let active = fa.(p + 2) in
      let msgs = fa.(p + 3) in
      let bits = fa.(p + 4) in
      let tally = Option.is_some metrics in
      Ibuf.clear rbuf;
      for s = 0 to nc - 1 do
        let wm = fa.(p + 5 + s) in
        replay ~rnd ~tally s (cursor.(s) / 2) (wm / 2);
        cursor.(s) <- wm
      done;
      (match metrics with
      | Some m ->
          for i = 0 to rbuf.Ibuf.len - 1 do
            let v = rbuf.Ibuf.a.(i) in
            for d = xadj.(v) to xadj.(v + 1) - 1 do
              if mload.(d) > 0 then
                Metrics.note_round_edge_at m
                  ~dir:((2 * dedge.(d)) + if srcs.(d) < v then 0 else 1)
                  ~bits:mload.(d)
            done
          done;
          for i = 0 to mtouch.Ibuf.len - 1 do
            mload.(mtouch.Ibuf.a.(i)) <- 0
          done;
          Ibuf.clear mtouch;
          Metrics.record_round m ~round:(base + rnd) ~active ~messages:msgs
            ~bits
      | None -> ());
      (match trace with
      | Some tr ->
          Trace.on_round tr ~round:(base + rnd) ~active ~messages:msgs ~bits
      | None -> ());
      fpos := p + 5 + nc
    done
  in
  (* First index in the sorted active prefix holding a node >= x. *)
  let lower_bound x =
    let rec go a b =
      if a >= b then a
      else begin
        let mid = (a + b) / 2 in
        if active_buf.(mid) < x then go (mid + 1) b else go a mid
      end
    in
    go 0 !n_active
  in
  (* Commit one chunk-mode (or init) round: when observing, append a
     frame for the run-end merge; totals fold either way. *)
  let commit_round ~nc ~active =
    if observing then begin
      Ibuf.push frames !round;
      Ibuf.push frames nc;
      Ibuf.push frames active;
      Ibuf.push frames !msgs_round;
      Ibuf.push frames !bits_round;
      for s = 0 to nc - 1 do
        Ibuf.push frames sl_events.(s).Ibuf.len
      done
    end;
    if active > !active_peak then active_peak := active;
    total_msgs := !total_msgs + !msgs_round;
    total_bits := !total_bits + !bits_round
  in
  let pool = Pool.create ~domains:k () in
  let shutdown () = Pool.shutdown pool in
  let fail_with e =
    shutdown ();
    Array.iter (fun a -> a.a_u <- -1) sl;
    Array.iter (fun ib -> ib.Inbox.len <- 0) view;
    raise e
  in
  (* Deliver the boundary mail staged during a width-1 section: walk
     destination shards, draining slots in ascending order — each
     destination's box/has_mail cells get exactly one writer, and slot
     order preserves the sequential per-dart cons order. Serial when the
     volume wouldn't pay for a dispatch. Flushing cannot fail: darts
     were resolved and bandwidth charged at send time. *)
  let flush_boundary nc =
    let total = ref 0 in
    for s = 0 to nc - 1 do
      for t = 0 to k - 1 do
        total := !total + ob_d.(s).(t).Ibuf.len
      done
    done;
    if !total > 0 then begin
      let flush_to t =
        let fs = fl_staged.(t) in
        for s = 0 to nc - 1 do
          let db = ob_d.(s).(t) and mb = ob_m.(s).(t) in
          for j = 0 to db.Ibuf.len - 1 do
            let d = db.Ibuf.a.(j) in
            let msg = mb.Mbuf.a.(j) in
            (match box.(d) with
            | [] ->
                let v = head.(d) in
                if not has_mail.(v) then begin
                  has_mail.(v) <- true;
                  Ibuf.push fs v
                end
            | _ :: _ -> ());
            box.(d) <- msg :: box.(d)
          done;
          Ibuf.clear db;
          Mbuf.clear mb
        done
      in
      if !total < 512 || k <= 1 then
        for t = 0 to k - 1 do
          flush_to t
        done
      else Pool.run pool ~tasks:k flush_to;
      for t = 0 to k - 1 do
        let fs = fl_staged.(t) in
        for j = 0 to fs.Ibuf.len - 1 do
          staged.(!n_staged) <- fs.Ibuf.a.(j);
          incr n_staged
        done;
        Ibuf.clear fs
      done
    end
  in
  (* Fold one width-1 parallel section (init or a chunked round) back
     into the global round state; on error, flush the frame log and
     replay only the sequential prefix of the failing round, then
     re-raise. Chunks are contiguous ascending slices of the visit
     order, so slot order = sequential order and the lowest erring slot
     holds the error a sequential sweep would hit first. *)
  let merge_slots nc =
    let erri = ref (-1) in
    for i = nc - 1 downto 0 do
      if sl.(i).a_err <> None then erri := i
    done;
    if !erri >= 0 then begin
      let { rnd; pos; err } =
        match sl.(!erri).a_err with Some e -> e | None -> assert false
      in
      if observing then begin
        flush_frames ();
        for i = 0 to !erri - 1 do
          replay ~rnd ~tally:false i
            (cursor.(i) / 2)
            (sl_events.(i).Ibuf.len / 2)
        done;
        replay ~rnd ~tally:false !erri (cursor.(!erri) / 2) (pos / 2)
      end;
      fail_with err
    end;
    flush_boundary nc;
    for i = 0 to nc - 1 do
      let a = sl.(i) in
      msgs_round := !msgs_round + a.a_msgs;
      bits_round := !bits_round + a.a_bits;
      if a.a_maxmsg > !max_msg_bits then max_msg_bits := a.a_maxmsg;
      if a.a_maxburst > !max_burst then max_burst := a.a_maxburst;
      let st = sl_staged.(i) in
      for j = 0 to st.Ibuf.len - 1 do
        let w = st.Ibuf.a.(j) in
        if not has_mail.(w) then begin
          has_mail.(w) <- true;
          staged.(!n_staged) <- w;
          incr n_staged
        end
      done;
      a.a_msgs <- 0;
      a.a_bits <- 0;
      a.a_maxmsg <- 0;
      a.a_maxburst <- 0;
      Ibuf.clear sl_staged.(i)
    done
  in
  (* One shard's whole epoch: up to [e] fused deliver+compute rounds
     against dart state no other domain touches (the epoch-legality
     invariant), logging enough per round for the serial merge to
     replay. Stops early when the shard's own activity dies out — no
     other shard can reactivate it mid-epoch. *)
  let shard_epoch i round_base e =
    let lrnd = ref round_base in
    try
      let a = lower_bound shard_lo.(i) and b = lower_bound shard_lo.(i + 1) in
      let cur = sh_cur.(i) in
      Ibuf.clear cur;
      for idx = a to b - 1 do
        Ibuf.push cur active_buf.(idx)
      done;
      let acount = ref cur.Ibuf.len in
      let raw = sl_staged.(i) in
      let dst = sh_dstaged.(i) in
      let rl = sh_rlog.(i) in
      let j = ref 0 in
      while !acount > 0 && !j < e do
        incr j;
        let rnd = round_base + !j in
        lrnd := rnd;
        (* Deliver to this shard's recipients only: their in-dart ranges
           were last written by this shard (local rounds) or before the
           epoch started (the dispatch barrier ordered those writes). *)
        reset_mail i;
        for idx = 0 to !acount - 1 do
          deliver i cur.Ibuf.a.(idx)
        done;
        Ibuf.clear raw;
        for idx = 0 to !acount - 1 do
          step i rnd idx cur.Ibuf.a.(idx)
        done;
        (* Dedup this round's raw (per-dart) stagings into the epoch log
           in first-touch order — the order the sequential engine stages
           these same recipients in. *)
        let dst0 = dst.Ibuf.len in
        for idx = 0 to raw.Ibuf.len - 1 do
          let w = raw.Ibuf.a.(idx) in
          if not has_mail.(w) then begin
            has_mail.(w) <- true;
            Ibuf.push dst w
          end
        done;
        Ibuf.push rl sl.(i).a_msgs;
        Ibuf.push rl sl.(i).a_bits;
        Ibuf.push rl !acount;
        Ibuf.push rl sl_events.(i).Ibuf.len;
        Ibuf.push rl dst.Ibuf.len;
        (* Next round's worklist: this round's staging, sorted. *)
        Ibuf.clear cur;
        for idx = dst0 to dst.Ibuf.len - 1 do
          Ibuf.push cur dst.Ibuf.a.(idx)
        done;
        sort_prefix cur.Ibuf.a cur.Ibuf.len;
        acount := cur.Ibuf.len
      done
    with
    | Stop_shard -> ()
    | e -> note_err i { rnd = !lrnd; pos = sl_events.(i).Ibuf.len; err = e }
  in
  (* Serial epoch merge: fold the shards' round logs into per-round
     totals in shard order. Shard order per round = ascending node order
     = the sequential engine's visit order, because epochs only run when
     every send stays shard-internal. When observing, each local round
     appends one frame; messages replay at run end, not here. *)
  let merge_epoch () =
    let round_base = !round in
    let cnt i = sh_rlog.(i).Ibuf.len / 5 in
    (* Field f of shard i's local round j (1-based); 0 for j = 0. Fields:
       0 cumulative msgs, 1 cumulative bits, 2 active, 3 event
       watermark, 4 staging watermark. *)
    let rl_get i j f =
      if j = 0 then 0 else sh_rlog.(i).Ibuf.a.((5 * (j - 1)) + f)
    in
    (* Earliest error by (absolute round, shard) — the one the
       sequential sweep would have hit first. *)
    let err_slot = ref (-1) in
    let err_rnd = ref max_int in
    for i = k - 1 downto 0 do
      match sl.(i).a_err with
      | Some { rnd; _ } when rnd <= !err_rnd ->
          err_rnd := rnd;
          err_slot := i
      | _ -> ()
    done;
    let r_full =
      if !err_slot >= 0 then !err_rnd - round_base - 1
      else begin
        let r = ref 0 in
        for i = 0 to k - 1 do
          if cnt i > !r then r := cnt i
        done;
        !r
      end
    in
    for j = 1 to r_full do
      incr round;
      let m_j = ref 0 and b_j = ref 0 and a_j = ref 0 in
      for i = 0 to k - 1 do
        if cnt i >= j then begin
          m_j := !m_j + rl_get i j 0 - rl_get i (j - 1) 0;
          b_j := !b_j + rl_get i j 1 - rl_get i (j - 1) 1;
          a_j := !a_j + sh_rlog.(i).Ibuf.a.((5 * (j - 1)) + 2)
        end
      done;
      if observing then begin
        Ibuf.push frames !round;
        Ibuf.push frames k;
        Ibuf.push frames !a_j;
        Ibuf.push frames !m_j;
        Ibuf.push frames !b_j;
        (* A shard that died out before local round j keeps its final
           watermark — an empty replay slice at merge time. A shard that
           never ran this epoch has no log rows at all; its watermark is
           its event length as it stood, which the cursor already equals
           (rl_get would say 0 and rewind the cursor). *)
        for i = 0 to k - 1 do
          let wm =
            if cnt i = 0 then sl_events.(i).Ibuf.len
            else rl_get i (min j (cnt i)) 3
          in
          Ibuf.push frames wm
        done
      end;
      if !a_j > !active_peak then active_peak := !a_j;
      total_msgs := !total_msgs + !m_j;
      total_bits := !total_bits + !b_j;
      msgs_round := !m_j;
      bits_round := !b_j
    done;
    if !err_slot >= 0 then begin
      (* The failing round: shards below the erring one completed it (a
         same-round error in a lower shard would have been selected), so
         their events replay in full; the erring shard replays up to the
         error; higher shards never ran sequentially. No round record —
         the sequential engine raises before its commit. *)
      let slot = !err_slot in
      let jl = !err_rnd - round_base in
      let { rnd; pos; err } =
        match sl.(slot).a_err with Some e -> e | None -> assert false
      in
      incr round;
      if observing then begin
        flush_frames ();
        for i = 0 to slot - 1 do
          if cnt i >= jl then
            replay ~rnd ~tally:false i (cursor.(i) / 2) (rl_get i jl 3 / 2)
        done;
        replay ~rnd ~tally:false slot (cursor.(slot) / 2) (pos / 2)
      end;
      fail_with err
    end;
    (* Pending work for the next global iteration: each shard's final
       staging slice — already deduped, [has_mail] already set. Shards
       that died out mid-epoch contribute an empty slice. *)
    n_staged := 0;
    for i = 0 to k - 1 do
      let c = cnt i in
      if c > 0 then begin
        let dst = sh_dstaged.(i) in
        for idx = rl_get i (c - 1) 4 to rl_get i c 4 - 1 do
          staged.(!n_staged) <- dst.Ibuf.a.(idx);
          incr n_staged
        done
      end
    done;
    for i = 0 to k - 1 do
      let a = sl.(i) in
      if a.a_maxmsg > !max_msg_bits then max_msg_bits := a.a_maxmsg;
      if a.a_maxburst > !max_burst then max_burst := a.a_maxburst;
      a.a_msgs <- 0;
      a.a_bits <- 0;
      a.a_maxmsg <- 0;
      a.a_maxburst <- 0;
      Ibuf.clear sl_staged.(i);
      Ibuf.clear sh_dstaged.(i);
      Ibuf.clear sh_rlog.(i);
      Ibuf.clear sh_cur.(i)
    done
  in
  (* Init: chunked over contiguous node ranges (sends may cross shards
     here, so this is a width-1 section with the standard merge). *)
  let nc_init = max 1 (min nslots n) in
  Pool.run pool ~tasks:nc_init (fun c ->
      let lo = c * n / nc_init and hi = (c + 1) * n / nc_init in
      try
        let a = sl.(c) in
        for v = lo to hi - 1 do
          a.a_tick <- a.a_tick + 1;
          a.a_u <- v;
          a.a_rnd <- 0;
          states.(v) <- proto.init g v psend.(c);
          after_call a
        done
      with
      | Stop_shard -> ()
      | e -> note_err c { rnd = 0; pos = sl_events.(c).Ibuf.len; err = e });
  merge_slots nc_init;
  if !msgs_round > 0 then commit_round ~nc:nc_init ~active:n;
  while !n_staged > 0 do
    if !round >= max_rounds then begin
      if observing then flush_frames ();
      fail_with
        (No_quiescence
           { round = !round; active = !n_staged; messages = !msgs_round })
    end;
    let kact = !n_staged in
    sort_staged ~n has_mail staged kact active_buf;
    n_active := kact;
    n_staged := 0;
    (* Epoch width: the least frontier distance over the active set,
       clamped by the configured maximum and the round budget. Width 1
       is chunk mode. *)
    let e =
      if epoch_max <= 1 then 1
      else begin
        let m = ref max_int in
        let i = ref 0 in
        while !i < kact && !m > 1 do
          let dv = dist.(active_buf.(!i)) in
          if dv < !m then m := dv;
          incr i
        done;
        max 1 (min (min !m epoch_max) (max_rounds - !round))
      end
    in
    msgs_round := 0;
    bits_round := 0;
    if e <= 1 then begin
      incr round;
      let rnd = !round in
      let nc = min nslots kact in
      Pool.run pool ~tasks:nc (fun c ->
          let lo = c * kact / nc and hi = (c + 1) * kact / nc in
          try
            reset_mail c;
            for idx = lo to hi - 1 do
              deliver c active_buf.(idx)
            done
          with e -> note_err c { rnd; pos = sl_events.(c).Ibuf.len; err = e });
      Pool.run pool ~tasks:nc (fun c ->
          let lo = c * kact / nc and hi = (c + 1) * kact / nc in
          try
            for idx = lo to hi - 1 do
              step c rnd (idx - lo) active_buf.(idx)
            done
          with
          | Stop_shard -> ()
          | e -> note_err c { rnd; pos = sl_events.(c).Ibuf.len; err = e });
      merge_slots nc;
      commit_round ~nc ~active:kact
    end
    else begin
      let round_base = !round in
      Pool.run pool ~tasks:k (fun i -> shard_epoch i round_base e);
      merge_epoch ()
    end
  done;
  if observing then flush_frames ();
  shutdown ();
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

(* One entry point, three engines: the clean flat-array loop whenever no
   fault plan is installed and one domain suffices — kept bit-identical
   to the pre-fault engine and allocation-free per round — the
   epoch-batched work-stealing loop when [domains > 1] (bit-identical to
   the clean loop by construction), and the clocked fault-aware loop
   whenever a plan is installed, where [domains] only sets the number
   of compute shards. [epoch]/[steal] only shape the fault-free parallel
   engine's schedule — elsewhere they are ignored. *)
let exec ?(config = Config.default) g proto =
  let { Config.domains; epoch; steal; bandwidth; max_rounds; observe; faults } =
    config
  in
  if domains < 1 then invalid_arg "Network.exec: domains must be at least 1";
  if epoch < 1 then invalid_arg "Network.exec: epoch must be at least 1";
  if steal < 1 then invalid_arg "Network.exec: steal must be at least 1";
  match faults with
  | Some plan ->
      let k = min domains (max 1 (Gr.n g)) in
      exec_clocked ~plan ~domains:k ?bandwidth ?max_rounds ~observe g proto
  | None ->
      let k = min domains (Gr.n g) in
      if k <= 1 then exec_clean ?bandwidth ?max_rounds ~observe g proto
      else
        exec_parallel ~domains:k ~epoch ~steal ?bandwidth ?max_rounds ~observe
          g proto
