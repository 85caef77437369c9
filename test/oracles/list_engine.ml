(* The pre-redesign CONGEST engine, kept verbatim as the differential
   oracle: test_engine_diff runs it side by side with [Network.exec] to
   pin the flat-array and parallel engines to the historical semantics
   bit for bit. It returns bare final states, takes separate
   [?metrics]/[?trace] sinks, keeps per-round hashtables, and signals a
   livelock by [Failure] rather than [Network.No_quiescence]. *)

let run ?bandwidth ?max_rounds ?metrics ?trace g proto =
  let proto = List_shape.to_lists proto in
  let n = Gr.n g in
  let bandwidth =
    match bandwidth with Some b -> b | None -> Network.default_bandwidth g
  in
  let max_rounds = match max_rounds with Some r -> r | None -> (16 * n) + 64 in
  let base = match metrics with Some m -> Metrics.rounds m | None -> 0 in
  let inits = Array.init n (fun v -> proto.init g v) in
  let states = Array.map fst inits in
  let outboxes = Array.map snd inits in
  let record_message round u v msg =
    if not (Gr.mem_edge g u v) then
      invalid_arg
        (Printf.sprintf "Network.exec: node %d sent to non-neighbor %d" u v);
    let bits = proto.msg_bits msg in
    (match metrics with
    | Some m -> Metrics.add_message m ~u ~v ~bits
    | None -> ());
    (match trace with
    | Some tr -> Trace.on_message tr ~round:(base + round) ~src:u ~dst:v ~bits
    | None -> ());
    bits
  in
  let commit_round round ~active outs =
    let per_edge = Hashtbl.create 64 in
    let msgs = ref 0 and bits_total = ref 0 in
    Array.iteri
      (fun u out ->
        List.iter
          (fun (v, msg) ->
            let bits = record_message round u v msg in
            incr msgs;
            bits_total := !bits_total + bits;
            let key = (u, v) in
            let sofar = try Hashtbl.find per_edge key with Not_found -> 0 in
            let now = sofar + bits in
            if now > bandwidth then
              raise (Network.Bandwidth_exceeded { round; u; v; bits = now });
            Hashtbl.replace per_edge key now)
          out)
      outs;
    (match metrics with
    | Some m ->
        Hashtbl.iter
          (fun (u, v) load -> Metrics.note_round_edge m ~u ~v ~bits:load)
          per_edge;
        Metrics.record_round m ~round:(base + round) ~active ~messages:!msgs
          ~bits:!bits_total
    | None -> ());
    match trace with
    | Some tr ->
        Trace.on_round tr ~round:(base + round) ~active ~messages:!msgs
          ~bits:!bits_total
    | None -> ()
  in
  let round = ref 0 in
  let some_sent = ref (Array.exists (fun out -> out <> []) outboxes) in
  if !some_sent then commit_round 0 ~active:n outboxes;
  while !some_sent do
    if !round >= max_rounds then
      failwith "Network.run: no quiescence before max_rounds";
    incr round;
    let inboxes = Array.make n [] in
    Array.iteri
      (fun u out ->
        List.iter (fun (v, msg) -> inboxes.(v) <- (u, msg) :: inboxes.(v)) out)
      outboxes;
    for v = 0 to n - 1 do
      outboxes.(v) <- [];
      if inboxes.(v) <> [] then
        inboxes.(v) <-
          List.stable_sort
            (fun (a, _) (b, _) -> compare a b)
            (List.rev inboxes.(v))
    done;
    let active = ref 0 in
    for v = 0 to n - 1 do
      if inboxes.(v) <> [] then begin
        incr active;
        let (s, out) = proto.round g v states.(v) inboxes.(v) in
        states.(v) <- s;
        outboxes.(v) <- out
      end
    done;
    some_sent := Array.exists (fun out -> out <> []) outboxes;
    commit_round !round ~active:!active outboxes
  done;
  (match metrics with Some m -> Metrics.add_rounds m !round | None -> ());
  states
