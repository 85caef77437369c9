(* Scratch for one tree charge, indexed by the child end [v] of a tree
   edge [v -> parent v]. An entry is live for the current charge iff
   [stamp.(v) = cur]; a new charge bumps [cur] instead of clearing.
   [slot.(v)] is the edge's directed metrics slot, [dist.(v)] memoises
   v's distance to the root ([-1] while unknown);
   [touched.(0 .. ntouched-1)] lists the live children, and [path] holds
   the vertices of the walk in progress. *)
type scratch = {
  stamp : int array;
  mutable cur : int;
  load : int array;
  par : int array;
  slot : int array;
  dist : int array;
  touched : int array;
  mutable ntouched : int;
  path : int array;
}

type plan = { slots : int array; depth : int }

type t = {
  g : Gr.t;
  bandwidth : int;
  metrics : Metrics.t;
  trace : Trace.t option;
  round_base : int;
  mutable clock : int;
  scratch : scratch;
}

let create ?bandwidth ?trace ?(round_base = 0) g metrics =
  let bandwidth =
    match bandwidth with Some b -> b | None -> Network.default_bandwidth g
  in
  let n = Gr.n g in
  let scratch =
    {
      stamp = Array.make n 0;
      cur = 0;
      load = Array.make n 0;
      par = Array.make n 0;
      slot = Array.make n 0;
      dist = Array.make n 0;
      touched = Array.make n 0;
      ntouched = 0;
      path = Array.make (n + 1) 0;
    }
  in
  { g; bandwidth; metrics; trace; round_base; clock = 0; scratch }

let bandwidth t = t.bandwidth
let clock t = t.clock
let now t = t.round_base + t.clock
let advance t r = t.clock <- t.clock + r
let ceil_div a b = (a + b - 1) / b

let span_open t name =
  match t.trace with
  | Some tr -> Trace.span_open tr name ~round:(now t)
  | None -> ()

let span_close t ?attrs () =
  match t.trace with
  | Some tr -> Trace.span_close tr ?attrs ~round:(now t) ()
  | None -> ()

let note t name value =
  match t.trace with
  | Some tr -> Trace.note tr name value ~round:(now t)
  | None -> ()

let charge_path t path ~bits =
  match path with
  | [] | [ _ ] -> ()
  | first :: rest ->
      let len = List.length rest in
      let prev = ref first in
      List.iter
        (fun v ->
          Metrics.add_dir_bits t.metrics ~u:!prev ~v ~bits;
          prev := v)
        rest;
      if bits > 0 then t.clock <- t.clock + len + ceil_div bits t.bandwidth - 1

let broken () = invalid_arg "Costmodel: broken tree"

(* Accumulate per-directed-edge (child -> parent) loads into the scratch
   by walking each member towards the root, adding the member's bits to
   each edge; returns the depth. A walk whose payload is 0 stops at the
   first live edge: adding 0 above it changes nothing, every edge above it
   is live already, and the memoised distance completes the depth. The
   parent and adjacency checks run once per tree edge, when the edge
   first goes live; a walk longer than n edges (a cycle in [parent]) is a
   broken tree. *)
let tree_loads t ~root ~parent ~members ~bits_of =
  let s = t.scratch in
  s.cur <- s.cur + 1;
  s.ntouched <- 0;
  let cur = s.cur and n = Gr.n t.g in
  let depth = ref 0 in
  List.iter
    (fun v0 ->
      let bits = bits_of v0 in
      let k = ref 0 in
      let v = ref v0 in
      let stop = ref false in
      while (not !stop) && !v <> root do
        let c = !v in
        if c >= 0 && c < n && s.stamp.(c) = cur then begin
          if bits = 0 then stop := true
          else begin
            s.load.(c) <- s.load.(c) + bits;
            s.path.(!k) <- c;
            incr k;
            v := s.par.(c)
          end
        end
        else begin
          let p = parent c in
          if p = c then broken ();
          (* [Gr.dart] raises [Not_found] off the graph. *)
          let d = Gr.dart t.g ~src:c ~dst:p in
          s.stamp.(c) <- cur;
          s.load.(c) <- bits;
          s.par.(c) <- p;
          s.slot.(c) <- Metrics.dart_dir t.g d ~dst:p;
          s.dist.(c) <- -1;
          s.touched.(s.ntouched) <- c;
          s.ntouched <- s.ntouched + 1;
          s.path.(!k) <- c;
          incr k;
          v := p
        end;
        if !k > n then broken ()
      done;
      let above = if !v = root then 0 else s.dist.(!v) in
      if above < 0 then broken ();
      let k = !k in
      for i = 0 to k - 1 do
        s.dist.(s.path.(i)) <- above + k - i
      done;
      if above + k > !depth then depth := above + k)
    members;
  !depth

let charge_tree t ~root ~parent ~members ~bits_of =
  let depth = tree_loads t ~root ~parent ~members ~bits_of in
  let s = t.scratch in
  let max_load = ref 0 in
  for i = 0 to s.ntouched - 1 do
    let c = s.touched.(i) in
    let l = s.load.(c) in
    Metrics.add_dir_bits_at t.metrics ~dir:s.slot.(c) ~bits:l;
    if l > !max_load then max_load := l
  done;
  if !max_load > 0 || depth > 0 then
    t.clock <- t.clock + depth + ceil_div !max_load t.bandwidth

(* The live edges of a walk are the union of the member-root paths,
   whatever the payload, so the cheapest one, 0, collects them. *)
let aggregate_plan t ~root ~parent ~members =
  let depth = tree_loads t ~root ~parent ~members ~bits_of:(fun _ -> 0) in
  let s = t.scratch in
  { slots = Array.init s.ntouched (fun i -> s.slot.(s.touched.(i))); depth }

let charge_plan t plan ~bits =
  let slots = plan.slots in
  for i = 0 to Array.length slots - 1 do
    Metrics.add_dir_bits_at t.metrics ~dir:slots.(i) ~bits
  done;
  if plan.depth > 0 || bits > 0 then
    t.clock <- t.clock + plan.depth + max 0 (ceil_div bits t.bandwidth - 1)

let charge_aggregate t ~root ~parent ~members ~bits =
  charge_plan t (aggregate_plan t ~root ~parent ~members) ~bits

let note_dir_bits t ~u ~v bits = Metrics.add_dir_bits t.metrics ~u ~v ~bits

let branch_max t branches =
  let t0 = t.clock in
  let finish =
    List.fold_left
      (fun acc f ->
        t.clock <- t0;
        f ();
        max acc t.clock)
      t0 branches
  in
  t.clock <- finish

let phase t name f =
  let r0 = t.clock in
  span_open t name;
  let result =
    try f ()
    with e ->
      span_close t ();
      raise e
  in
  span_close t ();
  Metrics.phase t.metrics name (t.clock - r0);
  result
