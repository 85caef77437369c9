type t = {
  id : int;
  vertices : int list;
  leader : int;
  tree : int array;
  up : int array;
  plan : Costmodel.plan;
  depth : int;
  anchors : int list;
  trivial : bool;
  n_bicon : int;
  half : (int * int) list;
  iface_bits : int;
}

exception Nonplanar_detected of string

let word = Gr.id_bits

(* Number of maximal runs in a cyclic sequence after classifying: the
   number of class transitions around the cycle, at least one. *)
let cyclic_runs classify = function
  | [] -> 0
  | [ _ ] -> 1
  | l ->
      let arr = Array.of_list (List.map classify l) in
      let k = Array.length arr in
      let transitions = ref 0 in
      for i = 0 to k - 1 do
        if arr.(i) <> arr.((i + 1) mod k) then incr transitions
      done;
      max 1 !transitions

(* [span] stamps the vertices of the current install's spanning tree
   (install number [spans]), members first, in [order]; [pos] is a
   vertex's position there. The BFS fills [queue] in visiting order and
   gives each reached vertex its [parent], its [dist] to the leader and
   the directed metrics [slot] of its edge to the parent. [need] stamps
   the vertices whose parent edge lies on a member-leader path, and
   [slots] collects those edges. *)
type workspace = {
  embedding : Constrained.workspace;
  span : int array;
  order : int array;
  pos : int array;
  parent : int array;
  dist : int array;
  slot : int array;
  need : int array;
  queue : int array;
  slots : int array;
  mutable spans : int;
}

let workspace g =
  let n = Gr.n g in
  {
    embedding = Constrained.workspace g;
    span = Array.make n 0;
    order = Array.make n 0;
    pos = Array.make n 0;
    parent = Array.make n 0;
    dist = Array.make n 0;
    slot = Array.make n 0;
    need = Array.make n 0;
    queue = Array.make n 0;
    slots = Array.make n 0;
    spans = 0;
  }

let embedding ws = ws.embedding

let create g ws ~classify ~half ~id ~vertices ~anchors =
  let leader = List.fold_left max (List.hd vertices) vertices in
  (* Spanning tree over the part plus its anchors (the "split-off copies"
     of P0 coordinators), rooted at the leader: a BFS over [g] limited to
     the stamped span set, parents -1 while unreached. The visiting order
     matches a BFS of the induced subgraph on the sorted span set, whose
     CSR slices are [g]'s slices filtered, in order. Scanning the slice
     of [v] at dart [d] reaches [w] by the dart [w -> v] itself, so the
     tree edge's metrics slot needs no edge search. *)
  ws.spans <- ws.spans + 1;
  let stamp = ws.spans
  and span = ws.span
  and order = ws.order
  and pos = ws.pos
  and parent = ws.parent
  and dist = ws.dist
  and slot = ws.slot
  and need = ws.need
  and queue = ws.queue in
  let size = ref 0 in
  let enter v =
    if span.(v) <> stamp then begin
      span.(v) <- stamp;
      parent.(v) <- -1;
      pos.(v) <- !size;
      order.(!size) <- v;
      incr size
    end
  in
  List.iter enter vertices;
  let members = !size in
  List.iter enter anchors;
  let size = !size in
  let offsets = Gr.dart_offsets g and sources = Gr.dart_sources g in
  parent.(leader) <- leader;
  dist.(leader) <- 0;
  queue.(0) <- leader;
  let tail = ref 1 in
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for d = offsets.(v) to offsets.(v + 1) - 1 do
      let w = sources.(d) in
      if span.(w) = stamp && parent.(w) = -1 then begin
        parent.(w) <- v;
        dist.(w) <- dist.(v) + 1;
        slot.(w) <- Metrics.dart_dir g d ~dst:v;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  let reached = !tail in
  if reached < size then begin
    let v = ref leader in
    for i = size - 1 downto 0 do
      if parent.(order.(i)) < 0 then v := order.(i)
    done;
    invalid_arg
      (Printf.sprintf "Part.create: part %d is not connected (vertex %d)" id !v)
  end;
  let depth = dist.(queue.(reached - 1)) in
  (* The charge plan: a vertex's parent edge is on a member-leader path
     iff the vertex is a member or has such an edge below it, so one
     sweep from the deepest vertex up collects the paths' union. *)
  let plan_depth = ref 0 in
  for i = 0 to members - 1 do
    let v = order.(i) in
    need.(v) <- stamp;
    if dist.(v) > !plan_depth then plan_depth := dist.(v)
  done;
  let k = ref 0 in
  for i = reached - 1 downto 1 do
    let v = queue.(i) in
    if need.(v) = stamp then begin
      ws.slots.(!k) <- slot.(v);
      incr k;
      need.(parent.(v)) <- stamp
    end
  done;
  let plan =
    { Costmodel.slots = Array.sub ws.slots 0 !k; depth = !plan_depth }
  in
  let tree = Array.sub order 0 size in
  let up = Array.map (fun v -> pos.(parent.(v))) tree in
  (* The induced subgraph proper (without anchors), loaded once into the
     install workspace for the structure and the constrained embedding. *)
  let cw = ws.embedding in
  Constrained.load cw ~part:vertices ~half;
  let trivial = Constrained.induced_edges cw = List.length vertices - 1 in
  let n_bicon = Constrained.blocks cw in
  if not (Constrained.embed_loaded cw) then
    raise
      (Nonplanar_detected
         (Printf.sprintf
            "part %d admits no embedding with its half-embedded edges on one \
             face"
            id));
  let w = word g in
  let iface_bits =
    (* Compressed interface: one (class, count) leaf per maximal run of
       half-embedded edges with the same outside endpoint around the
       realized outer order, plus 2 bits of structure per biconnected
       component. *)
    let runs = cyclic_runs (fun (_u, v) -> classify v) (Constrained.outer cw) in
    2 + (runs * (2 + (2 * w))) + (2 * n_bicon)
  in
  {
    id;
    vertices;
    leader;
    tree;
    up;
    plan;
    depth;
    anchors;
    trivial;
    n_bicon;
    half;
    iface_bits;
  }

let path_to_leader t v =
  let tree = t.tree and up = t.up in
  let rec find i =
    if i = Array.length tree then
      invalid_arg (Printf.sprintf "Part.path_to_leader: %d is not in part %d" v t.id)
    else if tree.(i) = v then i
    else find (i + 1)
  in
  let rec climb i acc =
    let acc = tree.(i) :: acc in
    if up.(i) = i then List.rev acc else climb up.(i) acc
  in
  climb (find 0) []
