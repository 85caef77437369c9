(* A loaded part names its vertices 0 .. p-1 in list order, the stub of
   its i-th half edge p + i and the apex p + k. [stamp] marks which
   entries of [local] belong to the current load, so naming a part costs
   O(p) and no table. The last four arrays are the block count's DFS:
   discovery time, lowpoint and CSR cursor per local id, and the DFS
   stack. *)
type workspace = {
  g : Gr.t;
  lr : Lr.workspace;
  stamp : int array;
  local : int array;
  global : int array;
  mutable loads : int;
  mutable p : int;
  mutable k : int;
  mutable induced : int;
  mutable half : (int * int) array;
  disc : int array;
  low : int array;
  cursor : int array;
  stack : int array;
}

let workspace g =
  let n = Gr.n g in
  let vs () = Array.make n 0 in
  {
    g;
    lr = Lr.workspace ();
    stamp = vs ();
    local = vs ();
    global = vs ();
    loads = 0;
    p = 0;
    k = 0;
    induced = 0;
    half = [||];
    disc = vs ();
    low = vs ();
    cursor = vs ();
    stack = vs ();
  }

let in_load ws v = ws.stamp.(v) = ws.loads

(* Tarjan's lowpoint count over the network's CSR restricted to the
   loaded part: a DFS tree edge (parent, u) closes one block exactly
   when low(u) >= disc(parent) — the components [Bicon.decompose] pops.
   A vertex's DFS parent is the entry below it on the stack. *)
let blocks ws =
  let off = Gr.dart_offsets ws.g and src = Gr.dart_sources ws.g in
  let disc = ws.disc and low = ws.low in
  let cursor = ws.cursor and stack = ws.stack in
  Array.fill disc 0 ws.p (-1);
  let time = ref 0 and top = ref 0 and blocks = ref 0 in
  let enter u =
    disc.(u) <- !time;
    low.(u) <- !time;
    incr time;
    cursor.(u) <- off.(ws.global.(u));
    stack.(!top) <- u;
    incr top
  in
  for r = 0 to ws.p - 1 do
    if disc.(r) < 0 then begin
      enter r;
      while !top > 0 do
        let u = stack.(!top - 1) in
        let parent = if !top > 1 then stack.(!top - 2) else -1 in
        let d = cursor.(u) in
        if d < off.(ws.global.(u) + 1) then begin
          cursor.(u) <- d + 1;
          let w = src.(d) in
          if in_load ws w then begin
            let x = ws.local.(w) in
            if disc.(x) < 0 then enter x
            else if x <> parent && disc.(x) < low.(u) then low.(u) <- disc.(x)
          end
        end
        else begin
          decr top;
          if parent >= 0 then begin
            if low.(u) < low.(parent) then low.(parent) <- low.(u);
            if low.(u) >= disc.(parent) then incr blocks
          end
        end
      done
    end
  done;
  !blocks

let load ws ~part ~half =
  let g = ws.g in
  let n = Gr.n g in
  ws.loads <- ws.loads + 1;
  let p = ref 0 and deg = ref 0 in
  List.iter
    (fun v ->
      if v < 0 || v >= n then
        invalid_arg "Constrained.load: part vertex out of range";
      if in_load ws v then invalid_arg "Constrained.load: duplicate part vertex";
      ws.stamp.(v) <- ws.loads;
      ws.local.(v) <- !p;
      ws.global.(!p) <- v;
      incr p;
      deg := !deg + Gr.degree g v)
    part;
  let p = !p in
  let k = List.length half in
  if Array.length ws.half < k then
    ws.half <- Array.make (max k (2 * Array.length ws.half)) (0, 0);
  List.iteri
    (fun i ((u, v) as e) ->
      if not (Gr.mem_edge g u v) then
        invalid_arg "Constrained.load: half edge is not a graph edge";
      if not (in_load ws u) then
        invalid_arg "Constrained.load: half edge inside endpoint not in part";
      if in_load ws v then
        invalid_arg "Constrained.load: half edge outside endpoint in part";
      ws.half.(i) <- e)
    half;
  (* Each induced edge is counted twice in [deg], so this reserves room
     for the induced pairs and the 2k stub and apex pairs after them. *)
  let (lo, hi) = Lr.pairs ws.lr ~m:((!deg / 2) + (2 * k)) in
  let off = Gr.dart_offsets g and src = Gr.dart_sources g in
  let m = ref 0 in
  for i = 0 to p - 1 do
    let v = ws.global.(i) in
    for d = off.(v) to off.(v + 1) - 1 do
      let w = src.(d) in
      if in_load ws w && ws.local.(w) > i then begin
        lo.(!m) <- i;
        hi.(!m) <- ws.local.(w);
        incr m
      end
    done
  done;
  ws.p <- p;
  ws.k <- k;
  ws.induced <- !m

let induced_edges ws = ws.induced

let embed_loaded ws =
  let p = ws.p and k = ws.k and m0 = ws.induced in
  let (lo, hi) = Lr.pairs ws.lr ~m:(m0 + (2 * k)) in
  let apex = p + k in
  for i = 0 to k - 1 do
    let (u, _) = ws.half.(i) in
    let j = m0 + (2 * i) in
    lo.(j) <- ws.local.(u);
    hi.(j) <- p + i;
    lo.(j + 1) <- p + i;
    hi.(j + 1) <- apex
  done;
  Lr.embed_pairs ws.lr ~n:(if k = 0 then p else apex + 1) ~m:(m0 + (2 * k))

let kernel ws = ws.lr

(* Local vertex [i]'s ring as an array of [f] over its local ids. *)
let ring_map ws i f =
  let off = Lr.offsets ws.lr and src = Lr.sources ws.lr in
  let ring = Lr.ring ws.lr in
  let lo = off.(i) in
  Array.init (off.(i + 1) - lo) (fun j -> f src.(ring.(lo + j)))

let outer ws =
  if ws.k = 0 then []
  else
    Array.to_list (ring_map ws (ws.p + ws.k) (fun s -> ws.half.(s - ws.p)))

let rotation ws =
  let n = Gr.n ws.g in
  if ws.k <> 0 || ws.p <> n then
    invalid_arg "Constrained.rotation: the part does not cover the graph";
  Rotation.make_owned ws.g
    (Array.init n (fun v -> ring_map ws ws.local.(v) (fun s -> ws.global.(s))))
