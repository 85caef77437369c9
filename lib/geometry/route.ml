(* Greedy-face-greedy routing on the real graph's straight-line drawing.

   All geometry is exact: distances are squared integers, face-crossing
   parameters are fractions compared by 128-bit cross multiplication
   (products of two ~2^35 cross products overflow 63-bit ints, so each
   product is carried as hi * 2^20 + lo).

   The engine is flat. The rotation is a CSR table over the graph's own
   dart offsets, darts are the graph's dense dart ids, face successors
   come from the rotation's face permutation, and a query's state is one
   mutable record: a hop allocates nothing. Hops are recorded in a
   per-domain int buffer, and a delivered path is consed once from its
   end, so its cells are the only words a hop costs. *)

type t = {
  sch : Schnyder.t;
  g : Gr.t;
  rot : Rotation.t; (* the real graph's rotation: its face permutation *)
  x : int array;
  y : int array;
  off : int array; (* v's rotation is slots off.(v) .. off.(v+1) - 1 *)
  nbr : int array; (* slot -> neighbour, in rotation order *)
  out : int array; (* slot of u at v -> the dart v -> u *)
  srcs : int array; (* dart -> source vertex *)
  comp : int array; (* component id per vertex *)
  ccw : bool; (* drawing chirality: rotations counterclockwise? *)
}

type outcome =
  | Delivered of {
      path : int list;
      hops : int;
      greedy_hops : int;
      face_hops : int;
      recoveries : int;
    }
  | Unreachable
  | Stuck of { at : int; hops : int }

let make sch =
  let tri = Schnyder.triangulation sch in
  let rot = Triangulate.source tri in
  let g = Rotation.graph rot in
  let n = Gr.n g in
  let x, y = Schnyder.coords sch in
  let off = Gr.dart_offsets g
  and srcs = Gr.dart_sources g
  and rev = Gr.dart_reversals g in
  let nbr = Array.make (max 1 (Gr.darts g)) (-1) in
  let out = Array.make (max 1 (Gr.darts g)) (-1) in
  (* [slot.(u)] is the in-dart u -> v of the vertex v being filled; its
     reversal is the out-dart v -> u. *)
  let slot = Array.make (max 1 n) (-1) in
  for v = 0 to n - 1 do
    for d = off.(v) to off.(v + 1) - 1 do
      slot.(srcs.(d)) <- d
    done;
    let r = Rotation.rotation rot v in
    for i = 0 to Array.length r - 1 do
      nbr.(off.(v) + i) <- r.(i);
      out.(off.(v) + i) <- rev.(slot.(r.(i)))
    done
  done;
  let comp = Array.make (max 1 n) (-1) in
  List.iteri
    (fun i vs -> List.iter (fun v -> comp.(v) <- i) vs)
    (Traverse.components g);
  (* Chirality: the triangulation's interior faces all share one
     orientation sign (only the outer face differs). When rotations run
     counterclockwise in the drawing, the face orbit of a dart lies to
     its right and is traced clockwise — negative orientation — so a
     clockwise majority means counterclockwise rotations. *)
  let census = Drawing.face_census (Triangulate.rotation tri) ~x ~y in
  let ccw = census.ccw < census.cw in
  { sch; g; rot; x; y; off; nbr; out; srcs; comp; ccw }

let graph t = t.g
let schnyder t = t.sch

(* ---- exact arithmetic helpers ---------------------------------------- *)

let d2 t u tx ty =
  let dx = t.x.(u) - tx and dy = t.y.(u) - ty in
  (dx * dx) + (dy * dy)

(* a * b as hi * 2^20 + lo for 0 <= a, b < 2^40: exact 128-bit-ish carry. *)
let mul_hi a b = ((a asr 20) * b) + (((a land 0xFFFFF) * b) asr 20)
let mul_lo a b = ((a land 0xFFFFF) * b) land 0xFFFFF

(* Compare n1/d1 vs n2/d2 with all components >= 0, d > 0. *)
let frac_cmp n1 d1 n2 d2 =
  let h1 = mul_hi n1 d2 and h2 = mul_hi n2 d1 in
  if h1 <> h2 then compare h1 h2 else compare (mul_lo n1 d2) (mul_lo n2 d1)

(* Orientation of (o, p, q), chirality-adjusted so that "left of" means
   the same thing whichever way the drawing is mirrored. *)
let turn t ox oy px py qx qy =
  let s = Drawing.orient_xy ox oy px py qx qy in
  if t.ccw then s else -s

let dot ox oy ax ay bx by = ((ax - ox) * (bx - ox)) + ((ay - oy) * (by - oy))

(* Does the ray u -> r lie in the angular sector from neighbor va to
   neighbor vb (in rotation order)? Sector is inclusive at va, exclusive
   at vb; collinear-opposite and full-circle (degree-1) cases handled. *)
let in_wedge t u va vb rx ry =
  let ox = t.x.(u) and oy = t.y.(u) in
  let ax = t.x.(va) and ay = t.y.(va) in
  let bx = t.x.(vb) and by = t.y.(vb) in
  let c1 = turn t ox oy ax ay rx ry
  and c2 = turn t ox oy rx ry bx by
  and c0 = turn t ox oy ax ay bx by in
  if c1 = 0 && dot ox oy ax ay rx ry > 0 then true (* on the opening ray *)
  else if c2 = 0 && dot ox oy bx by rx ry > 0 then false
    (* next sector's opening *)
  else if c0 > 0 then c1 > 0 && c2 > 0
  else if c0 < 0 then c1 > 0 || c2 > 0
  else if dot ox oy ax ay bx by > 0 then true (* degree-1 vertex: full circle *)
  else c1 > 0 (* straight angle: the left half-plane *)

(* The dart at [u] opening the face whose sector contains the ray to
   (rx, ry): the face between consecutive neighbors (a, b = succ a) —
   the orbit lying to the right of dart (u -> b) for counterclockwise
   rotations, and its mirror image otherwise — is the orbit through
   (u -> b) in both chiralities. *)
let entry_dart t u rx ry =
  let lo = t.off.(u) and deg = t.off.(u + 1) - t.off.(u) in
  let i = ref 0 and found = ref (-1) in
  while !found < 0 do
    if !i >= deg then
      failwith "Route: internal error: no face sector contains the target";
    let j = if !i + 1 = deg then 0 else !i + 1 in
    if in_wedge t u t.nbr.(lo + !i) t.nbr.(lo + j) rx ry then
      found := t.out.(lo + j)
    else incr i
  done;
  !found

(* ---- one query --------------------------------------------------------- *)

type query = {
  tx : int;
  ty : int;
  budget : int;
  mutable cur : int;
  mutable buf : int array; (* the path so far: buf.(0 .. hops) *)
  mutable hops : int;
  mutable greedy_hops : int;
  mutable face_hops : int;
  mutable recoveries : int;
  mutable stuck : bool;
}

let step q ~face v =
  q.hops <- q.hops + 1;
  if face then q.face_hops <- q.face_hops + 1
  else q.greedy_hops <- q.greedy_hops + 1;
  if q.hops = Array.length q.buf then begin
    let b = Array.make (2 * q.hops) 0 in
    Array.blit q.buf 0 b 0 q.hops;
    q.buf <- b
  end;
  q.buf.(q.hops) <- v;
  q.cur <- v;
  if q.hops > q.budget then q.stuck <- true

(* One greedy hop: the strictly closest neighbor, if any improves. *)
let greedy_next t q =
  let best = ref (-1) and bestd = ref (d2 t q.cur q.tx q.ty) in
  for k = t.off.(q.cur) to t.off.(q.cur + 1) - 1 do
    let w = t.nbr.(k) in
    let dw = d2 t w q.tx q.ty in
    if dw < !bestd then begin
      bestd := dw;
      best := w
    end
  done;
  !best

(* Walk [count] darts of a face from [d], one face hop per dart head;
   returns the dart after the last one walked. Stops hopping (but not
   counting) once the budget is spent. *)
let walk t q d count =
  let d = ref d in
  for _ = 1 to count do
    if not q.stuck then begin
      let nd = Rotation.face_next t.rot !d in
      step q ~face:true t.srcs.(nd);
      d := nd
    end
  done;
  !d

(* Face recovery episode: anchored at p, walk stabbed faces until a
   vertex strictly closer than p turns up. *)
let recover t q =
  q.recoveries <- q.recoveries + 1;
  let p = q.cur and tx = q.tx and ty = q.ty in
  let px = t.x.(p) and py = t.y.(p) in
  let anchor_d = d2 t p tx ty in
  (* The crossing parameter reached so far, as a fraction. *)
  let tau_n = ref 0 and tau_d = ref 1 in
  let d0 = ref (entry_dart t p tx ty) in
  let episode_done = ref false in
  while (not !episode_done) && not q.stuck do
    (* Scan the whole face orbit of !d0: the first strictly closer
       vertex (by walk order), else the crossing furthest along the
       segment and strictly beyond the entry point. The scan starts at
       the vertex we stand at, so each dart's source is the vertex the
       walk would be at. *)
    let closer_at = ref (-1) in
    let best_at = ref (-1) and best_n = ref 0 and best_d = ref 0 in
    let d = ref !d0 and k = ref 0 in
    let guard = ref (4 * Gr.m t.g) in
    let continue = ref true in
    while !continue do
      let nd = Rotation.face_next t.rot !d in
      let a = t.srcs.(!d) and b = t.srcs.(nd) in
      if !closer_at < 0 && d2 t b tx ty < anchor_d then begin
        closer_at := !k;
        continue := false
      end;
      let ax = t.x.(a) and ay = t.y.(a) and bx = t.x.(b) and by = t.y.(b) in
      if
        !closer_at < 0 && Drawing.proper_cross_xy ax ay bx by px py tx ty
      then begin
        (* Where the segment p -> t crosses edge (a, b), as a
           nonnegative fraction along it; a proper cross makes the
           denominator nonzero. *)
        let den = ((tx - px) * (by - ay)) - ((ty - py) * (bx - ax)) in
        let num = ((ax - px) * (by - ay)) - ((ay - py) * (bx - ax)) in
        let cn = if den < 0 then -num else num in
        let cd = if den < 0 then -den else den in
        if
          frac_cmp cn cd !tau_n !tau_d > 0
          && (!best_at < 0 || frac_cmp cn cd !best_n !best_d > 0)
        then begin
          best_at := !k;
          best_n := cn;
          best_d := cd
        end
      end;
      d := nd;
      incr k;
      decr guard;
      if !d = !d0 || !guard <= 0 then continue := false
    done;
    if !guard <= 0 then q.stuck <- true
    else if !closer_at >= 0 then begin
      (* Walk along the face to the closer vertex, resume greedy. *)
      ignore (walk t q !d0 (!closer_at + 1));
      episode_done := true
    end
    else if !best_at >= 0 then begin
      (* Walk to the source of the crossing dart (alpha -> beta), hop
         over the edge combinatorially (stay at alpha, switch faces)
         and scan the face on its far side from beta -> alpha's
         successor. *)
      let cross = walk t q !d0 !best_at in
      tau_n := !best_n;
      tau_d := !best_d;
      d0 := Rotation.face_next t.rot (Gr.dart_rev t.g cross)
    end
    else
      (* No closer vertex and no forward crossing: the invariants of a
         plane drawing exclude this. *)
      q.stuck <- true
  done

(* Each domain's path buffer, kept across its queries (it grows to the
   longest path the domain has routed), so [route_batch ~pool] shares no
   mutable state between domains. *)
let path_buf = Domain.DLS.new_key (fun () -> ref (Array.make 256 0))

let route t src dst =
  let n = Gr.n t.g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Route.route: vertex out of range";
  if src = dst then
    Delivered
      { path = [ src ]; hops = 0; greedy_hops = 0; face_hops = 0; recoveries = 0 }
  else if t.comp.(src) <> t.comp.(dst) then Unreachable
  else begin
    let cell = Domain.DLS.get path_buf in
    let q =
      {
        tx = t.x.(dst);
        ty = t.y.(dst);
        budget = (16 * n) + 64;
        cur = src;
        buf = !cell;
        hops = 0;
        greedy_hops = 0;
        face_hops = 0;
        recoveries = 0;
        stuck = false;
      }
    in
    q.buf.(0) <- src;
    while (not q.stuck) && q.cur <> dst do
      let nxt = greedy_next t q in
      if nxt >= 0 then step q ~face:false nxt else recover t q
    done;
    cell := q.buf;
    if q.stuck then Stuck { at = q.cur; hops = q.hops }
    else begin
      let path = ref [] in
      for i = q.hops downto 0 do
        path := q.buf.(i) :: !path
      done;
      Delivered
        {
          path = !path;
          hops = q.hops;
          greedy_hops = q.greedy_hops;
          face_hops = q.face_hops;
          recoveries = q.recoveries;
        }
    end
  end

let route_batch ?pool t pairs =
  let nq = Array.length pairs in
  let out = Array.make nq Unreachable in
  (match pool with
  | None ->
      for i = 0 to nq - 1 do
        let s, d = pairs.(i) in
        out.(i) <- route t s d
      done
  | Some p ->
      Pool.run p ~tasks:nq (fun i ->
          let s, d = pairs.(i) in
          out.(i) <- route t s d));
  out
