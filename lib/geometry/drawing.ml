(* Exact integer geometry for grid drawings.

   Coordinates are grid integers bounded by n - 2 <= ~30k in every
   workload this repo generates, so cross products stay below ~2^34 and
   native int arithmetic is exact. The predicates take unpacked ints;
   the tuple forms are thin wrappers for the O(m^2) oracle. Nothing here
   allocates on the hot predicates. *)

let orient_xy ax ay bx by cx cy =
  let v = ((bx - ax) * (cy - ay)) - ((by - ay) * (cx - ax)) in
  compare v 0

let orient (ax, ay) (bx, by) (cx, cy) = orient_xy ax ay bx by cx cy

let on_segment (px, py) (ax, ay) (bx, by) =
  orient (ax, ay) (bx, by) (px, py) = 0
  && min ax bx <= px
  && px <= max ax bx
  && min ay by <= py
  && py <= max ay by

let proper_cross_xy px py qx qy ax ay bx by =
  orient_xy ax ay bx by px py * orient_xy ax ay bx by qx qy < 0
  && orient_xy px py qx qy ax ay * orient_xy px py qx qy bx by < 0

let proper_cross (px, py) (qx, qy) (ax, ay) (bx, by) =
  proper_cross_xy px py qx qy ax ay bx by

let segments_conflict p q a b =
  proper_cross p q a b
  || on_segment a p q || on_segment b p q
  || on_segment p a b || on_segment q a b

let first_crossing g ~x ~y =
  let pt v = (x.(v), y.(v)) in
  let edges = Array.of_list (Gr.edges g) in
  let m = Array.length edges in
  let found = ref None in
  (try
     for i = 0 to m - 1 do
       let u1, v1 = edges.(i) in
       for j = i + 1 to m - 1 do
         let u2, v2 = edges.(j) in
         let bad =
           if u1 = u2 || u1 = v2 || v1 = u2 || v1 = v2 then begin
             (* One shared endpoint: only the three free endpoints can
                land on the other closed segment. *)
             let shared, p1, p2 =
               if u1 = u2 then (u1, v1, v2)
               else if u1 = v2 then (u1, v1, u2)
               else if v1 = u2 then (v1, u1, v2)
               else (v1, u1, u2)
             in
             on_segment (pt p1) (pt u2) (pt v2)
             || on_segment (pt p2) (pt u1) (pt v1)
             || on_segment (pt shared) (pt p1) (pt p2)
                && orient (pt shared) (pt p1) (pt p2) = 0
                && (pt p1 = pt shared || pt p2 = pt shared)
           end
           else segments_conflict (pt u1) (pt v1) (pt u2) (pt v2)
         in
         if bad then begin
           found := Some (edges.(i), edges.(j));
           raise Exit
         end
       done
     done
   with Exit -> ());
  !found

type census = { ccw : int; cw : int; flat : int; other : int }

(* One walk of the face permutation on dart ids; a face d0 -> d1 -> d2
   -> d0 is the triangle (src d0, src d1, src d2). *)
let face_census r ~x ~y =
  let g = Rotation.graph r in
  let darts = Gr.darts g and srcs = Gr.dart_sources g in
  let seen = Bytes.make darts '\000' in
  let ccw = ref 0 and cw = ref 0 and flat = ref 0 and other = ref 0 in
  for d0 = 0 to darts - 1 do
    if Bytes.get seen d0 = '\000' then begin
      let len = ref 0 and d = ref d0 in
      while Bytes.get seen !d = '\000' do
        Bytes.set seen !d '\001';
        incr len;
        d := Rotation.face_next r !d
      done;
      if !len <> 3 then incr other
      else begin
        let d1 = Rotation.face_next r d0 in
        let a = srcs.(d0) and b = srcs.(d1)
        and c = srcs.(Rotation.face_next r d1) in
        let o = orient_xy x.(a) y.(a) x.(b) y.(b) x.(c) y.(c) in
        if o > 0 then incr ccw else if o < 0 then incr cw else incr flat
      end
    end
  done;
  { ccw = !ccw; cw = !cw; flat = !flat; other = !other }

let valid_triangulation_drawing r ~x ~y =
  let c = face_census r ~x ~y in
  c.other = 0 && c.flat = 0
  && ((c.ccw = 1 && c.cw > 0) || (c.cw = 1 && c.ccw > 0))

(* Points are bucketed by column with a counting pass over the bounding
   box, then each column's rows are checked against one stamp array
   (stamp.(row) = the last column that used it): O(n + w + h) for a
   w × h box, no sort. *)
let distinct ~x ~y =
  let n = Array.length x in
  if n <= 1 then true
  else begin
    let x0 = Array.fold_left min max_int x
    and y0 = Array.fold_left min max_int y in
    let w = Array.fold_left max min_int x - x0 + 1
    and h = Array.fold_left max min_int y - y0 + 1 in
    let limit = (4 * n) + 1024 in
    if w <= 0 || h <= 0 || w > limit || h > limit then
      invalid_arg "Drawing.distinct: coordinate box too large";
    (* Inclusive prefix counts leave off.(c) at the end of column c; the
       fill walks each column back to its start. *)
    let off = Array.make (w + 1) 0 in
    for i = 0 to n - 1 do
      let c = x.(i) - x0 in
      off.(c) <- off.(c) + 1
    done;
    for c = 1 to w do
      off.(c) <- off.(c) + off.(c - 1)
    done;
    let rows = Array.make n 0 in
    for i = n - 1 downto 0 do
      let c = x.(i) - x0 in
      off.(c) <- off.(c) - 1;
      rows.(off.(c)) <- y.(i) - y0
    done;
    let stamp = Array.make h (-1) in
    let ok = ref true and c = ref 0 in
    while !ok && !c < w do
      for k = off.(!c) to off.(!c + 1) - 1 do
        let r = rows.(k) in
        if stamp.(r) = !c then ok := false else stamp.(r) <- !c
      done;
      incr c
    done;
    !ok
  end

let within_grid ~x ~y ~side =
  let ok = ref true in
  Array.iter (fun v -> if v < 0 || v > side then ok := false) x;
  Array.iter (fun v -> if v < 0 || v > side then ok := false) y;
  !ok
