(* Schnyder wood via decremental canonical ordering, coordinates via
   region counts (path sums of subtree sizes, SNIPPETS.md snippet 1).

   Boundary of the shrinking triangulation is a doubly-linked cycle
   (cnext / cprev). The invariant cnext.(a) = b holds throughout — the
   edge (a, b) of the outer face never leaves the boundary — which is
   what makes predecessor-parent chains end at b and successor-parent
   chains end at a. Chord counts per boundary vertex are maintained
   incrementally; a stack holds chord-free candidates (possibly stale —
   entries are revalidated when popped). *)

type t = {
  tri : Triangulate.t;
  roots : int * int * int;
  x : int array;
  y : int array;
  par : int array array; (* par.(i).(v): parent in tree i, -1 if none *)
}

let canonical rot (a, b, c) =
  let g = Rotation.graph rot in
  let n = Gr.n g in
  let removed = Bytes.make n '\000' in
  let on_outer = Bytes.make n '\000' in
  let is_removed v = Bytes.unsafe_get removed v <> '\000' in
  let is_outer v = Bytes.unsafe_get on_outer v <> '\000' in
  let cnext = Array.make n (-1) and cprev = Array.make n (-1) in
  let chords = Array.make n 0 in
  let stamp = Array.make n (-1) in
  let par0 = Array.make n (-1)
  and par1 = Array.make n (-1)
  and par2 = Array.make n (-1) in
  (* Candidate stack: c, then at most one push per vertex joining the
     boundary and two per removal whose chords drop to zero — fewer than
     3n + 1 pushes in all. *)
  let cand = Array.make ((3 * n) + 1) 0 in
  let sp = ref 0 in
  let push v =
    cand.(!sp) <- v;
    incr sp
  in
  (* The boundary arc uncovered by one removal: cl, the interior
     vertices, cr. *)
  let arc = Array.make (n + 1) 0 in
  push c;
  Bytes.set on_outer a '\001';
  Bytes.set on_outer b '\001';
  Bytes.set on_outer c '\001';
  cnext.(a) <- b;
  cnext.(b) <- c;
  cnext.(c) <- a;
  cprev.(b) <- a;
  cprev.(c) <- b;
  cprev.(a) <- c;
  for step = 1 to n - 2 do
    (* Pop a valid candidate: still on the boundary, chord-free, not a
       root of the (a, b) base edge. *)
    let x = ref (-1) in
    while !x < 0 do
      if !sp = 0 then failwith "Schnyder: internal error: no removable vertex";
      decr sp;
      let v = cand.(!sp) in
      if is_outer v && chords.(v) = 0 && v <> a && v <> b then x := v
    done;
    let x = !x in
    let cl = cprev.(x) and cr = cnext.(x) in
    (* The unremoved neighbors of a boundary vertex form one contiguous
       arc of its rotation (the region below the boundary is internally
       triangulated). Rotations run counterclockwise and the boundary
       cycle runs counterclockwise around the unremoved vertices, so the
       arc runs backward through x's rotation from cl to cr; the rest of
       the rotation must be removed. *)
    let nb = Rotation.rotation rot x in
    let deg = Array.length nb in
    let i = ref (Rotation.pos rot (Gr.dart g ~src:cl ~dst:x)) in
    let len = ref 1 in
    arc.(0) <- cl;
    let stop = ref false in
    while not !stop do
      i := if !i = 0 then deg - 1 else !i - 1;
      let w = nb.(!i) in
      if w = cr || not (is_removed w) then begin
        arc.(!len) <- w;
        incr len;
        stop := w = cr
      end
    done;
    let rec rest i =
      let i = if i = 0 then deg - 1 else i - 1 in
      if nb.(i) <> cl then begin
        if not (is_removed nb.(i)) then
          failwith "Schnyder: internal error: boundary arc split";
        rest i
      end
    in
    rest !i;
    let last = !len - 1 in
    Bytes.set removed x '\001';
    Bytes.set on_outer x '\000';
    (* Tree 1 takes the successor as parent (chains end at a), tree 2
       the predecessor (chains end at b): the assignment under which
       region_coords draws every rotation counterclockwise.
       The first removal is c itself: an outer vertex, so its two outer
       edges (c, a) and (c, b) belong to no tree. *)
    if step > 1 then begin
      par1.(x) <- cr;
      par2.(x) <- cl
    end;
    (* Chord bookkeeping when x had exactly two unremoved neighbors: the
       edge (cl, cr) must exist (their common face with x is a triangle)
       and turns from chord into boundary edge — unless the boundary is
       the triangle (cl, x, cr) itself, where it already was one. *)
    if last = 1 && cnext.(cr) <> cl then begin
      chords.(cl) <- chords.(cl) - 1;
      if chords.(cl) = 0 then push cl;
      chords.(cr) <- chords.(cr) - 1;
      if chords.(cr) = 0 then push cr
    end;
    (* Splice the uncovered arc into the boundary cycle. *)
    for k = 0 to last - 1 do
      cnext.(arc.(k)) <- arc.(k + 1);
      cprev.(arc.(k + 1)) <- arc.(k)
    done;
    for k = 1 to last - 1 do
      let w = arc.(k) in
      par0.(w) <- x;
      Bytes.set on_outer w '\001';
      stamp.(w) <- step
    done;
    (* Count chords of each newly exposed vertex; edges between two
       same-step joiners must be counted once, hence the stamp check. *)
    for k = 1 to last - 1 do
      let w = arc.(k) in
      let nb = Rotation.rotation rot w in
      for j = 0 to Array.length nb - 1 do
        let u = nb.(j) in
        if is_outer u && u <> cnext.(w) && u <> cprev.(w) && u <> w then begin
          chords.(w) <- chords.(w) + 1;
          if stamp.(u) <> step then chords.(u) <- chords.(u) + 1
        end
      done;
      if chords.(w) = 0 then push w
    done
  done;
  [| par0; par1; par2 |]

(* Tree [par]'s vertices in BFS order from [root] into [order] (root
   first, so every parent precedes its children); returns their count.
   The children come from a CSR built by a counting pass over [par], in
   the scratch arrays [off] (n + 1) and [kids] (n). *)
let bfs_order par root ~off ~kids ~order =
  let n = Array.length par in
  Array.fill off 0 (n + 1) 0;
  for v = 0 to n - 1 do
    let p = par.(v) in
    if p >= 0 then off.(p) <- off.(p) + 1
  done;
  (* Inclusive prefix sums leave off.(p) at the end of p's slice; the
     fill walks each slice back to its start. *)
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  for v = n - 1 downto 0 do
    let p = par.(v) in
    if p >= 0 then begin
      off.(p) <- off.(p) - 1;
      kids.(off.(p)) <- v
    end
  done;
  order.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = order.(!head) in
    incr head;
    for k = off.(v) to off.(v + 1) - 1 do
      order.(!tail) <- kids.(k);
      incr tail
    done
  done;
  !tail

(* Region counts (SNIPPETS.md snippet 1) without its recursion: per
   tree a BFS order over a CSR of children, depth p top-down and subtree
   size t bottom-up along it; then r_j(v) sums t_j over v's paths to the
   roots of the two trees other than j. The coordinates read r_0, r_1,
   t_0, t_1, p_0 and p_2 only, so nothing else is computed. *)
let region_coords n par (r0, r1, r2) =
  let off = Array.make (n + 1) 0 and kids = Array.make (max 1 n) 0 in
  let bfs i root =
    let o = Array.make n 0 in
    (par.(i), o, bfs_order par.(i) root ~off ~kids ~order:o)
  in
  let tree0 = bfs 0 r0 and tree1 = bfs 1 r1 and tree2 = bfs 2 r2 in
  let depth (par, o, k) =
    let p = Array.make n 0 in
    p.(o.(0)) <- 1;
    for q = 1 to k - 1 do
      let v = o.(q) in
      p.(v) <- p.(par.(v)) + 1
    done;
    p
  in
  let size (par, o, k) =
    let t = Array.make n 0 in
    for q = 0 to k - 1 do
      t.(o.(q)) <- 1
    done;
    for q = k - 1 downto 1 do
      let v = o.(q) in
      t.(par.(v)) <- t.(par.(v)) + t.(v)
    done;
    t
  in
  let p0 = depth tree0 and p2 = depth tree2 in
  let t0 = size tree0 and t1 = size tree1 in
  (* Presets: both foreign roots of each tree weigh 1 — the closed
     region R̄_j(v) always contains both of them (the outer edge
     r_{j+1} — r_{j-1} is part of every region boundary). *)
  t0.(r1) <- 1;
  t0.(r2) <- 1;
  t1.(r2) <- 1;
  t1.(r0) <- 1;
  (* acc.(v) += the sum of t over the tree path from the root to v. *)
  let sum = Array.make n 0 in
  let add_path_sums (par, o, k) t acc =
    sum.(o.(0)) <- t.(o.(0));
    acc.(o.(0)) <- acc.(o.(0)) + sum.(o.(0));
    for q = 1 to k - 1 do
      let v = o.(q) in
      sum.(v) <- sum.(par.(v)) + t.(v);
      acc.(v) <- acc.(v) + sum.(v)
    done
  in
  let rc0 = Array.make n 0 and rc1 = Array.make n 0 in
  add_path_sums tree1 t0 rc0;
  add_path_sums tree2 t0 rc0;
  add_path_sums tree0 t1 rc1;
  add_path_sums tree2 t1 rc1;
  (p0, p2, t0, t1, rc0, rc1)

let of_triangulation tri =
  let rot = Triangulate.rotation tri in
  let g = Triangulate.graph tri in
  let n = Gr.n g in
  if n <= 2 then begin
    let x = Array.init n (fun v -> v) and y = Array.make (max n 1) 0 in
    {
      tri;
      roots = (0, (min 1 (n - 1)), (min 1 (n - 1)));
      x = (if n = 0 then [||] else x);
      y = (if n = 0 then [||] else y);
      par = Array.init 3 (fun _ -> Array.make (max n 1) (-1));
    }
  end
  else begin
    (* Outer face: the face orbit of the first edge's dart, walked in
       the rotation's face order so the boundary orientation matches the
       embedding's handedness. *)
    let u0, v0 = Gr.edge_of_index g 0 in
    let face = Rotation.face_of_dart rot (u0, v0) in
    let a0, b0, c0 =
      match face with
      | [ (p, _); (q, _); (s, _) ] -> (p, q, s)
      | _ -> failwith "Schnyder: internal error: non-triangular face"
    in
    let par = canonical rot (a0, b0, c0) in
    let side = n - 2 in
    let r0 = c0 and r1 = a0 and r2 = b0 in
    let p0, p2, t0, t1, rc0, rc1 = region_coords n par (r0, r1, r2) in
    let x = Array.make n 0 and y = Array.make n 0 in
    for v = 0 to n - 1 do
      if v <> r0 && v <> r1 && v <> r2 then begin
        (* R̄_j(v) = path sums of t_j minus the doubly counted t_j(v);
           the coordinate is the region count minus one path length. *)
        x.(v) <- rc0.(v) - t0.(v) - p2.(v);
        y.(v) <- rc1.(v) - t1.(v) - p0.(v)
      end
    done;
    (* Corners: extreme grid points, cyclically shifted by one so no
       interior vertex can land on the outer edges. *)
    x.(r0) <- side;
    y.(r0) <- 1;
    x.(r1) <- 0;
    y.(r1) <- side;
    x.(r2) <- 1;
    y.(r2) <- 0;
    if n = 3 then begin
      x.(r0) <- 1;
      y.(r0) <- 1
    end;
    (* Never emit unvalidated geometry: a plane drawing on the grid whose
       rotations run counterclockwise — every interior face clockwise,
       the outer face alone counterclockwise. *)
    let c = Drawing.face_census rot ~x ~y in
    if
      not
        (Drawing.within_grid ~x ~y ~side
        && Drawing.distinct ~x ~y
        && c.other = 0 && c.flat = 0 && c.ccw = 1 && c.cw > 0)
    then failwith "Schnyder: internal error: drawing failed validation";
    { tri; roots = (r0, r1, r2); x; y; par }
  end

let draw r = of_triangulation (Triangulate.make r)
let triangulation t = t.tri
let coords t = (t.x, t.y)

let grid_side t =
  let n = Gr.n (Triangulate.graph t.tri) in
  max 1 (n - 2)

let roots t = t.roots
let parent t i v = t.par.(i).(v)
