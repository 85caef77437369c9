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
  let removed = Array.make n false in
  let on_outer = Array.make n false in
  let cnext = Array.make n (-1) and cprev = Array.make n (-1) in
  let chords = Array.make n 0 in
  let stamp = Array.make n (-1) in
  let par0 = Array.make n (-1)
  and par1 = Array.make n (-1)
  and par2 = Array.make n (-1) in
  let cand = ref [ c ] in
  on_outer.(a) <- true;
  on_outer.(b) <- true;
  on_outer.(c) <- true;
  cnext.(a) <- b;
  cnext.(b) <- c;
  cnext.(c) <- a;
  cprev.(b) <- a;
  cprev.(c) <- b;
  cprev.(a) <- c;
  (* The unremoved neighbors of a boundary vertex form one contiguous arc
     of its rotation (the region below the boundary is internally
     triangulated). Rotations run counterclockwise and the boundary
     cycle runs counterclockwise around the unremoved vertices, so the
     arc runs backward through x's rotation from cprev to cnext; the
     rest of the rotation must be removed. *)
  let path_of x cl cr =
    let nb = Rotation.rotation rot x in
    let deg = Array.length nb in
    let prev i = if i = 0 then deg - 1 else i - 1 in
    let rec arc i acc =
      let i = prev i in
      let w = nb.(i) in
      if w = cr then (i, cr :: acc)
      else arc i (if removed.(w) then acc else w :: acc)
    in
    let rec rest i =
      let i = prev i in
      if nb.(i) <> cl then begin
        if not removed.(nb.(i)) then
          failwith "Schnyder: internal error: boundary arc split";
        rest i
      end
    in
    let i, acc = arc (Rotation.pos rot (Gr.dart g ~src:cl ~dst:x)) [ cl ] in
    rest i;
    List.rev acc
  in
  for step = 1 to n - 2 do
    (* Pop a valid candidate: still on the boundary, chord-free, not a
       root of the (a, b) base edge. *)
    let x = ref (-1) in
    while !x < 0 do
      match !cand with
      | [] -> failwith "Schnyder: internal error: no removable vertex"
      | v :: rest ->
          cand := rest;
          if on_outer.(v) && chords.(v) = 0 && v <> a && v <> b then x := v
    done;
    let x = !x in
    let cl = cprev.(x) and cr = cnext.(x) in
    let path = path_of x cl cr in
    removed.(x) <- true;
    on_outer.(x) <- false;
    (* Tree 1 takes the successor as parent (chains end at a), tree 2
       the predecessor (chains end at b): the assignment under which
       region_coords draws every rotation counterclockwise.
       The first removal is c itself: an outer vertex, so its two outer
       edges (c, a) and (c, b) belong to no tree. *)
    if step > 1 then begin
      par1.(x) <- cr;
      par2.(x) <- cl
    end;
    let interior =
      match path with
      | _ :: tl -> List.filter (fun w -> w <> cr) tl
      | [] -> []
    in
    (* Chord bookkeeping when x had exactly two unremoved neighbors: the
       edge (cl, cr) must exist (their common face with x is a triangle)
       and turns from chord into boundary edge — unless the boundary is
       the triangle (cl, x, cr) itself, where it already was one. *)
    if interior = [] then begin
      if cnext.(cr) <> cl then begin
        chords.(cl) <- chords.(cl) - 1;
        if chords.(cl) = 0 then cand := cl :: !cand;
        chords.(cr) <- chords.(cr) - 1;
        if chords.(cr) = 0 then cand := cr :: !cand
      end
    end;
    (* Splice the uncovered path into the boundary cycle. *)
    let rec splice prev = function
      | [] -> ()
      | w :: tl ->
          cnext.(prev) <- w;
          cprev.(w) <- prev;
          splice w tl
    in
    (match path with
    | first :: tl -> splice first tl
    | [] -> ());
    List.iter
      (fun w ->
        par0.(w) <- x;
        on_outer.(w) <- true;
        stamp.(w) <- step)
      interior;
    (* Count chords of each newly exposed vertex; edges between two
       same-step joiners must be counted once, hence the stamp check. *)
    List.iter
      (fun w ->
        let nb = Rotation.rotation rot w in
        Array.iter
          (fun u ->
            if on_outer.(u) && u <> cnext.(w) && u <> cprev.(w) && u <> w
            then begin
              chords.(w) <- chords.(w) + 1;
              if stamp.(u) <> step then chords.(u) <- chords.(u) + 1
            end)
          nb;
        if chords.(w) = 0 then cand := w :: !cand)
      interior
  done;
  [| par0; par1; par2 |]

(* Depth p and subtree size t per tree, iteratively; then region counts
   r by walking each tree accumulating path sums of the other trees'
   subtree sizes (snippet 1's dfs_pt / dfs_r, with explicit stacks). *)
let region_coords n par (r0, r1, r2) =
  let roots = [| r0; r1; r2 |] in
  let p = Array.init 3 (fun _ -> Array.make n 0) in
  let t = Array.init 3 (fun _ -> Array.make n 0) in
  let r = Array.init 3 (fun _ -> Array.make n 0) in
  let kids = Array.init 3 (fun _ -> Array.make n []) in
  for i = 0 to 2 do
    for v = n - 1 downto 0 do
      if par.(i).(v) >= 0 then
        kids.(i).(par.(i).(v)) <- v :: kids.(i).(par.(i).(v))
    done
  done;
  let pre = Array.make n (-1) in
  for i = 0 to 2 do
    let root = roots.(i) in
    let cnt = ref 0 in
    let stack = ref [ root ] in
    p.(i).(root) <- 1;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | v :: rest ->
          stack := rest;
          pre.(!cnt) <- v;
          incr cnt;
          t.(i).(v) <- 1;
          List.iter
            (fun u ->
              p.(i).(u) <- p.(i).(v) + 1;
              stack := u :: !stack)
            kids.(i).(v)
    done;
    for k = !cnt - 1 downto 1 do
      let v = pre.(k) in
      t.(i).(par.(i).(v)) <- t.(i).(par.(i).(v)) + t.(i).(v)
    done
  done;
  (* Presets: both foreign roots of each tree weigh 1 — the closed
     region R̄_j(v) always contains both of them (the outer edge
     r_{j+1} — r_{j-1} is part of every region boundary). *)
  t.(0).(r1) <- 1;
  t.(0).(r2) <- 1;
  t.(1).(r2) <- 1;
  t.(1).(r0) <- 1;
  t.(2).(r0) <- 1;
  t.(2).(r1) <- 1;
  for i = 0 to 2 do
    let st = [| 0; 0; 0 |] in
    let stack = ref [ (roots.(i), true) ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | (v, enter) :: rest ->
          stack := rest;
          if enter then begin
            for j = 0 to 2 do
              st.(j) <- st.(j) + t.(j).(v);
              if j <> i then r.(j).(v) <- r.(j).(v) + st.(j)
            done;
            stack := (v, false) :: !stack;
            List.iter (fun u -> stack := (u, true) :: !stack) kids.(i).(v)
          end
          else
            for j = 0 to 2 do
              st.(j) <- st.(j) - t.(j).(v)
            done
    done
  done;
  (p, t, r)

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
    let p, t, r = region_coords n par (r0, r1, r2) in
    let x = Array.make n 0 and y = Array.make n 0 in
    for v = 0 to n - 1 do
      if v <> r0 && v <> r1 && v <> r2 then begin
        (* R̄_j(v) = path sums of t_j minus the doubly counted t_j(v);
           the coordinate is the region count minus one path length. *)
        x.(v) <- r.(0).(v) - t.(0).(v) - p.(2).(v);
        y.(v) <- r.(1).(v) - t.(1).(v) - p.(0).(v)
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
let coord t v = (t.x.(v), t.y.(v))

let grid_side t =
  let n = Gr.n (Triangulate.graph t.tri) in
  max 1 (n - 2)

let roots t = t.roots
let parent t i v = t.par.(i).(v)
