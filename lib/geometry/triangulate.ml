(* Planarity-preserving triangulation on a mutable half-edge store.

   Half-edges are allocated in pairs (h, h+1 = reversal, h even), seeded
   from the input rotation's dart table and grown as fill edges arrive.
   [nxt]/[prv] link the half-edges out of one source vertex in rotation
   order, so the face-successor of h is nxt.(h lxor 1) — the same
   next (u, v) = (v, succ_v u) convention as Rotation's flat arrays.
   Splitting a triangle off a face is then two doubly-linked-list
   insertions; no hashtables are touched on the walk itself (only the
   duplicate-edge guard consults one). *)

type t = {
  graph : Gr.t;
  rotation : Rotation.t;
  source : Rotation.t;
  vmask : bool array;
  vcount : int;
}

(* Growable half-edge store. *)
type store = {
  mutable dst : int array;
  mutable src : int array;
  mutable nxt : int array;
  mutable prv : int array;
  mutable len : int;
  first : int array; (* an out-half-edge per vertex; -1 when isolated *)
  edges : (int, unit) Hashtbl.t; (* key (min u v) * n + (max u v) *)
  nv : int;
  mutable added : (int * int) list; (* virtual edges, newest first *)
}

let key st u v = if u < v then (u * st.nv) + v else (v * st.nv) + u
let has_edge st u v = Hashtbl.mem st.edges (key st u v)
let face_next st h = st.nxt.(h lxor 1)

let ensure st need =
  let cap = Array.length st.dst in
  if need > cap then begin
    let cap' = max need (2 * cap) in
    let grow a = Array.append a (Array.make (cap' - cap) (-1)) in
    st.dst <- grow st.dst;
    st.src <- grow st.src;
    st.nxt <- grow st.nxt;
    st.prv <- grow st.prv
  end

(* Allocate the pair (u -> v, v -> u); links are the caller's job. *)
let new_pair st u v =
  let h = st.len in
  ensure st (h + 2);
  st.src.(h) <- u;
  st.dst.(h) <- v;
  st.src.(h + 1) <- v;
  st.dst.(h + 1) <- u;
  st.len <- h + 2;
  Hashtbl.replace st.edges (key st u v) ();
  st.added <- (u, v) :: st.added;
  h

(* Insert half-edge [a] into the rotation of its source, right before [h]
   (which must share the source). *)
let insert_before st a h =
  let p = st.prv.(h) in
  st.nxt.(p) <- a;
  st.prv.(a) <- p;
  st.nxt.(a) <- h;
  st.prv.(h) <- a

(* Split the triangle (src h1, dst h1, dst h2) off the face of [h1],
   where h2 = face_next h1. Adds the chord (src h1, dst h2): the new
   half-edge a goes before h1 at its source, its reversal right after
   rev h2 at its destination, which rewires exactly the two face
   successors the split needs. Returns a. *)
let split st h1 =
  let h2 = face_next st h1 in
  let u = st.src.(h1) and w = st.dst.(h2) in
  let a = new_pair st u w in
  insert_before st a h1;
  let b = a + 1 in
  let g = h2 lxor 1 in
  let q = st.nxt.(g) in
  st.nxt.(g) <- b;
  st.prv.(b) <- g;
  st.nxt.(b) <- q;
  st.prv.(q) <- b;
  a

(* A bridge between components: insertion position is free (joining two
   faces of distinct components merges them at any corner, genus 0 is
   preserved either way), so each endpoint takes the slot before its
   first half-edge — or becomes its own 1-cycle when isolated. *)
let add_bridge st u v =
  let a = new_pair st u v in
  let attach h w =
    if st.first.(w) = -1 then begin
      st.nxt.(h) <- h;
      st.prv.(h) <- h;
      st.first.(w) <- h
    end
    else insert_before st h st.first.(w)
  in
  attach a u;
  attach (a + 1) v

let of_rotation r =
  let g = Rotation.graph r in
  let n = Gr.n g and m = Gr.m g in
  let cap = max 2 ((6 * n) + 16) in
  let st =
    {
      dst = Array.make cap (-1);
      src = Array.make cap (-1);
      nxt = Array.make cap (-1);
      prv = Array.make cap (-1);
      len = 2 * m;
      first = Array.make (max 1 n) (-1);
      edges = Hashtbl.create (max 16 (4 * m));
      nv = max 1 n;
      added = [];
    }
  in
  Gr.iter_edges g (fun u v ->
      let e = Gr.edge_index g u v in
      st.src.(2 * e) <- u;
      st.dst.(2 * e) <- v;
      st.src.((2 * e) + 1) <- v;
      st.dst.((2 * e) + 1) <- u;
      Hashtbl.replace st.edges (key st u v) ());
  (* Out-half-edge of v toward u: edge pairs are (min -> max, max -> min). *)
  let out v u =
    let e = Gr.edge_index g v u in
    if v < u then 2 * e else (2 * e) + 1
  in
  for v = 0 to n - 1 do
    let rot = Rotation.rotation r v in
    let deg = Array.length rot in
    if deg > 0 then begin
      st.first.(v) <- out v rot.(0);
      for i = 0 to deg - 1 do
        let h = out v rot.(i) and h' = out v rot.((i + 1) mod deg) in
        st.nxt.(h) <- h';
        st.prv.(h') <- h
      done
    end
  done;
  st

(* Pass 1: connect. One bridge from the first component to each other. *)
let connect st g =
  match Traverse.components g with
  | [] | [ _ ] -> ()
  | (rep :: _) :: rest ->
      List.iter
        (function
          | v :: _ -> add_bridge st rep v
          | [] -> ())
        rest
  | [] :: _ -> ()

(* Pass 2: biconnect. Walk every rotation once; whenever two consecutive
   darts lead into different biconnected components, the chord between
   their heads is guaranteed fresh (it would otherwise have merged the
   blocks already) and splitting it off merges exactly those two blocks:
   every u-w path runs through the shared cut vertex, so the union-find
   over block ids stays exact as edges arrive. *)
let biconnect st g =
  let bc = Bicon.decompose g in
  let bridges = List.length st.added in
  let uf = Unionfind.create (bc.Bicon.n_components + bridges + 1) in
  (* Block id per half-edge pair (index h / 2), grown alongside. *)
  let blk = ref (Array.make (max 1 (st.len / 2)) (-1)) in
  let blk_get p = if p < Array.length !blk then !blk.(p) else -1 in
  let blk_set p b =
    let cap = Array.length !blk in
    if p >= cap then
      blk := Array.append !blk (Array.make (max cap (p + 1 - cap)) (-1));
    !blk.(p) <- b
  in
  Gr.iter_edges g (fun u v ->
      let e = Gr.edge_index g u v in
      blk_set e bc.Bicon.comp_of_edge.(e));
  (* Bridges from pass 1 were appended after the graph's own pairs, in
     order: give each a fresh singleton block id. *)
  List.iteri
    (fun i _ -> blk_set (Gr.m g + i) (bc.Bicon.n_components + i))
    (List.rev st.added);
  for c = 0 to st.nv - 1 do
    let d0 = if c < Array.length st.first then st.first.(c) else -1 in
    if d0 >= 0 && st.nxt.(d0) <> d0 then begin
      let d = ref d0 in
      let continue = ref true in
      while !continue do
        let dn = st.nxt.(!d) in
        let b1 = Unionfind.find uf (blk_get (!d / 2))
        and b2 = Unionfind.find uf (blk_get (dn / 2)) in
        if b1 <> b2 then begin
          (* split at (head !d) -> c, whose face continues c -> head dn *)
          let a = split st (!d lxor 1) in
          ignore (Unionfind.union uf b1 b2);
          blk_set (a / 2) (Unionfind.find uf b1)
        end;
        d := dn;
        if !d = d0 then continue := false
      done
    end
  done

(* Pass 3: triangulate every face. Faces are simple cycles after pass 2,
   so the NetworkX-style moving window applies: split (v1, v3) off the
   front of the face, or — when that chord already exists elsewhere —
   split (v2, v4) instead, which interleaves with it on the face cycle
   and therefore cannot also be present in a planar graph. *)
let triangulate_faces st =
  let seen = ref (Array.make (max 1 st.len) false) in
  let seen_get h = h < Array.length !seen && !seen.(h) in
  let seen_set h =
    let cap = Array.length !seen in
    if h >= cap then
      seen := Array.append !seen (Array.make (max cap (h + 1 - cap)) false);
    !seen.(h) <- true
  in
  let h = ref 0 in
  while !h < st.len do
    if not (seen_get !h) then begin
      let h1 = ref !h in
      let h2 = ref (face_next st !h1) in
      let h3 = ref (face_next st !h2) in
      while st.dst.(!h3) <> st.src.(!h1) do
        let v1 = st.src.(!h1) and v3 = st.dst.(!h2) in
        if not (has_edge st v1 v3) then begin
          let a = split st !h1 in
          seen_set !h1;
          seen_set !h2;
          seen_set (a + 1);
          h1 := a;
          h2 := !h3;
          h3 := face_next st !h2
        end
        else begin
          let v2 = st.src.(!h2) and v4 = st.dst.(!h3) in
          if has_edge st v2 v4 then
            failwith
              "Triangulate: internal error: both interleaving chords present";
          let a = split st !h2 in
          seen_set !h2;
          seen_set !h3;
          seen_set (a + 1);
          h2 := a;
          h3 := face_next st !h2
        end
      done;
      seen_set !h1;
      seen_set !h2;
      seen_set !h3
    end;
    incr h
  done

let finalize st r =
  let g = Rotation.graph r in
  let n = Gr.n g in
  let g' = Gr.of_edges ~n (Gr.edges g @ List.rev st.added) in
  let rot =
    Array.init n (fun v ->
        if st.first.(v) = -1 then [||]
        else begin
          let out = ref [] and d = ref st.first.(v) in
          let continue = ref true in
          while !continue do
            out := st.dst.(!d) :: !out;
            d := st.nxt.(!d);
            if !d = st.first.(v) then continue := false
          done;
          Array.of_list (List.rev !out)
        end)
  in
  let r' = Rotation.make g' rot in
  if not (Rotation.is_planar_embedding r') then
    failwith "Triangulate: internal error: fill edges broke planarity";
  if n >= 3 && Gr.m g' <> (3 * n) - 6 then
    failwith "Triangulate: internal error: result is not maximal planar";
  let vmask = Array.make (max 1 (Gr.m g')) false in
  List.iter (fun (u, v) -> vmask.(Gr.edge_index g' u v) <- true) st.added;
  {
    graph = g';
    rotation = r';
    source = r;
    vmask;
    vcount = List.length st.added;
  }

let make r =
  if not (Rotation.is_planar_embedding r) then
    invalid_arg "Triangulate.make: rotation system is not planar";
  let g = Rotation.graph r in
  let st = of_rotation r in
  connect st g;
  if Gr.n g >= 3 then begin
    biconnect st g;
    triangulate_faces st
  end;
  finalize st r

let graph t = t.graph
let rotation t = t.rotation
let source t = t.source
let virtual_count t = t.vcount

let is_virtual t u v =
  let e = Gr.edge_index t.graph u v in
  t.vmask.(e)

let virtual_mask t = t.vmask

let pp ppf t =
  Format.fprintf ppf "triangulation (n=%d, m=%d, %d virtual of %d)"
    (Gr.n t.graph) (Gr.m t.graph) t.vcount (Gr.m t.graph)
