(* Planarity-preserving triangulation on a mutable half-edge store.

   Half-edges are allocated in pairs (h, h+1 = reversal, h even): edge e
   of the input graph is the pair (2e, 2e+1), 2e running from its
   smaller end, seeded straight from the rotation's dart table; fill
   edges are appended as they arrive. Only heads are stored: the source
   of h is the head of h lxor 1. [nxt]/[prv] link the half-edges
   out of one source vertex in rotation order, so the face-successor of
   h is nxt.(h lxor 1) — the same next (u, v) = (v, succ_v u) convention
   as Rotation's flat arrays. Splitting a triangle off a face is then two
   doubly-linked-list insertions. The duplicate-edge guard asks the input
   graph ([Gr.mem_edge]) and a flat open-addressing table that holds only
   the fill edges; the output graph and rings are read off the store's
   arrays. An input that is already maximal planar skips the store
   altogether. *)

type t = {
  graph : Gr.t;
  rotation : Rotation.t;
  source : Rotation.t;
  vcount : int;
  fills : int array; (* fill edge i is fills.(2i) -> fills.(2i+1) *)
}

(* Half-edge store, sized for the whole result up front (see
   [of_rotation]). *)
type store = {
  g : Gr.t; (* the input graph *)
  dst : int array; (* the source of h is dst.(h lxor 1) *)
  nxt : int array;
  prv : int array;
  mutable len : int;
  first : int array; (* an out-half-edge per vertex; -1 when isolated *)
  nv : int;
  ftab : int array; (* fill-edge keys, open addressing; -1 = free *)
  fshift : int; (* 63 - log2 (length ftab) *)
}

let key st u v = if u < v then (u * st.nv) + v else (v * st.nv) + u

(* Slot of key [k] in [ftab] by linear probing from the top bits of a
   multiplicative hash: [k]'s slot, or the free slot where it goes. The
   table is at least twice the number of fill edges, so a free slot is
   always reached. *)
let probe st k =
  let mask = Array.length st.ftab - 1 in
  let i = ref ((k * 0x1E3779B97F4A7C15) lsr st.fshift) in
  while st.ftab.(!i) <> k && st.ftab.(!i) <> -1 do
    i := (!i + 1) land mask
  done;
  !i

let has_edge st u v =
  Gr.mem_edge st.g u v
  ||
  let k = key st u v in
  st.ftab.(probe st k) = k

let face_next st h = st.nxt.(h lxor 1)
let src st h = st.dst.(h lxor 1)

(* Allocate the pair (u -> v, v -> u); links are the caller's job. *)
let new_pair st u v =
  let h = st.len in
  if h + 2 > Array.length st.dst then
    failwith "Triangulate: internal error: more edges than a maximal planar graph";
  st.dst.(h) <- v;
  st.dst.(h + 1) <- u;
  st.len <- h + 2;
  let k = key st u v in
  st.ftab.(probe st k) <- k;
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
  let u = src st h1 and w = st.dst.(h2) in
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

(* The store holds the whole result from the start: a maximal planar
   graph has 3n - 6 edges (n >= 3), and pass 1 adds at most n - 1. *)
let of_rotation r =
  let g = Rotation.graph r in
  let n = Gr.n g and m = Gr.m g in
  let cap = max 2 (2 * max m (if n >= 3 then (3 * n) - 6 else n - 1)) in
  let bits = ref 4 in
  while 1 lsl !bits < cap - (2 * m) do
    incr bits
  done;
  let st =
    {
      g;
      dst = Array.make cap (-1);
      nxt = Array.make cap (-1);
      prv = Array.make cap (-1);
      len = 2 * m;
      first = Array.make (max 1 n) (-1);
      nv = max 1 n;
      ftab = Array.make (1 lsl !bits) (-1);
      fshift = 63 - !bits;
    }
  in
  (* Rotation entry i of v is the dart u -> v of v's CSR slice at
     position i; its out-half-edge v -> u is 2e when v < u (edge pairs
     run min -> max, max -> min). [ring] lists v's out-half-edges in
     rotation order. *)
  let off = Gr.dart_offsets g
  and srcs = Gr.dart_sources g
  and dedge = Gr.dart_edges g in
  let ring = Array.make (max 1 (2 * m)) 0 in
  for v = 0 to n - 1 do
    let lo = off.(v) and deg = off.(v + 1) - off.(v) in
    for d = lo to lo + deg - 1 do
      let u = srcs.(d) in
      let h = (2 * dedge.(d)) + if v < u then 0 else 1 in
      st.dst.(h) <- u;
      ring.(lo + Rotation.pos r d) <- h
    done;
    if deg > 0 then begin
      st.first.(v) <- ring.(lo);
      for i = 0 to deg - 1 do
        let h = ring.(lo + i)
        and h' = ring.(lo + if i + 1 = deg then 0 else i + 1) in
        st.nxt.(h) <- h';
        st.prv.(h') <- h
      done
    end
  done;
  st

(* Pass 1: connect. One bridge from vertex 0 to the smallest vertex of
   each other component, in increasing order (a BFS over the CSR
   slices marks each component from its smallest vertex). *)
let connect st g =
  let n = Gr.n g in
  let off = Gr.dart_offsets g and srcs = Gr.dart_sources g in
  let seen = Bytes.make n '\000' in
  let queue = Array.make (max 1 n) 0 in
  for r = 0 to n - 1 do
    if Bytes.get seen r = '\000' then begin
      if r > 0 then add_bridge st 0 r;
      Bytes.set seen r '\001';
      queue.(0) <- r;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let v = queue.(!head) in
        incr head;
        for d = off.(v) to off.(v + 1) - 1 do
          let w = srcs.(d) in
          if Bytes.get seen w = '\000' then begin
            Bytes.set seen w '\001';
            queue.(!tail) <- w;
            incr tail
          end
        done
      done
    end
  done

(* Pass 2: biconnect. Walk every rotation once; whenever two consecutive
   darts lead into different biconnected components, the chord between
   their heads is guaranteed fresh (it would otherwise have merged the
   blocks already) and splitting it off merges exactly those two blocks:
   every u-w path runs through the shared cut vertex, so the union-find
   over block ids stays exact as edges arrive. *)
let biconnect st g =
  let bc = Bicon.decompose g in
  let m = Gr.m g in
  let bridges = (st.len / 2) - m in
  let uf = Unionfind.create (bc.Bicon.n_components + bridges + 1) in
  (* Block id per half-edge pair (index h / 2): the input edges' blocks,
     then a fresh singleton block per bridge from pass 1. *)
  let blk = Array.make (max 1 (Array.length st.dst / 2)) (-1) in
  Array.blit bc.Bicon.comp_of_edge 0 blk 0 m;
  for i = 0 to bridges - 1 do
    blk.(m + i) <- bc.Bicon.n_components + i
  done;
  for c = 0 to st.nv - 1 do
    let d0 = st.first.(c) in
    if d0 >= 0 && st.nxt.(d0) <> d0 then begin
      let d = ref d0 in
      let continue = ref true in
      while !continue do
        let dn = st.nxt.(!d) in
        let b1 = Unionfind.find uf blk.(!d / 2)
        and b2 = Unionfind.find uf blk.(dn / 2) in
        if b1 <> b2 then begin
          (* split at (head !d) -> c, whose face continues c -> head dn *)
          let a = split st (!d lxor 1) in
          ignore (Unionfind.union uf b1 b2);
          blk.(a / 2) <- Unionfind.find uf b1
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
  let seen = Bytes.make (Array.length st.dst) '\000' in
  let seen_set h = Bytes.set seen h '\001' in
  let h = ref 0 in
  while !h < st.len do
    if Bytes.get seen !h = '\000' then begin
      let h1 = ref !h in
      let h2 = ref (face_next st !h1) in
      let h3 = ref (face_next st !h2) in
      while st.dst.(!h3) <> src st !h1 do
        let v1 = src st !h1 and v3 = st.dst.(!h2) in
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
          let v2 = src st !h2 and v4 = st.dst.(!h3) in
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

(* The rings read off the store go to the rotation uncopied. *)
let finalize st r =
  let g = Rotation.graph r in
  let n = Gr.n g and m = Gr.m g in
  let m' = st.len / 2 in
  (* Pair p is the edge src (2p) -> dst.(2p); the fill pairs are copied
     out before Gr sorts the pairs in place. *)
  let lo = Array.make m' 0 and hi = Array.make m' 0 in
  for p = 0 to m' - 1 do
    lo.(p) <- st.dst.((2 * p) + 1);
    hi.(p) <- st.dst.(2 * p)
  done;
  let fills = Array.make (2 * (m' - m)) 0 in
  for i = 0 to m' - m - 1 do
    fills.(2 * i) <- lo.(m + i);
    fills.((2 * i) + 1) <- hi.(m + i)
  done;
  let g' = Gr.of_pairs ~n lo hi in
  let rot =
    Array.init n (fun v ->
        let deg = Gr.degree g' v and h0 = st.first.(v) in
        let ring = Array.make deg (-1) in
        let h = ref h0 in
        for i = 0 to deg - 1 do
          ring.(i) <- st.dst.(!h);
          h := st.nxt.(!h)
        done;
        if !h <> h0 then
          failwith "Triangulate: internal error: a ring does not close";
        ring)
  in
  let r' = Rotation.make_owned g' rot in
  if not (Rotation.is_planar_embedding r') then
    failwith "Triangulate: internal error: fill edges broke planarity";
  if n >= 3 && Gr.m g' <> (3 * n) - 6 then
    failwith "Triangulate: internal error: result is not maximal planar";
  { graph = g'; rotation = r'; source = r; vcount = m' - m; fills }

let make r =
  if not (Rotation.is_planar_embedding r) then
    invalid_arg "Triangulate.make: rotation system is not planar";
  let g = Rotation.graph r in
  let n = Gr.n g in
  if n >= 3 && Gr.m g = (3 * n) - 6 then
    (* Already maximal planar: genus 0 with 3n - 6 edges makes every
       face a triangle, so the passes would add nothing. *)
    { graph = g; rotation = r; source = r; vcount = 0; fills = [||] }
  else begin
    let st = of_rotation r in
    connect st g;
    if n >= 3 then begin
      biconnect st g;
      triangulate_faces st
    end;
    finalize st r
  end

let graph t = t.graph
let rotation t = t.rotation
let source t = t.source
let virtual_count t = t.vcount

let iter_virtual t f =
  for i = 0 to t.vcount - 1 do
    f t.fills.(2 * i) t.fills.((2 * i) + 1)
  done
