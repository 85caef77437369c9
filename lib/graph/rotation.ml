(* Rotation systems on the graph's dart table.

   The cyclic orders are validated once at construction and compiled to
   two flat arrays over the graph's dense dart ids: [pos] locates each
   dart inside its head's rotation, and [face_next] is the face-routing
   permutation next (u, v) = (v, succ_v u). Face tracing, genus and the
   Euler check are then orbit walks over an int array — no hashtables,
   no tuple keys — which matters because every accepted embedding of the
   LR kernel is re-validated here. *)

type t = {
  g : Gr.t;
  rot : int array array;
  pos : int array;  (* dart u->v to the index of u in rot.(v). *)
  face_next : int array;  (* dart-to-dart face successor. *)
}

(* Head (destination) of a dart: the source of its reversal. *)
let dart_dst g d = Gr.dart_src g (Gr.dart_rev g d)

let make_owned g rot =
  let n = Gr.n g in
  if Array.length rot <> n then invalid_arg "Rotation.make: wrong length";
  let darts = Gr.darts g in
  let off = Gr.dart_offsets g
  and srcs = Gr.dart_sources g
  and rev = Gr.dart_reversals g in
  let pos = Array.make (max 1 darts) (-1) in
  let face_next = Array.make (max 1 darts) (-1) in
  (* One pass over v's CSR slice fills a stamp array (2v marks "neighbor
     of v, not yet seen in the rotation", 2v+1 "already seen": the
     permutation and duplicate guard) and [slot], neighbor u -> the dart
     u -> v, so every rotation entry resolves to its dart in O(1). *)
  let mark = Array.make (max 1 n) (-1) in
  let slot = Array.make (max 1 n) (-1) in
  for v = 0 to n - 1 do
    let r = rot.(v) in
    let deg = Array.length r in
    if deg <> off.(v + 1) - off.(v) then
      invalid_arg "Rotation.make: rotation size mismatch";
    for d = off.(v) to off.(v + 1) - 1 do
      let u = srcs.(d) in
      mark.(u) <- 2 * v;
      slot.(u) <- d
    done;
    for i = 0 to deg - 1 do
      let u = r.(i) in
      if u < 0 || u >= n || mark.(u) <> 2 * v then
        invalid_arg "Rotation.make: rotation is not a permutation of neighbors";
      mark.(u) <- (2 * v) + 1;
      pos.(slot.(u)) <- i
    done;
    (* next (u, v) = (v, succ_v u): the out-dart v -> w is the reversal
       of the in-dart w -> v. *)
    for i = 0 to deg - 1 do
      face_next.(slot.(r.(i))) <- rev.(slot.(r.((i + 1) mod deg)))
    done
  done;
  { g; rot; pos; face_next }

let make g rot = make_owned g (Array.map Array.copy rot)

let rotation t v = t.rot.(v)
let graph t = t.g
let face_next t d = t.face_next.(d)
let pos t d = t.pos.(d)

let succ t v u =
  let d = Gr.dart t.g ~src:u ~dst:v in
  let r = t.rot.(v) in
  r.((t.pos.(d) + 1) mod Array.length r)

let mirror t =
  make_owned t.g
    (Array.map (fun r -> Array.of_list (List.rev (Array.to_list r))) t.rot)

let of_sorted_adjacency g =
  make_owned g (Array.init (Gr.n g) (Gr.neighbors g))

(* Iterate the orbits of [face_next]: calls [start d] at the first dart
   of each face and [step d] for every dart (in face order). *)
let iter_faces t ~start ~step =
  let darts = Gr.darts t.g in
  let seen = Array.make (max 1 darts) false in
  for d0 = 0 to darts - 1 do
    if not seen.(d0) then begin
      start d0;
      let d = ref d0 in
      let continue = ref true in
      while !continue do
        seen.(!d) <- true;
        step !d;
        d := t.face_next.(!d);
        if !d = d0 then continue := false
      done
    end
  done

let faces t =
  let out = ref [] in
  let cur = ref [] in
  iter_faces t
    ~start:(fun _ ->
      if !cur <> [] then out := List.rev !cur :: !out;
      cur := [])
    ~step:(fun d -> cur := (Gr.dart_src t.g d, dart_dst t.g d) :: !cur);
  if !cur <> [] then out := List.rev !cur :: !out;
  List.rev !out

let face_count t =
  let k = ref 0 in
  iter_faces t ~start:(fun _ -> incr k) ~step:(fun _ -> ());
  !k

(* Orientable genus by Euler's formula per connected component,
   n_c - m_c + f_c = 2 - 2 g_c, with an edgeless component counting one
   face. Summed over the k components (i of them isolated vertices)
   that is g = (2k - n + m - f - i) / 2, where f counts the orbits of
   [face_next]; the components come from one BFS over the CSR slices. *)
let genus_of_faces ~n ~off ~srcs ~face_next ~seen ~queue =
  let darts = off.(n) in
  Bytes.fill seen 0 n '\000';
  let k = ref 0 and isolated = ref 0 in
  for r = 0 to n - 1 do
    if Bytes.get seen r = '\000' then begin
      incr k;
      if off.(r + 1) = off.(r) then incr isolated;
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
  done;
  Bytes.fill seen 0 darts '\000';
  let faces = ref 0 in
  for d0 = 0 to darts - 1 do
    if Bytes.get seen d0 = '\000' then begin
      incr faces;
      let d = ref d0 in
      while Bytes.get seen !d = '\000' do
        Bytes.set seen !d '\001';
        d := face_next.(!d)
      done
    end
  done;
  ((2 * !k) - n + (darts / 2) - !faces - !isolated) / 2

let genus t =
  let n = Gr.n t.g in
  genus_of_faces ~n ~off:(Gr.dart_offsets t.g) ~srcs:(Gr.dart_sources t.g)
    ~face_next:t.face_next
    ~seen:(Bytes.create (max n (Gr.darts t.g)))
    ~queue:(Array.make n 0)

let is_planar_embedding t = genus t = 0

let face_of_dart t (u, v) =
  if not (Gr.mem_edge t.g u v) then
    invalid_arg "Rotation.face_of_dart: not an edge";
  let d0 = Gr.dart t.g ~src:u ~dst:v in
  let out = ref [] in
  let d = ref d0 in
  let continue = ref true in
  while !continue do
    out := (Gr.dart_src t.g !d, dart_dst t.g !d) :: !out;
    d := t.face_next.(!d);
    if !d = d0 then continue := false
  done;
  List.rev !out
