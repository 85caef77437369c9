type t = {
  rotation : Rotation.t;
  faces : (int * int) list array;
  face_of : (int * int, int) Hashtbl.t;
  simple : Gr.t Lazy.t;
}

let make rotation =
  let faces = Array.of_list (Rotation.faces rotation) in
  let face_of = Hashtbl.create 64 in
  Array.iteri
    (fun i boundary -> List.iter (fun d -> Hashtbl.replace face_of d i) boundary)
    faces;
  let simple =
    lazy
      (let g = Rotation.graph rotation in
       let edges = ref [] in
       Gr.iter_edges g (fun u v ->
           let f1 = Hashtbl.find face_of (u, v)
           and f2 = Hashtbl.find face_of (v, u) in
           if f1 <> f2 then edges := (f1, f2) :: !edges);
       Gr.of_edges ~n:(Array.length faces) !edges)
  in
  { rotation; faces; face_of; simple }

let n_faces t = Array.length t.faces
let face_of_dart t d = Hashtbl.find t.face_of d
let boundary t f = t.faces.(f)
let degree t f = List.length t.faces.(f)

let adjacency t f =
  let g = Rotation.graph t.rotation in
  List.map
    (fun (u, v) ->
      (Hashtbl.find t.face_of (v, u), Gr.edge_index g u v))
    t.faces.(f)

let simple t = Lazy.force t.simple
