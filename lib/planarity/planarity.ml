type result = Lr.result = Planar of Rotation.t | Nonplanar

let embed = Lr.embed
let is_planar = Lr.is_planar

let embed_exn g =
  match embed g with
  | Planar r -> r
  | Nonplanar -> invalid_arg "Planarity.embed_exn: graph is not planar"
