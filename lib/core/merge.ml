type kind = Pairwise | Star | Vertex_coordinated | Path_coordinated

type stats = {
  mutable pairwise : int;
  mutable star : int;
  mutable vertex_coordinated : int;
  mutable path_coordinated : int;
  mutable retired : int;
  mutable safety_checks : int;
  mutable calls : int;
  mutable final_parts_max : int;
  mutable iface_bits_shipped : int;
  mutable installs : int;
  mutable install_vertices : int;
}

type t = {
  g : Gr.t;
  checks : bool;
  cost : Costmodel.t;
  part_of : int array;
  parts : (int, Part.t) Hashtbl.t;
  mutable next_id : int;
  stats : stats;
  ws : Part.workspace;
  mutable full : Rotation.t option;
}

let create g ~checks ~cost =
  {
    g;
    checks;
    cost;
    part_of = Array.make (Gr.n g) (-1);
    parts = Hashtbl.create 64;
    next_id = 0;
    stats =
      {
        pairwise = 0;
        star = 0;
        vertex_coordinated = 0;
        path_coordinated = 0;
        retired = 0;
        safety_checks = 0;
        calls = 0;
        final_parts_max = 0;
        iface_bits_shipped = 0;
        installs = 0;
        install_vertices = 0;
      };
    ws = Part.workspace g;
    full = None;
  }

let part t id =
  match Hashtbl.find_opt t.parts id with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Merge.part: no alive part %d" id)

(* A part's vertex set never changes and [part_of] is written only at
   install, so the install-time half edges are still the current ones;
   the filter keeps that an explicit invariant rather than an assumption. *)
let half_of t id =
  List.filter (fun (_, w) -> t.part_of.(w) <> id) (part t id).Part.half

let run_checks t p =
  if t.checks then begin
    t.stats.safety_checks <- t.stats.safety_checks + 1;
    if not (Partition.induces_connected t.g p.Part.vertices) then
      failwith "Merge: invariant violation: part not connected";
    if
      (not p.Part.trivial)
      && not (Partition.complement_connected t.g p.Part.vertices)
    then
      failwith
        "Merge: safety violation: non-trivial part with disconnected \
         complement (Definition 3.1)"
  end

let install t ?(anchors = []) vertices =
  let id = t.next_id in
  t.next_id <- id + 1;
  List.iter (fun v -> t.part_of.(v) <- id) vertices;
  let half =
    List.rev
      (List.fold_left
         (fun acc v ->
           Gr.fold_neighbors t.g v ~init:acc ~f:(fun acc w ->
               if t.part_of.(w) <> id then (v, w) :: acc else acc))
         [] vertices)
  in
  let classify v = t.part_of.(v) in
  let p = Part.create t.g t.ws ~classify ~half ~id ~vertices ~anchors in
  t.stats.installs <- t.stats.installs + 1;
  t.stats.install_vertices <- t.stats.install_vertices + List.length vertices;
  (* In a connected network only the part covering it has no half edges;
     the ring its install just built is the run's rotation. *)
  if half = [] then
    t.full <- Some (Constrained.rotation (Part.embedding t.ws));
  Hashtbl.replace t.parts id p;
  run_checks t p;
  id

let fresh_part t ?anchors vertices =
  List.iter
    (fun v ->
      if t.part_of.(v) >= 0 then
        invalid_arg "Merge.fresh_part: vertex already assigned")
    vertices;
  install t ?anchors vertices

let member_adjacent_to t id x =
  let p = part t id in
  let found = ref None in
  List.iter
    (fun v -> if !found = None && Gr.mem_edge t.g v x then found := Some v)
    p.Part.vertices;
  match !found with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Merge: vertex %d is not adjacent to part %d" x id)

let connecting_edge t ~from_part ~to_part =
  let p = part t from_part in
  let rec scan = function
    | [] -> raise Not_found
    | v :: rest -> (
        let hit = ref None in
        Gr.iter_neighbors t.g v (fun w ->
            if !hit = None && t.part_of.(w) = to_part then hit := Some w);
        match !hit with Some w -> (v, w) | None -> scan rest)
  in
  scan p.Part.vertices

let adjacent_parts t id =
  let p = part t id in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun v ->
      Gr.iter_neighbors t.g v (fun w ->
          let q = t.part_of.(w) in
          if q >= 0 && q <> id then Hashtbl.replace seen q ()))
    p.Part.vertices;
  Hashtbl.fold (fun q () acc -> q :: acc) seen []

(* Charge: fold the part's compressed interface up its spanning tree to
   the leader, then route it from the leader along tree edges to the
   member adjacent to [x] and across the connecting edge. *)
let ship_to_vertex t ~from_part x =
  let p = part t from_part in
  let bits = p.Part.iface_bits in
  t.stats.iface_bits_shipped <- t.stats.iface_bits_shipped + bits;
  Costmodel.charge_aggregate t.cost ~root:p.Part.leader
    ~parent:(Part.parent_fn p) ~members:p.Part.vertices ~bits;
  let u = member_adjacent_to t from_part x in
  let down = List.rev (Part.path_to_leader p u) in
  Costmodel.charge_path t.cost (down @ [ x ]) ~bits

let ship_between t ~from_part ~to_part =
  let p = part t from_part and q = part t to_part in
  let bits = p.Part.iface_bits in
  t.stats.iface_bits_shipped <- t.stats.iface_bits_shipped + bits;
  Costmodel.charge_aggregate t.cost ~root:p.Part.leader
    ~parent:(Part.parent_fn p) ~members:p.Part.vertices ~bits;
  let (u, v) = connecting_edge t ~from_part ~to_part in
  let down = List.rev (Part.path_to_leader p u) in
  let up = Part.path_to_leader q v in
  Costmodel.charge_path t.cost (down @ up) ~bits

let merge t ?(anchors = []) ~kind ids =
  (match ids with
  | [] | [ _ ] -> invalid_arg "Merge.merge: need at least two parts"
  | _ -> ());
  let olds = List.map (part t) ids in
  let vertices = List.concat_map (fun p -> p.Part.vertices) olds in
  let anchors =
    List.sort_uniq compare
      (anchors @ List.concat_map (fun p -> p.Part.anchors) olds)
  in
  List.iter (fun id -> Hashtbl.remove t.parts id) ids;
  let id = install t ~anchors vertices in
  let p = part t id in
  (* Update instructions: the merge only rearranges (flips/permutes) the
     biconnected components touched by the new connections, so the
     instruction list is proportional to the interface summary, not to the
     part size; it is disseminated over the part tree. *)
  let word = Part.word t.g in
  Costmodel.charge_aggregate t.cost ~root:p.Part.leader
    ~parent:(Part.parent_fn p) ~members:p.Part.vertices
    ~bits:((2 * word) + p.Part.iface_bits);
  let s = t.stats in
  (match kind with
  | Pairwise -> s.pairwise <- s.pairwise + 1
  | Star -> s.star <- s.star + 1
  | Vertex_coordinated -> s.vertex_coordinated <- s.vertex_coordinated + 1
  | Path_coordinated -> s.path_coordinated <- s.path_coordinated + 1);
  id
