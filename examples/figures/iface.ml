(* Attachment order of a biconnected block: the cyclic order in which the
   given attachment vertices can appear around a common face. Computed by
   the apex construction on the block alone: one stub per attachment plus
   an apex; the rotation at the apex is the order. [None] if no embedding
   of the block puts all attachments on one face. *)
let attachment_order block_graph relevant =
  let p = Gr.n block_graph in
  let k = List.length relevant in
  let relevant_arr = Array.of_list relevant in
  let apex = p + k in
  let aug =
    Gr.union_vertices block_graph ~more:(k + 1)
      (List.concat (List.mapi (fun i v -> [ (v, p + i); (p + i, apex) ]) relevant))
  in
  match Planarity.embed aug with
  | Planarity.Nonplanar -> None
  | Planarity.Planar r ->
      Some
        (Array.to_list
           (Array.map (fun s -> relevant_arr.(s - p)) (Rotation.rotation r apex)))

let of_part g ~part ~half =
  let (h, old_of_new, new_of_old) = Gr.induced g part in
  (* Half-edges grouped by their inside endpoint, in h coordinates. *)
  let at = Hashtbl.create 16 in
  List.iter
    (fun (u, v) ->
      let hu = new_of_old u in
      let prev = try Hashtbl.find at hu with Not_found -> [] in
      Hashtbl.replace at hu ((u, v) :: prev))
    half;
  let leaves_at v =
    List.rev_map (fun e -> Pqtree.Leaf e) (try Hashtbl.find at v with Not_found -> [])
  in
  if Gr.m h = 0 then
    (* Single-vertex (or edgeless) part: all half-edges fan out of isolated
       vertices in any order. *)
    Some (Pqtree.P (List.concat_map leaves_at (List.init (Gr.n h) (fun i -> i))))
  else begin
    let dec = Bicon.decompose h in
    let exception Infeasible in
    (* Does the subtree hanging below carry any half-edge? Pruning empty
       branches keeps the interface tree proportional to the half-edges. *)
    let rec block_has_leaves b ~entry =
      List.exists
        (fun v -> v <> entry && vertex_has_leaves v ~from_block:b)
        (Bicon.component_vertices dec b)
    and vertex_has_leaves v ~from_block =
      Hashtbl.mem at v
      || List.exists
           (fun b' -> b' <> from_block && block_has_leaves b' ~entry:v)
           (Bicon.comps_of_vertex dec v)
    in
    (* The bundle of everything attached at vertex [v], seen from block
       [from_block] (or from nowhere for a root vertex): half-edges at [v]
       plus the other blocks through [v]; all freely permutable. *)
    let rec bundle v ~from_block =
      let subblocks =
        List.filter_map
          (fun b' ->
            if b' <> from_block && block_has_leaves b' ~entry:v then
              Some (block_node b' ~entry:v)
            else None)
          (Bicon.comps_of_vertex dec v)
      in
      Pqtree.P (leaves_at v @ subblocks)
    and block_node b ~entry =
      let vertices = Bicon.component_vertices dec b in
      let relevant =
        entry
        :: List.filter
             (fun v -> v <> entry && vertex_has_leaves v ~from_block:b)
             vertices
      in
      (* The induced subgraph of a block's vertices is the block itself:
         two blocks share at most one vertex, so no foreign edge fits. *)
      let (bg, b_old, b_new) = Gr.induced h vertices in
      match attachment_order bg (List.map b_new relevant) with
      | None -> raise Infeasible
      | Some order ->
          let order = List.map (fun i -> b_old.(i)) order in
          (* Linearize the cyclic order at the entry point. *)
          let rec rotate_to acc = function
            | [] -> invalid_arg "Iface: entry not in attachment order"
            | x :: rest when x = entry -> rest @ List.rev acc
            | x :: rest -> rotate_to (x :: acc) rest
          in
          let others = rotate_to [] order in
          Pqtree.Q (List.map (fun v -> bundle v ~from_block:b) others)
    in
    try
      if half = [] then Some (Pqtree.P [])
      else begin
        (* Root the block-cut structure at any vertex carrying a half-edge. *)
        let root =
          match half with
          | (u, _) :: _ -> new_of_old u
          | [] -> assert false
        in
        ignore old_of_new;
        Some (bundle root ~from_block:(-1))
      end
    with Infeasible -> None
  end
