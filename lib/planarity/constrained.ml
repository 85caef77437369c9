type item = Internal of int | Half of int * int

type t = {
  part : int list;
  rot : (int, item array) Hashtbl.t;
  outer : (int * int) list;
}

let embed_induced g ~part ~half (h, old_of_new, new_of_old) =
  let in_part v = match new_of_old v with _ -> true | exception Not_found -> false in
  List.iter
    (fun (u, v) ->
      if not (Gr.mem_edge g u v) then
        invalid_arg "Constrained.embed: half edge is not a graph edge";
      if not (in_part u) then
        invalid_arg "Constrained.embed: half edge inside endpoint not in part";
      if in_part v then
        invalid_arg "Constrained.embed: half edge outside endpoint in part")
    half;
  let p = Gr.n h in
  let k = List.length half in
  let half_arr = Array.of_list half in
  (* Stub vertices p .. p+k-1, apex p+k (only when there are half edges). *)
  let apex = p + k in
  let aug =
    if k = 0 then h
    else
      Gr.union_vertices h ~more:(k + 1)
        (List.concat
           (List.mapi
              (fun i (u, _v) -> [ (new_of_old u, p + i); (p + i, apex) ])
              half))
  in
  match Planarity.embed aug with
  | Planarity.Nonplanar -> None
  | Planarity.Planar r ->
      let rot = Hashtbl.create p in
      List.iter
        (fun v ->
          let nv = new_of_old v in
          let items =
            Array.map
              (fun w ->
                if w < p then Internal old_of_new.(w)
                else begin
                  let (inside, outside) = half_arr.(w - p) in
                  assert (inside = v);
                  Half (inside, outside)
                end)
              (Rotation.rotation r nv)
          in
          Hashtbl.replace rot v items)
        part;
      let outer =
        if k = 0 then []
        else
          Array.to_list
            (Array.map (fun s -> half_arr.(s - p)) (Rotation.rotation r apex))
      in
      Some { part; rot; outer }

let embed g ~part ~half = embed_induced g ~part ~half (Gr.induced g part)

let rotation_of_full t g =
  let n = Gr.n g in
  if List.length t.part <> n then
    invalid_arg "Constrained.rotation_of_full: part does not cover the graph";
  let rot =
    Array.init n (fun v ->
        match Hashtbl.find_opt t.rot v with
        | None -> invalid_arg "Constrained.rotation_of_full: missing vertex"
        | Some items ->
            Array.map
              (function
                | Internal w -> w
                | Half _ ->
                    invalid_arg
                      "Constrained.rotation_of_full: residual half edge")
              items)
  in
  Rotation.make g rot

let check g ~part ~half t =
  let in_part = Hashtbl.create (List.length part) in
  List.iter (fun v -> Hashtbl.replace in_part v ()) part;
  let half_set = Hashtbl.create (List.length half) in
  List.iter (fun e -> Hashtbl.replace half_set e ()) half;
  let ok = ref (List.sort compare t.part = List.sort compare part) in
  (* Outer must be a permutation of half. *)
  if List.sort compare t.outer <> List.sort compare half then ok := false;
  List.iter
    (fun v ->
      match Hashtbl.find_opt t.rot v with
      | None -> ok := false
      | Some items ->
          let internal = ref [] and halves = ref [] in
          Array.iter
            (function
              | Internal w ->
                  if not (Gr.mem_edge g v w && Hashtbl.mem in_part w) then
                    ok := false;
                  internal := w :: !internal
              | Half (u, w) ->
                  if u <> v || not (Hashtbl.mem half_set (u, w)) then ok := false;
                  halves := (u, w) :: !halves)
            items;
          (* Items must cover exactly the internal neighbors and this
             vertex's half edges, each once. *)
          let expected_internal =
            List.sort compare
              (List.filter (Hashtbl.mem in_part)
                 (Array.to_list (Gr.neighbors g v)))
          in
          if List.sort compare !internal <> expected_internal then ok := false;
          let expected_halves =
            List.sort compare (List.filter (fun (u, _) -> u = v) half)
          in
          if List.sort compare !halves <> expected_halves then ok := false)
    part;
  !ok
