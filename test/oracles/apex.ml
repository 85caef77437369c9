type shape = {
  induced_edges : int;
  blocks : int;
  outer : (int * int) list option;
  full : int array array option;
}

let shape g ~part ~half =
  let (h, old_of_new, new_of_old) = Gr.induced g part in
  let p = Gr.n h and k = List.length half in
  let half_arr = Array.of_list half in
  (* Stubs p .. p+k-1, apex p+k (only when there are half edges). *)
  let apex = p + k in
  let aug =
    if k = 0 then h
    else
      Gr.union_vertices h ~more:(k + 1)
        (List.concat
           (List.mapi
              (fun i (u, _) -> [ (new_of_old u, p + i); (p + i, apex) ])
              half))
  in
  let emb =
    match Planarity.embed aug with
    | Planarity.Nonplanar -> None
    | Planarity.Planar r -> Some r
  in
  let outer =
    Option.map
      (fun r ->
        if k = 0 then []
        else
          Array.to_list
            (Array.map (fun s -> half_arr.(s - p)) (Rotation.rotation r apex)))
      emb
  in
  let full =
    match emb with
    | Some r when p = Gr.n g ->
        Some
          (Array.init p (fun v ->
               Array.map
                 (fun w -> old_of_new.(w))
                 (Rotation.rotation r (new_of_old v))))
    | _ -> None
  in
  {
    induced_edges = Gr.m h;
    blocks = (Bicon.decompose h).Bicon.n_components;
    outer;
    full;
  }
