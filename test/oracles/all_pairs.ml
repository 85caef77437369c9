(* The exact diameter by all-pairs BFS, O(n·m): the differential oracle
   for Traverse.diameter's iFUB search. *)

let diameter g =
  if not (Traverse.is_connected g) then
    invalid_arg "All_pairs.diameter: disconnected graph";
  Gr.fold_vertices g ~init:0 ~f:(fun acc v -> max acc (Traverse.eccentricity g v))
