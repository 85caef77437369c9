(* Scenario: a city-scale sensor mesh preparing for face routing.

   Planar embeddings are what make geographic/face routing possible in
   wireless meshes: once every node knows the clockwise order of its
   links, greedy-face routing (GFG/GPSR-style) can guarantee delivery by
   walking face boundaries. This example builds a damaged street-grid
   mesh (a grid with a percentage of failed links), computes the
   combinatorial embedding with the distributed algorithm, and then uses
   the embedding: it traces the mesh's faces ("city blocks") and walks
   the boundary of the face a chosen dart lies on, exactly the primitive
   a face-routing forwarding plane needs.

     dune exec examples/sensor_grid.exe *)

let () =
  let rows = 12 and cols = 18 in
  let full = Gen.grid rows cols in
  (* Knock out ~20% of the links (deterministically), keeping the mesh
     connected: drop a shuffled prefix of non-bridge edges. *)
  let rng = Random.State.make [| 2026 |] in
  let edges = Array.of_list (Gr.edges full) in
  for i = Array.length edges - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = edges.(i) in
    edges.(i) <- edges.(j);
    edges.(j) <- t
  done;
  let target_failures = Gr.m full / 5 in
  let kept = ref (Array.to_list edges) in
  let failed = ref 0 in
  Array.iter
    (fun e ->
      if !failed < target_failures then begin
        let without = List.filter (fun e' -> e' <> e) !kept in
        let candidate = Gr.of_edges ~n:(rows * cols) without in
        if Traverse.is_connected candidate then begin
          kept := without;
          incr failed
        end
      end)
    edges;
  let g = Gr.of_edges ~n:(rows * cols) !kept in
  Printf.printf "sensor mesh: %dx%d grid, %d/%d links up, diameter %d\n\n"
    rows cols (Gr.m g) (Gr.m full) (Traverse.diameter g);

  let ours = Embedder.run g in
  let base = Baseline.run g in
  Printf.printf "distributed embedding : %6d rounds\n"
    ours.Embedder.report.Embedder.rounds;
  Printf.printf "gather-all baseline   : %6d rounds\n"
    base.Baseline.report.Baseline.rounds;
  Printf.printf "max bits on any link  : %6d (ours)\n\n"
    ours.Embedder.report.Embedder.max_edge_bits;

  match ours.Embedder.rotation with
  | None -> failwith "mesh should be planar"
  | Some rot ->
      assert (Rotation.is_planar_embedding rot);
      let faces = Rotation.faces rot in
      let sizes = List.map List.length faces in
      let blocks = List.length faces in
      Printf.printf "face structure: %d faces (city blocks), sizes %d..%d\n"
        blocks
        (List.fold_left min max_int sizes)
        (List.fold_left max 0 sizes);
      (* The face-routing primitive: from a dart (u -> v), walk the face
         boundary. A packet that hits a routing void at u toward v would
         traverse exactly this cycle of links. *)
      let (u, v) = List.hd (Gr.edges g) in
      let boundary = Rotation.face_of_dart rot (u, v) in
      Printf.printf
        "\nface-routing walk from dart %d->%d (the face a stuck packet \
         would traverse):\n  %s\n"
        u v
        (String.concat " -> "
           (List.map (fun (a, _) -> string_of_int a) boundary));
      (* Sanity: the walk returns to its starting dart. *)
      assert (List.hd boundary = (u, v));
      Printf.printf
        "\nwith every node knowing its clockwise link order, \
         face/perimeter routing is now a local rule.\n"
