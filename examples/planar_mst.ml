(* The downstream story: minimum spanning tree on a planar network.

   The paper's abstract promises that its embedding is "used, in a
   black-box manner" by part II of the project [GH16] to compute MST and
   min-cut in planar networks in O~(D) rounds. This example runs the
   repository's pipeline the way that program does: first the distributed
   planar embedding (part I, this paper), then a distributed MST over the
   same simulated network — here the classic Borůvka fragment merging,
   with part II's shortcut acceleration noted as the open follow-up.

   The weights model link latencies on a sensor mesh.

     dune exec examples/planar_mst.exe *)

let () =
  let n = 600 in
  let g = Gen.random_planar ~seed:77 ~n ~m:(2 * n) in
  (* Deterministic pseudo-latencies per link. *)
  let weight u v = (((u + 1) * 48271) lxor ((v + 1) * 16807)) mod 1000 in
  Printf.printf "planar network: n=%d m=%d diameter=%d\n\n" (Gr.n g) (Gr.m g)
    (Traverse.diameter g);

  (* Part I: the planar embedding (each node learns its clockwise link
     order; usable afterwards for face routing, duals, separators...). *)
  let emb = Embedder.run g in
  (match emb.Embedder.rotation with
  | Some r -> assert (Rotation.is_planar_embedding r)
  | None -> failwith "planar input rejected");
  Printf.printf "part I  (planar embedding)  : %6d rounds\n"
    emb.Embedder.report.Embedder.rounds;

  (* Part II consumer: distributed MST. *)
  let (mst, rep) = Mst.run ~weight g in
  Printf.printf "part II consumer (MST)      : %6d rounds, %d Boruvka phases\n"
    rep.Mst.rounds rep.Mst.boruvka_phases;
  let total_weight =
    List.fold_left (fun acc (u, v) -> acc + weight u v) 0 mst
  in
  Printf.printf "MST: %d edges, total latency %d\n" (List.length mst)
    total_weight;

  (* Verify against the centralized reference. *)
  let reference = Mst.kruskal ~weight g in
  assert (List.sort compare mst = List.sort compare reference);
  Printf.printf "matches centralized Kruskal : yes\n\n";

  (* And the embedding is immediately useful on the result: the MST is a
     planar subgraph whose embedding is induced by restricting each node's
     clockwise order — e.g. for collision-free tree broadcast schedules. *)
  let t = Gr.of_edges ~n mst in
  (match Planarity.embed t with
  | Planarity.Planar rt ->
      Printf.printf "the MST itself embeds with %d face(s) (a tree: exactly 1)\n"
        (Rotation.face_count rt)
  | Planarity.Nonplanar -> assert false);
  Printf.printf
    "\n[GH16] (part II of the program) accelerates exactly this MST to\n\
     O~(D) rounds with low-congestion shortcuts built from the embedding.\n"
