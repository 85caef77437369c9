type report = {
  n : int;
  m : int;
  bandwidth : int;
  leader : int;
  bfs_depth : int;
  rounds : int;
  phases : (string * int) list;
  total_bits : int;
  max_edge_bits : int;
  recursion_depth : int;
  recursion_calls : int;
  max_parts_at_restricted_merge : int;
  merges_pairwise : int;
  merges_star : int;
  merges_vertex : int;
  merges_path : int;
  retired_parts : int;
  safety_checks : int;
  iface_bits_shipped : int;
  installs : int;
  install_vertices : int;
  metrics : Metrics.t;
}

type outcome = { rotation : Rotation.t option; report : report }

(* Rebuild a Traverse.bfs_tree from the distributed election's per-node
   results, so the decomposition works on the tree the nodes actually
   agreed on. *)
let tree_of_states g states =
  let n = Gr.n g in
  let root = states.(0).Proto.leader in
  let parent = Array.make n (-1) in
  let dist = Array.make n (-1) in
  for v = 0 to n - 1 do
    parent.(v) <- states.(v).Proto.parent;
    dist.(v) <- states.(v).Proto.dist
  done;
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare dist.(a) dist.(b)) order;
  { Traverse.root; parent; dist; order }

(* [List.map f xs] with the branches charged in parallel; each result
   lands in its branch's slot, so collecting them is linear. *)
let branch_max_map cost f xs =
  let out = Array.make (List.length xs) None in
  Costmodel.branch_max cost
    (List.mapi (fun i x () -> out.(i) <- Some (f x)) xs);
  Array.to_list (Array.map Option.get out)

let run ?(config = Network.Config.default) ?(checks = false) g =
  if Gr.n g = 0 then invalid_arg "Embedder.run: empty network";
  if not (Traverse.is_connected g) then
    invalid_arg "Embedder.run: the network must be connected";
  (* The embedder threads one metrics timeline through several protocol
     runs and the cost model, then checks bounds post-hoc — so it adopts
     the observer's metrics sink (or makes its own) and forwards only the
     sinks, never a per-run bounds request, to the protocols below. *)
  let observe = config.Network.Config.observe in
  let metrics =
    match Observe.metrics observe with Some m -> m | None -> Metrics.create g
  in
  let trace = Observe.trace observe in
  let sinks = Observe.make ~metrics ?trace () in
  let bandwidth =
    match config.Network.Config.bandwidth with
    | Some b -> b
    | None -> Network.default_bandwidth g
  in
  (* The per-protocol config: same engine knobs, the embedder's own
     sinks, the resolved bandwidth. *)
  let pconfig =
    {
      config with
      Network.Config.observe = sinks;
      bandwidth = Some bandwidth;
    }
  in
  let round_clock () = Metrics.rounds metrics in
  (* Phase 1 (real protocols): leader election + BFS tree, with n counted
     on the way — the paper's O(D) preliminaries (Section 2). *)
  let r0 = Metrics.rounds metrics in
  let (states, n_counted) =
    Trace.with_span trace "leader-election+bfs" ~clock:round_clock (fun () ->
        Proto.elect ~config:pconfig g)
  in
  Metrics.phase metrics "leader-election+bfs" (Metrics.rounds metrics - r0);
  assert (n_counted = Gr.n g);
  let bt = tree_of_states g states in
  let leader = bt.Traverse.root in
  let word = Part.word g in
  let cost =
    Costmodel.create ~bandwidth ?trace ~round_base:(Metrics.rounds metrics) g
      metrics
  in
  let st = Merge.create g ~checks ~cost in
  let rec_tree = Decompose.recursion_tree g bt in
  Costmodel.note cost "recursion-depth" (Decompose.depth rec_tree);
  Costmodel.note cost "recursion-calls" (Decompose.count_calls rec_tree);
  let rotation =
    try
      let rec process level call =
        (* The decomposition bookkeeping of one call: subtree sizes
           (convergecast), the splitter walk and the P0 numbering, all on
           the subtree's own tree edges. *)
        Costmodel.span_open cost (Printf.sprintf "recurse.d%d" level);
        Costmodel.charge_aggregate cost ~root:call.Decompose.root
          ~parent:(fun v -> bt.Traverse.parent.(v))
          ~members:call.Decompose.vertices ~bits:word;
        Costmodel.advance cost call.Decompose.subtree_depth;
        let part =
          match call.Decompose.hanging with
          | [] -> Merge.fresh_part st call.Decompose.p0
          | hanging ->
              let in_sub = Hashtbl.create (List.length call.Decompose.vertices) in
              List.iter
                (fun v -> Hashtbl.replace in_sub v ())
                call.Decompose.vertices;
              let child_ids = branch_max_map cost (process (level + 1)) hanging in
              let outcome =
                Schedule.run st ~p0:call.Decompose.p0 ~hanging:child_ids
                  ~in_subtree:(Hashtbl.mem in_sub)
              in
              outcome.Schedule.final_part
        in
        Costmodel.span_close cost
          ~attrs:
            [
              ("vertices", List.length call.Decompose.vertices);
              ("hanging", List.length call.Decompose.hanging);
              ("subtree_depth", call.Decompose.subtree_depth);
            ]
          ();
        part
      in
      ignore
        (Costmodel.phase cost "recursive-embedding" (fun () ->
             process 0 rec_tree));
      (* The rotation every node now holds: the ring of the part covering
         the network, read at its install. *)
      st.Merge.full
    with Part.Nonplanar_detected _ -> None
  in
  Metrics.add_rounds metrics (Costmodel.clock cost);
  let s = st.Merge.stats in
  let report =
    {
      n = Gr.n g;
      m = Gr.m g;
      bandwidth;
      leader;
      bfs_depth = Traverse.depth bt;
      rounds = Metrics.rounds metrics;
      phases = Metrics.phases metrics;
      total_bits = Metrics.total_bits metrics;
      max_edge_bits = Metrics.max_edge_bits metrics;
      recursion_depth = Decompose.depth rec_tree;
      recursion_calls = Decompose.count_calls rec_tree;
      max_parts_at_restricted_merge = s.Merge.final_parts_max;
      merges_pairwise = s.Merge.pairwise;
      merges_star = s.Merge.star;
      merges_vertex = s.Merge.vertex_coordinated;
      merges_path = s.Merge.path_coordinated;
      retired_parts = s.Merge.retired;
      safety_checks = s.Merge.safety_checks;
      iface_bits_shipped = s.Merge.iface_bits_shipped;
      installs = s.Merge.installs;
      install_vertices = s.Merge.install_vertices;
      metrics;
    }
  in
  { rotation; report }
