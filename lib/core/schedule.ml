type outcome = {
  final_part : int;
  parts_at_restricted_merge : int;
  retired_parts : int;
}

(* Classification of a part's current connections within one call: how
   many distinct P0 positions it touches and the lowest and highest of
   them, whether it touches another alive part, and whether it has edges
   leaving the call's subtree (G \ H). An install-time half edge whose
   far end has since joined the part is no longer one. *)
type conn = { npos : int; low : int; high : int; others : bool; gh : bool }

let classify st id =
  let part_of = st.Merge.part_of
  and in_call = st.Merge.in_call
  and p0_pos = st.Merge.p0_pos
  and seen = st.Merge.seen in
  st.Merge.seen_stamp <- st.Merge.seen_stamp + 1;
  let stamp = st.Merge.seen_stamp and call = st.Merge.stats.Merge.calls in
  let npos = ref 0 and low = ref max_int and high = ref (-1) in
  let others = ref false and gh = ref false in
  List.iter
    (fun (_u, v) ->
      if part_of.(v) <> id then
        if in_call.(v) <> call then gh := true
        else begin
          let i = p0_pos.(v) in
          if i < 0 then (if part_of.(v) >= 0 then others := true)
          else if seen.(v) <> stamp then begin
            seen.(v) <- stamp;
            incr npos;
            if i < !low then low := i;
            if i > !high then high := i
          end
        end)
    (Merge.part st id).Part.half;
  { npos = !npos; low = !low; high = !high; others = !others; gh = !gh }

(* Combined pipelined shipping of several interface payloads, each along
   its own path: the routes run concurrently, so the round cost is the
   longest path plus the worst per-edge backlog, while the edge-bit tallies
   are exact. *)
let charge_concurrent st shipments =
  let cost = st.Merge.cost in
  let g = st.Merge.g in
  let loads = Hashtbl.create 64 in
  let longest = ref 0 in
  List.iter
    (fun (path, bits) ->
      (match path with
      | [] | [ _ ] -> ()
      | first :: rest ->
          let prev = ref first in
          List.iter
            (fun v ->
              if not (Gr.mem_edge g !prev v) then raise Not_found;
              let key = (!prev, v) in
              let sofar = try Hashtbl.find loads key with Not_found -> 0 in
              Hashtbl.replace loads key (sofar + bits);
              prev := v)
            rest);
      longest := max !longest (List.length path - 1))
    shipments;
  let max_load = Hashtbl.fold (fun _ l acc -> max l acc) loads 0 in
  Hashtbl.iter (fun (u, v) l -> Costmodel.note_dir_bits cost ~u ~v l) loads;
  let b = Costmodel.bandwidth cost in
  if !longest > 0 || max_load > 0 then
    Costmodel.advance cost (!longest + ((max_load + b - 1) / b))

let run st ~p0 ~hanging ~subtree =
  let cost = st.Merge.cost in
  let word = Part.word st.Merge.g in
  st.Merge.stats.Merge.calls <- st.Merge.stats.Merge.calls + 1;
  let call = st.Merge.stats.Merge.calls in
  List.iter
    (fun v ->
      st.Merge.in_call.(v) <- call;
      st.Merge.p0_pos.(v) <- -1)
    subtree;
  List.iteri (fun i v -> st.Merge.p0_pos.(v) <- i) p0;
  Costmodel.span_open cost "schedule.merge";
  (* Step 0/1: create the trivial P0 part and number its vertices (the
     numbering travels down the path). *)
  let p0_part = Merge.fresh_part st p0 in
  Costmodel.charge_path cost p0 ~bits:word;
  let p0_arr = Array.of_list p0 in
  let alive = Hashtbl.create (List.length hanging) in
  List.iter (fun id -> Hashtbl.replace alive id ()) hanging;
  let retired = ref [] in
  let retire id =
    Hashtbl.remove alive id;
    retired := id :: !retired;
    st.Merge.stats.Merge.retired <- st.Merge.stats.Merge.retired + 1
  in
  let sidelined = Hashtbl.create 8 in
  let alive_ids () = Hashtbl.fold (fun id () acc -> id :: acc) alive [] in
  let max_depth ids =
    List.fold_left (fun acc id -> max acc (Merge.part st id).Part.depth) 0 ids
  in
  (* Step 2: two functionally identical iterations. *)
  for _iter = 1 to 2 do
    let participants =
      List.filter (fun id -> not (Hashtbl.mem sidelined id)) (alive_ids ())
    in
    if participants <> [] then begin
      (* (a) lowest P0-connection of each part: one aggregation per part,
         all parts in parallel. *)
      Costmodel.branch_max cost
        (List.map
           (fun id () ->
             Costmodel.charge_plan cost (Merge.part st id).Part.plan ~bits:word)
           participants);
      let low = Hashtbl.create 16 in
      List.iter
        (fun id ->
          let c = classify st id in
          (* A hanging part always touches P0 through its tree edge. *)
          if c.npos = 0 then
            invalid_arg "Schedule.run: hanging part without P0 connection";
          Hashtbl.replace low id c.low)
        participants;
      (* (b) vertex-coordinated merges of same-color connected clusters. *)
      let by_color = Hashtbl.create 16 in
      List.iter
        (fun id ->
          let c = Hashtbl.find low id in
          let prev = try Hashtbl.find by_color c with Not_found -> [] in
          Hashtbl.replace by_color c (id :: prev))
        participants;
      let merged_now = ref [] in
      let cluster_jobs = ref [] in
      Hashtbl.iter
        (fun color ids ->
          match ids with
          | [] | [ _ ] -> ()
          | _ ->
              (* Connected clusters among the same-color parts. *)
              let arr = Array.of_list ids in
              let index = Hashtbl.create 8 in
              Array.iteri (fun i id -> Hashtbl.replace index id i) arr;
              let uf = Unionfind.create (Array.length arr) in
              Array.iteri
                (fun i id ->
                  List.iter
                    (fun q ->
                      match Hashtbl.find_opt index q with
                      | Some j -> ignore (Unionfind.union uf i j)
                      | None -> ())
                    (Merge.adjacent_parts st id))
                arr;
              let clusters = Unionfind.groups uf in
              Hashtbl.iter
                (fun _rep members ->
                  if List.length members >= 2 then begin
                    let ids = List.map (fun i -> arr.(i)) members in
                    let coord = p0_arr.(color) in
                    cluster_jobs := (color, coord, ids) :: !cluster_jobs
                  end)
                clusters)
        by_color;
      (* All clusters merge in parallel; inside a cluster the members ship
         their interfaces to the shared coordinator concurrently. *)
      Costmodel.branch_max cost
        (List.map
           (fun (_color, coord, ids) () ->
             List.iter (fun id -> Merge.ship_to_vertex st ~from_part:id coord) ids)
           !cluster_jobs);
      List.iter
        (fun (_color, coord, ids) ->
          List.iter (fun id -> Hashtbl.remove alive id) ids;
          let nid =
            Merge.merge st ~anchors:[ coord ] ~kind:Merge.Vertex_coordinated ids
          in
          Hashtbl.replace alive nid ();
          merged_now := nid :: !merged_now)
        !cluster_jobs;
      (* (c)/(d): retire parts whose only connection is one P0 vertex
         (and possibly G \ H): they deliver their edge order to it. *)
      List.iter
        (fun id ->
          if Hashtbl.mem alive id then begin
            let c = classify st id in
            if c.npos = 1 && not c.others then begin
              Merge.ship_to_vertex st ~from_part:id p0_arr.(c.low);
              retire id
            end
          end)
        (alive_ids ());
      (* (f) symmetry breaking on the inter-part graph, colored by low
         connections (proper after the same-color merges). *)
      let participants =
        List.filter (fun id -> not (Hashtbl.mem sidelined id)) (alive_ids ())
      in
      if List.length participants >= 2 then begin
        let arr = Array.of_list participants in
        let index = Hashtbl.create 8 in
        Array.iteri (fun i id -> Hashtbl.replace index id i) arr;
        let edges = ref [] in
        Array.iteri
          (fun i id ->
            List.iter
              (fun q ->
                match Hashtbl.find_opt index q with
                | Some j when j > i -> edges := (i, j) :: !edges
                | Some _ | None -> ())
              (Merge.adjacent_parts st id))
          arr;
        let pg = Gr.of_edges ~n:(Array.length arr) !edges in
        let colors =
          Array.map
            (fun id ->
              let c = classify st id in
              if c.npos = 0 then
                invalid_arg "Schedule.run: part lost its P0 connection";
              c.low)
            arr
        in
        Costmodel.note cost "part-depth-max" (max_depth participants);
        Costmodel.advance cost
          (Symmetry.part_level_rounds * (max_depth participants + 1));
        let grouping = Symmetry.compute pg ~colors in
        (* (g) star merges on the V-sets. *)
        let do_group ids kind =
          List.iter (fun id -> Hashtbl.remove alive id) ids;
          let nid = Merge.merge st ~kind ids in
          Hashtbl.replace alive nid ()
        in
        Costmodel.branch_max cost
          (List.map
             (fun (c, leaves) () ->
               List.iter
                 (fun l ->
                   Merge.ship_between st ~from_part:arr.(l) ~to_part:arr.(c))
                 leaves)
             grouping.Symmetry.stars);
        List.iter
          (fun (c, leaves) ->
            do_group (arr.(c) :: List.map (fun l -> arr.(l)) leaves) Merge.Star)
          grouping.Symmetry.stars;
        (* (h)/(i): two-node paths merge pairwise; longer paths sit the
           next iteration out. *)
        Costmodel.branch_max cost
          (List.filter_map
             (fun path ->
               match path with
               | [ a; b ] ->
                   Some
                     (fun () ->
                       Merge.ship_between st ~from_part:arr.(b) ~to_part:arr.(a))
               | _ -> None)
             grouping.Symmetry.paths);
        List.iter
          (fun path ->
            match path with
            | [ a; b ] -> do_group [ arr.(a); arr.(b) ] Merge.Pairwise
            | _ :: _ :: _ ->
                List.iter
                  (fun i -> Hashtbl.replace sidelined arr.(i) ())
                  path
            | _ -> ())
          grouping.Symmetry.paths
      end
    end
  done;
  (* Steps 3-5: among parts connected to exactly two P0 vertices and
     nothing else, the coordinator keeps only the highest id per vertex
     pair; the rest deliver their orders and retire. *)
  let by_pair = Hashtbl.create 8 in
  List.iter
    (fun id ->
      let c = classify st id in
      if c.npos = 2 && not (c.others || c.gh) then begin
        let key = (c.low, c.high) in
        let prev = try Hashtbl.find by_pair key with Not_found -> [] in
        Hashtbl.replace by_pair key (id :: prev)
      end)
    (alive_ids ());
  Hashtbl.iter
    (fun (i, j) ids ->
      match List.sort compare ids with
      | [] -> ()
      | sorted ->
          let keep = List.nth sorted (List.length sorted - 1) in
          List.iter
            (fun id ->
              if id <> keep then begin
                Merge.ship_to_vertex st ~from_part:id p0_arr.(i);
                Merge.ship_to_vertex st ~from_part:id p0_arr.(j);
                retire id
              end)
            sorted)
    by_pair;
  (* Step 6: the restricted path-coordinated merge. Every surviving part
     ships its interface to its lowest connection vertex and onward along
     P0 to the splitter end; the shipments share the path's edges, which
     is exactly where congestion is measured. *)
  let survivors = alive_ids () in
  let k = List.length survivors in
  if k > st.Merge.stats.Merge.final_parts_max then
    st.Merge.stats.Merge.final_parts_max <- k;
  let shipments =
    List.map
      (fun id ->
        let p = Merge.part st id in
        let c = classify st id in
        let i = if c.npos = 0 then 0 else c.low in
        (* Aggregate internally first. *)
        Costmodel.charge_plan cost p.Part.plan ~bits:p.Part.iface_bits;
        let u = ref p.Part.leader in
        (try
           List.iter
             (fun v ->
               if Gr.mem_edge st.Merge.g v p0_arr.(i) then begin
                 u := v;
                 raise Exit
               end)
             p.Part.vertices
         with Exit -> ());
        let down = List.rev (Part.path_to_leader p !u) in
        (* Onward along P0 from position i to the splitter (the far end). *)
        let along = Array.to_list (Array.sub p0_arr i (Array.length p0_arr - i)) in
        (down @ along, p.Part.iface_bits))
      survivors
  in
  charge_concurrent st shipments;
  let everyone = (p0_part :: survivors) @ !retired in
  let final_part =
    match everyone with
    | [ only ] -> only
    | _ -> Merge.merge st ~kind:Merge.Path_coordinated everyone
  in
  Costmodel.span_close cost
    ~attrs:
      [
        ("p0_len", List.length p0);
        ("hanging", List.length hanging);
        ("survivors", k);
        ("retired", List.length !retired);
      ]
    ();
  {
    final_part;
    parts_at_restricted_merge = k;
    retired_parts = List.length !retired;
  }
