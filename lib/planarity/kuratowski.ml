type kind = K5 | K33

let witness g =
  if Planarity.is_planar g then None
  else begin
    let n = Gr.n g in
    (* One pass: drop every edge whose removal keeps the graph non-planar.
       Each surviving edge was tested against a superset of the final set,
       so its removal from the final set leaves a subgraph of a planar
       graph — every survivor is critical.

       One shared edge array with an exclusion mask: each probe flips a
       single mask bit and runs the LR test straight off the masked
       array ([Lr.is_planar_edges] builds its CSR from it without
       constructing a [Gr.t]), instead of rebuilding the whole graph
       per candidate deletion. *)
    let edges = Array.of_list (Gr.edges g) in
    let mask = Array.make (Array.length edges) true in
    Array.iteri
      (fun i _ ->
        mask.(i) <- false;
        (* still non-planar without edge i: drop it for good (leave the
           bit off); otherwise the edge is critical — restore it. *)
        if Lr.is_planar_edges ~n edges ~mask then mask.(i) <- true)
      edges;
    let kept = ref [] in
    for i = Array.length edges - 1 downto 0 do
      if mask.(i) then kept := edges.(i) :: !kept
    done;
    Some !kept
  end

(* Suppress degree-2 vertices: replace every maximal path whose interior
   vertices have degree 2 by a single edge between its branch endpoints.
   Returns the branch vertices (old ids) and the edges between them, or
   None if suppression creates a self-loop or a parallel edge (then the
   input was not a subdivision of a simple branch graph). *)
let suppress g edges =
  let n = Gr.n g in
  let h = Gr.of_edges ~n edges in
  let branch v = Gr.degree h v >= 3 in
  let branches =
    List.filter branch (List.init n (fun v -> v))
  in
  if branches = [] then None
  else begin
    let result_edges = ref [] in
    let seen = Hashtbl.create 16 in
    let ok = ref true in
    (* Walk from each branch vertex along each incident path. *)
    List.iter
      (fun b ->
        Array.iter
          (fun first ->
            (* Follow the path b - first - ... until the next branch. *)
            let rec walk prev cur =
              if branch cur then cur
              else
                match Array.to_list (Gr.neighbors h cur) with
                | [ a; c ] -> walk cur (if a = prev then c else a)
                | _ ->
                    (* A dangling degree-1 path: not a subdivision. *)
                    ok := false;
                    cur
            in
            let other = walk b first in
            if !ok then begin
              if other = b then ok := false (* self-loop after suppression *)
              else begin
                let e = Gr.normalize_edge b other in
                (* Each path is seen from both ends; also reject parallel
                   paths between the same pair (key on the path's first
                   interior vertex to tell walks apart). *)
                let key = (e, min (min b first) other) in
                ignore key;
                if List.mem e !result_edges then begin
                  if Hashtbl.mem seen (e, 2) then ok := false
                  else Hashtbl.replace seen (e, 2) ()
                end
                else result_edges := e :: !result_edges
              end
            end)
          (Gr.neighbors h b))
      branches;
    if not !ok then None else Some (branches, !result_edges)
  end

let classify g edges =
  match suppress g edges with
  | None -> None
  | Some (branches, core_edges) -> (
      let k = List.length branches in
      let deg b =
        List.length (List.filter (fun (u, v) -> u = b || v = b) core_edges)
      in
      (* Also require the witness to use exactly the subdivision's edges:
         the degree-2 interior vertices are implied by the walks. *)
      match k, List.length core_edges with
      | 5, 10 when List.for_all (fun b -> deg b = 4) branches -> Some K5
      | 6, 9 when List.for_all (fun b -> deg b = 3) branches ->
          (* Check bipartiteness of the 6-vertex core. *)
          let idx = Hashtbl.create 6 in
          List.iteri (fun i b -> Hashtbl.replace idx b i) branches;
          let core =
            Gr.of_edges ~n:6
              (List.map
                 (fun (u, v) -> (Hashtbl.find idx u, Hashtbl.find idx v))
                 core_edges)
          in
          let color = Array.make 6 (-1) in
          let bipartite = ref true in
          let queue = Queue.create () in
          color.(0) <- 0;
          Queue.add 0 queue;
          while not (Queue.is_empty queue) do
            let v = Queue.pop queue in
            Array.iter
              (fun w ->
                if color.(w) < 0 then begin
                  color.(w) <- 1 - color.(v);
                  Queue.add w queue
                end
                else if color.(w) = color.(v) then bipartite := false)
              (Gr.neighbors core v)
          done;
          if !bipartite then Some K33 else None
      | _ -> None)

let witness_exn g =
  match witness g with
  | None -> invalid_arg "Kuratowski.witness_exn: the graph is planar"
  | Some edges -> (
      match classify g edges with
      | Some kind -> (edges, kind)
      | None ->
          invalid_arg
            "Kuratowski.witness_exn: extracted witness failed verification")
