type mode = Faithful | Economy

type t = {
  id : int;
  vertices : int list;
  leader : int;
  tree_parent : (int, int) Hashtbl.t;
  depth : int;
  anchors : int list;
  trivial : bool;
  n_bicon : int;
  half : (int * int) list;
  iface_bits : int;
}

exception Nonplanar_detected of string

let word = Gr.id_bits

(* Number of maximal runs in a cyclic sequence after classifying: the
   number of class transitions around the cycle, at least one. *)
let cyclic_runs classify = function
  | [] -> 0
  | [ _ ] -> 1
  | l ->
      let arr = Array.of_list (List.map classify l) in
      let k = Array.length arr in
      let transitions = ref 0 in
      for i = 0 to k - 1 do
        if arr.(i) <> arr.((i + 1) mod k) then incr transitions
      done;
      max 1 !transitions

(* [span] stamps the vertices of the current install's spanning tree
   (install number [spans]); [tree] holds their BFS parents. *)
type workspace = {
  embedding : Constrained.workspace;
  span : int array;
  tree : int array;
  mutable spans : int;
}

let workspace g =
  {
    embedding = Constrained.workspace g;
    span = Array.make (Gr.n g) 0;
    tree = Array.make (Gr.n g) 0;
    spans = 0;
  }

let embedding ws = ws.embedding

let create g ws ~mode ~classify ~half ~id ~vertices ~anchors =
  let leader = List.fold_left max (List.hd vertices) vertices in
  (* Spanning tree over the part plus its anchors (the "split-off copies"
     of P0 coordinators), rooted at the leader: a BFS over [g] limited to
     the stamped span set, parents -1 while unreached. The visiting order
     matches a BFS of the induced subgraph on the sorted span set, whose
     CSR slices are [g]'s slices filtered, in order. *)
  ws.spans <- ws.spans + 1;
  let stamp = ws.spans and span = ws.span and tree = ws.tree in
  let size = ref 0 in
  let enter v =
    if span.(v) <> stamp then begin
      span.(v) <- stamp;
      tree.(v) <- -1;
      incr size
    end
  in
  List.iter enter anchors;
  List.iter enter vertices;
  tree.(leader) <- leader;
  let rec level frontier d =
    let next = ref [] in
    List.iter
      (fun v ->
        Gr.iter_neighbors g v (fun w ->
            if span.(w) = stamp && tree.(w) = -1 then begin
              tree.(w) <- v;
              next := w :: !next
            end))
      frontier;
    if !next = [] then d else level (List.rev !next) (d + 1)
  in
  let depth = level [ leader ] 0 in
  let tree_parent = Hashtbl.create !size in
  let keep v =
    if tree.(v) < 0 then
      invalid_arg
        (Printf.sprintf "Part.create: part %d is not connected (vertex %d)" id v);
    Hashtbl.replace tree_parent v tree.(v)
  in
  List.iter keep anchors;
  List.iter keep vertices;
  (* The induced subgraph proper (without anchors), loaded once into the
     install workspace for the structure and the constrained embedding. *)
  let cw = ws.embedding in
  Constrained.load cw ~part:vertices ~half;
  let trivial = Constrained.induced_edges cw = List.length vertices - 1 in
  let n_bicon = Constrained.blocks cw in
  let outer =
    match mode with
    | Economy -> None
    | Faithful ->
        if Constrained.embed_loaded cw then Some (Constrained.outer cw)
        else
          raise
            (Nonplanar_detected
               (Printf.sprintf
                  "part %d admits no embedding with its half-embedded edges \
                   on one face"
                  id))
  in
  let w = word g in
  let iface_bits =
    (* Compressed interface: one (class, count) leaf per maximal run of
       half-embedded edges with the same outside endpoint, plus 2 bits of
       structure per biconnected component. In Economy mode the realized
       outer order is unknown; the number of distinct outside endpoints is
       the run-count estimate. *)
    let runs =
      match outer with
      | Some outer -> cyclic_runs (fun (_u, v) -> classify v) outer
      | None ->
          List.length
            (List.sort_uniq compare (List.map (fun (_u, v) -> classify v) half))
    in
    2 + (runs * (2 + (2 * w))) + (2 * n_bicon)
  in
  {
    id;
    vertices;
    leader;
    tree_parent;
    depth;
    anchors;
    trivial;
    n_bicon;
    half;
    iface_bits;
  }

let size t = List.length t.vertices
let mem t v = Hashtbl.mem t.tree_parent v && not (List.mem v t.anchors)

let path_to_leader t v =
  let rec up v acc =
    let p = Hashtbl.find t.tree_parent v in
    if p = v then List.rev (v :: acc) else up p (v :: acc)
  in
  up v []

let parent_fn t v = Hashtbl.find t.tree_parent v
