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
  emb : Constrained.t option;
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

let create g ~mode ~classify ~half ~id ~vertices ~anchors =
  let leader = List.fold_left max (List.hd vertices) vertices in
  (* Spanning tree over the part plus its anchors (the "split-off copies"
     of P0 coordinators), rooted at the leader: a BFS over [g] limited to
     the span set. Span vertices start with parent -1 (unreached). The
     visiting order matches a BFS of the induced subgraph on the sorted
     span set, whose CSR slices are [g]'s slices filtered, in order. *)
  let span_set = List.sort_uniq compare (anchors @ vertices) in
  let tree_parent = Hashtbl.create (List.length span_set) in
  List.iter (fun v -> Hashtbl.replace tree_parent v (-1)) span_set;
  Hashtbl.replace tree_parent leader leader;
  let rec level frontier d =
    let next = ref [] in
    List.iter
      (fun v ->
        Gr.iter_neighbors g v (fun w ->
            match Hashtbl.find tree_parent w with
            | -1 ->
                Hashtbl.replace tree_parent w v;
                next := w :: !next
            | _ | (exception Not_found) -> ()))
      frontier;
    if !next = [] then d else level (List.rev !next) (d + 1)
  in
  let depth = level [ leader ] 0 in
  List.iter
    (fun v ->
      if Hashtbl.find tree_parent v < 0 then
        invalid_arg
          (Printf.sprintf "Part.create: part %d is not connected (vertex %d)" id v))
    span_set;
  (* The induced subgraph proper (without anchors), built once for the
     structure and the constrained embedding. *)
  let induced = Gr.induced g vertices in
  let (sub, _, _) = induced in
  let trivial = Gr.m sub = List.length vertices - 1 in
  let dec = Bicon.decompose sub in
  let n_bicon = dec.Bicon.n_components in
  let emb =
    match mode with
    | Economy -> None
    | Faithful -> (
        match Constrained.embed_induced g ~part:vertices ~half induced with
        | Some e -> Some e
        | None ->
            raise
              (Nonplanar_detected
                 (Printf.sprintf
                    "part %d admits no embedding with its half-embedded \
                     edges on one face"
                    id)))
  in
  let w = word g in
  let iface_bits =
    (* Compressed interface: one (class, count) leaf per maximal run of
       half-embedded edges with the same outside endpoint, plus 2 bits of
       structure per biconnected component. In Economy mode the realized
       outer order is unknown; the number of distinct outside endpoints is
       the run-count estimate. *)
    let runs =
      match emb with
      | Some e -> cyclic_runs (fun (_u, v) -> classify v) e.Constrained.outer
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
    emb;
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
