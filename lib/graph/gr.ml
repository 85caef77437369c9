type edge = int * int

(* The core representation is CSR (compressed sparse row): [xadj] holds
   the n+1 slice offsets, [adjncy] the 2m neighbor ids (each slice
   sorted ascending). A {e dart} is a directed edge; its dense id is its
   slot in [adjncy], so the darts pointing {e into} a vertex [v] are the
   contiguous range [xadj.(v) .. xadj.(v+1) - 1], ordered by source id —
   exactly the delivery order the CONGEST engine guarantees.
   [dart_uedge] maps each dart to the dense index of its undirected edge
   in [edge_list]. [adj] materializes the per-vertex neighbor arrays for
   the legacy [neighbors] accessor (owned by the graph, like the CSR
   arrays). *)
type t = {
  n : int;
  xadj : int array;
  adjncy : int array;
  dart_uedge : int array;
  dart_rev : int array;  (* the opposite dart: rev of u -> v is v -> u *)
  edge_list : edge array;
  adj : int array array;
}

let normalize_edge u v =
  if u = v then invalid_arg "Gr.normalize_edge: self-loop";
  if u < v then (u, v) else (v, u)

let check_vertex n v =
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Gr: vertex %d out of range [0, %d)" v n)

(* CSR assembly from a lex-sorted, duplicate-free, normalized edge
   array; the array is kept as [edge_list] (ownership transfers). *)
let of_edge_list_owned ~n edge_list =
  let xadj = Array.make (n + 1) 0 in
  Array.iter
    (fun (u, v) ->
      xadj.(u + 1) <- xadj.(u + 1) + 1;
      xadj.(v + 1) <- xadj.(v + 1) + 1)
    edge_list;
  for v = 0 to n - 1 do
    xadj.(v + 1) <- xadj.(v + 1) + xadj.(v)
  done;
  let nd = xadj.(n) in
  let adjncy = Array.make nd 0 in
  let dart_uedge = Array.make nd 0 in
  let dart_rev = Array.make nd 0 in
  let fill = Array.sub xadj 0 n in
  (* [edge_list] is lex-sorted, so each slice comes out sorted: vertex
     [v] first receives its lower neighbors (edges [(u, v)], increasing
     [u]), then its higher neighbors (edges [(v, w)], increasing [w]).
     Slot [su] in [u]'s slice holds neighbor [v], i.e. the dart [v -> u];
     its reversal [u -> v] is the matching slot in [v]'s slice — both are
     known here, so the involution costs nothing extra to record. *)
  Array.iteri
    (fun e (u, v) ->
      let su = fill.(u) and sv = fill.(v) in
      adjncy.(su) <- v;
      dart_uedge.(su) <- e;
      adjncy.(sv) <- u;
      dart_uedge.(sv) <- e;
      dart_rev.(su) <- sv;
      dart_rev.(sv) <- su;
      fill.(u) <- su + 1;
      fill.(v) <- sv + 1)
    edge_list;
  let adj =
    Array.init n (fun v -> Array.sub adjncy xadj.(v) (xadj.(v + 1) - xadj.(v)))
  in
  { n; xadj; adjncy; dart_uedge; dart_rev; edge_list; adj }

let of_edges ~n edges =
  (* Pack each normalized edge (a, b) as the int a·n + b: an int sort
     with a monomorphic compare yields the same lex order as sorting the
     pairs, without polymorphic compare on tuples. *)
  let keys =
    Array.of_list
      (List.map
         (fun (u, v) ->
           check_vertex n u;
           check_vertex n v;
           let (a, b) = normalize_edge u v in
           (a * n) + b)
         edges)
  in
  Array.sort (fun (a : int) b -> compare a b) keys;
  let m =
    let cnt = ref 0 in
    Array.iteri (fun i k -> if i = 0 || keys.(i - 1) <> k then incr cnt) keys;
    !cnt
  in
  let edge_list = Array.make m (0, 0) in
  let j = ref 0 in
  Array.iteri
    (fun i k ->
      if i = 0 || keys.(i - 1) <> k then begin
        edge_list.(!j) <- (k / n, k mod n);
        incr j
      end)
    keys;
  of_edge_list_owned ~n edge_list

let of_normalized_sorted_unchecked ~n edge_list = of_edge_list_owned ~n edge_list

let empty n = of_edges ~n []
let n t = t.n
let m t = Array.length t.edge_list
let degree t v = t.xadj.(v + 1) - t.xadj.(v)
let neighbors t v = t.adj.(v)

let iter_neighbors t v f =
  for i = t.xadj.(v) to t.xadj.(v + 1) - 1 do
    f t.adjncy.(i)
  done

let fold_neighbors t v ~init ~f =
  let acc = ref init in
  for i = t.xadj.(v) to t.xadj.(v + 1) - 1 do
    acc := f !acc t.adjncy.(i)
  done;
  !acc

(* Slot of [x] in the sorted CSR slice [lo, hi) of [a], or -1. *)
let rec slice_find a lo hi x =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) / 2 in
    let y = a.(mid) in
    if y = x then mid
    else if y < x then slice_find a (mid + 1) hi x
    else slice_find a lo mid x
  end

let mem_edge t u v =
  u <> v
  && u >= 0 && v >= 0 && u < t.n && v < t.n
  && slice_find t.adjncy t.xadj.(v) t.xadj.(v + 1) u >= 0

let edges t = Array.to_list t.edge_list
let iter_edges t f = Array.iter (fun (u, v) -> f u v) t.edge_list

let fold_vertices t ~init ~f =
  let acc = ref init in
  for v = 0 to t.n - 1 do
    acc := f !acc v
  done;
  !acc

let darts t = Array.length t.adjncy

let dart t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n || src = dst then
    raise Not_found;
  let i = slice_find t.adjncy t.xadj.(dst) t.xadj.(dst + 1) src in
  if i < 0 then raise Not_found;
  i

let dart_src t d = t.adjncy.(d)
let dart_edge t d = t.dart_uedge.(d)
let dart_rev t d = t.dart_rev.(d)
let dart_offsets t = t.xadj
let dart_sources t = t.adjncy
let dart_edges t = t.dart_uedge
let dart_reversals t = t.dart_rev

let edge_index t u v =
  (* Self-loops are an [Invalid_argument], as they always were. *)
  ignore (normalize_edge u v : edge);
  t.dart_uedge.(dart t ~src:u ~dst:v)

let edge_of_index t i = t.edge_list.(i)

let induced t vs =
  let k = List.length vs in
  let old_of_new = Array.of_list vs in
  let new_idx = Hashtbl.create k in
  Array.iteri
    (fun i v ->
      check_vertex t.n v;
      if Hashtbl.mem new_idx v then invalid_arg "Gr.induced: duplicate vertex";
      Hashtbl.replace new_idx v i)
    old_of_new;
  let sub_edges = ref [] in
  Array.iteri
    (fun i v ->
      Array.iter
        (fun w ->
          match Hashtbl.find_opt new_idx w with
          | Some j when i < j -> sub_edges := (i, j) :: !sub_edges
          | Some _ | None -> ())
        t.adj.(v))
    old_of_new;
  let h = of_edges ~n:k !sub_edges in
  (h, old_of_new, fun v -> Hashtbl.find new_idx v)

let add_edges t extra =
  of_edges ~n:t.n (extra @ Array.to_list t.edge_list)

let union_vertices t ~more extra =
  of_edges ~n:(t.n + more) (extra @ Array.to_list t.edge_list)

let relabel t perm =
  if Array.length perm <> t.n then invalid_arg "Gr.relabel: bad permutation";
  let seen = Array.make t.n false in
  Array.iter
    (fun p ->
      check_vertex t.n p;
      if seen.(p) then invalid_arg "Gr.relabel: not a permutation";
      seen.(p) <- true)
    perm;
  of_edges ~n:t.n
    (Array.to_list (Array.map (fun (u, v) -> (perm.(u), perm.(v))) t.edge_list))

let pp ppf t =
  Format.fprintf ppf "@[<v>graph n=%d m=%d" t.n (m t);
  iter_edges t (fun u v -> Format.fprintf ppf "@ %d -- %d" u v);
  Format.fprintf ppf "@]"
