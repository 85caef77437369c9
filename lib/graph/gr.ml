type edge = int * int

(* The core representation is CSR (compressed sparse row): [xadj] holds
   the n+1 slice offsets, [adjncy] the 2m neighbor ids (each slice
   sorted ascending). A {e dart} is a directed edge; its dense id is its
   slot in [adjncy], so the darts pointing {e into} a vertex [v] are the
   contiguous range [xadj.(v) .. xadj.(v+1) - 1], ordered by source id —
   exactly the delivery order the CONGEST engine guarantees.
   [dart_uedge] maps each dart to the dense index of its undirected edge:
   edge [e] is [(elo.(e), ehi.(e))], normalized and lex-sorted. Two int
   arrays rather than an array of pairs, so building a graph allocates
   no per-edge blocks for the minor collector to promote. *)
type t = {
  n : int;
  xadj : int array;
  adjncy : int array;
  dart_uedge : int array;
  dart_rev : int array;  (* the opposite dart: rev of u -> v is v -> u *)
  elo : int array;
  ehi : int array;
}

let normalize_edge u v =
  if u = v then invalid_arg "Gr.normalize_edge: self-loop";
  if u < v then (u, v) else (v, u)

let check_vertex n v =
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Gr: vertex %d out of range [0, %d)" v n)

(* CSR assembly from the first [m] lex-sorted, duplicate-free, normalized
   pairs into caller arrays: [xadj] (n + 1), [adjncy], [dart_uedge] and
   [dart_rev] (2m each); [fill] (n) is scratch. *)
let csr_into ~n ~m lo hi ~xadj ~adjncy ~dart_uedge ~dart_rev ~fill =
  Array.fill xadj 0 (n + 1) 0;
  for e = 0 to m - 1 do
    xadj.(lo.(e) + 1) <- xadj.(lo.(e) + 1) + 1;
    xadj.(hi.(e) + 1) <- xadj.(hi.(e) + 1) + 1
  done;
  for v = 0 to n - 1 do
    xadj.(v + 1) <- xadj.(v + 1) + xadj.(v)
  done;
  Array.blit xadj 0 fill 0 n;
  (* The pairs are lex-sorted, so each slice comes out sorted: vertex
     [v] first receives its lower neighbors (edges [(u, v)], increasing
     [u]), then its higher neighbors (edges [(v, w)], increasing [w]).
     Slot [su] in [u]'s slice holds neighbor [v], i.e. the dart [v -> u];
     its reversal [u -> v] is the matching slot in [v]'s slice — both are
     known here, so the involution costs nothing extra to record. *)
  for e = 0 to m - 1 do
    let u = lo.(e) and v = hi.(e) in
    let su = fill.(u) and sv = fill.(v) in
    adjncy.(su) <- v;
    dart_uedge.(su) <- e;
    adjncy.(sv) <- u;
    dart_uedge.(sv) <- e;
    dart_rev.(su) <- sv;
    dart_rev.(sv) <- su;
    fill.(u) <- su + 1;
    fill.(v) <- sv + 1
  done

(* The graph of lex-sorted, duplicate-free, normalized pairs; the two
   arrays are kept as the edge list (ownership transfers). *)
let of_sorted_pairs ~n elo ehi =
  let m = Array.length elo in
  let xadj = Array.make (n + 1) 0 in
  let adjncy = Array.make (2 * m) 0 in
  let dart_uedge = Array.make (2 * m) 0 in
  let dart_rev = Array.make (2 * m) 0 in
  csr_into ~n ~m elo ehi ~xadj ~adjncy ~dart_uedge ~dart_rev
    ~fill:(Array.make n 0);
  { n; xadj; adjncy; dart_uedge; dart_rev; elo; ehi }

(* One stable counting pass: the first [m] pairs (lo, hi) reordered by
   [key] (their [lo] or [hi] array) into (lo', hi'); [start] (n + 1) is
   scratch. *)
let counting_pass ~n ~m ~key ~start lo hi lo' hi' =
  Array.fill start 0 (n + 1) 0;
  for i = 0 to m - 1 do
    let k = key.(i) + 1 in
    start.(k) <- start.(k) + 1
  done;
  for k = 1 to n do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  for i = 0 to m - 1 do
    let k = key.(i) in
    let j = start.(k) in
    lo'.(j) <- lo.(i);
    hi'.(j) <- hi.(i);
    start.(k) <- j + 1
  done

let sort_pairs_into ~n ~m lo hi ~lo1 ~hi1 ~start =
  for i = 0 to m - 1 do
    let u = lo.(i) and v = hi.(i) in
    check_vertex n u;
    check_vertex n v;
    if u = v then invalid_arg "Gr.normalize_edge: self-loop";
    if u > v then begin
      lo.(i) <- v;
      hi.(i) <- u
    end
  done;
  (* Lex order in O(n + m): stable by the larger end, then stable by the
     smaller, so equal smaller ends keep their larger ends ascending. *)
  counting_pass ~n ~m ~key:hi ~start lo hi lo1 hi1;
  counting_pass ~n ~m ~key:lo1 ~start lo1 hi1 lo hi;
  (* Collapse duplicates in place: keep a pair unless it equals the
     last one kept. *)
  let k = ref 0 in
  for i = 0 to m - 1 do
    if !k = 0 || lo.(!k - 1) <> lo.(i) || hi.(!k - 1) <> hi.(i) then begin
      lo.(!k) <- lo.(i);
      hi.(!k) <- hi.(i);
      incr k
    end
  done;
  !k

let of_pairs ~n lo hi =
  let m0 = Array.length lo in
  if Array.length hi <> m0 then invalid_arg "Gr.of_pairs: length mismatch";
  let m =
    sort_pairs_into ~n ~m:m0 lo hi ~lo1:(Array.make m0 0)
      ~hi1:(Array.make m0 0) ~start:(Array.make (n + 1) 0)
  in
  let trim a = if m = m0 then a else Array.sub a 0 m in
  of_sorted_pairs ~n (trim lo) (trim hi)

let of_edges ~n edges =
  let m0 = List.length edges in
  let lo = Array.make m0 0 and hi = Array.make m0 0 in
  List.iteri
    (fun i (u, v) ->
      lo.(i) <- u;
      hi.(i) <- v)
    edges;
  of_pairs ~n lo hi

let empty n = of_edges ~n []
let n t = t.n
let m t = Array.length t.elo

let id_bits t =
  let rec bits k acc = if k <= 1 then acc else bits (k / 2) (acc + 1) in
  bits (max 2 t.n - 1) 1
let degree t v = t.xadj.(v + 1) - t.xadj.(v)
let neighbors t v = Array.sub t.adjncy t.xadj.(v) (degree t v)

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

let edges t = List.init (m t) (fun e -> (t.elo.(e), t.ehi.(e)))

let iter_edges t f =
  for e = 0 to m t - 1 do
    f t.elo.(e) t.ehi.(e)
  done

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

let edge_of_index t i = (t.elo.(i), t.ehi.(i))

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
      iter_neighbors t v (fun w ->
          match Hashtbl.find_opt new_idx w with
          | Some j when i < j -> sub_edges := (i, j) :: !sub_edges
          | Some _ | None -> ()))
    old_of_new;
  let h = of_edges ~n:k !sub_edges in
  (h, old_of_new, fun v -> Hashtbl.find new_idx v)

let add_edges t extra =
  of_edges ~n:t.n (extra @ edges t)

let union_vertices t ~more extra =
  of_edges ~n:(t.n + more) (extra @ edges t)

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
    (List.init (m t) (fun e -> (perm.(t.elo.(e)), perm.(t.ehi.(e)))))
