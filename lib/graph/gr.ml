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

(* The dart table is built by transposition, without sorting the pairs:
   bucketing each normalized pair's smaller end under its larger end,
   then walking the larger ends in increasing order and appending each
   to its smaller end's list of higher neighbors, leaves every such list
   sorted. Walking the smaller ends in increasing order then meets the
   distinct pairs in lexicographic order, which numbers the edges, and
   appends each end to the other's slice in increasing order: each slice
   first receives its lower neighbors, then its own higher ones, so it
   comes out sorted with no pass of its own. A duplicate pair is met
   right after its twin and skipped; it leaves a gap at the end of both
   ends' slices, closed by one compaction pass when there was one. *)
let csr_of_pairs_into ~n ~m lo hi ~lo1 ~hi1 ~count ~xadj ~adjncy ~dart_uedge
    ~dart_rev =
  (* One pass checks and normalizes each pair and counts it under both
     ends: by its larger end in [count.(0 .. n)], by its smaller in
     [count.(n + 1 .. 2n + 1)], each at its end + 1. *)
  let base = n + 1 in
  Array.fill count 0 (2 * base) 0;
  for i = 0 to m - 1 do
    let u = lo.(i) and v = hi.(i) in
    check_vertex n u;
    check_vertex n v;
    if u = v then invalid_arg "Gr.normalize_edge: self-loop";
    let a, b =
      if u > v then begin
        lo.(i) <- v;
        hi.(i) <- u;
        (v, u)
      end
      else (u, v)
    in
    count.(b + 1) <- count.(b + 1) + 1;
    count.(base + a + 1) <- count.(base + a + 1) + 1
  done;
  (* Slice offsets as if every pair were distinct, and bucket offsets. *)
  xadj.(0) <- 0;
  for v = 0 to n - 1 do
    xadj.(v + 1) <- xadj.(v) + count.(v + 1) + count.(base + v + 1);
    count.(v + 1) <- count.(v + 1) + count.(v);
    count.(base + v + 1) <- count.(base + v + 1) + count.(base + v)
  done;
  (* Smaller ends bucketed by larger end, into [lo1]. *)
  for i = 0 to m - 1 do
    let b = hi.(i) in
    let j = count.(b) in
    lo1.(j) <- lo.(i);
    count.(b) <- j + 1
  done;
  (* Larger ends, ascending, appended to their smaller end's list in
     [hi1]: bucket [b] of [lo1] now ends at [count.(b)]. *)
  let j = ref 0 in
  for b = 0 to n - 1 do
    let stop = count.(b) in
    while !j < stop do
      let a = base + lo1.(!j) in
      let k = count.(a) in
      hi1.(k) <- b;
      count.(a) <- k + 1;
      incr j
    done
  done;
  (* [count.(0 .. n-1)] becomes each slice's fill cursor; the list of
     [a]'s higher neighbors ends at [count.(base + a)]. *)
  for v = 0 to n - 1 do
    count.(v) <- xadj.(v)
  done;
  let e = ref 0 and i = ref 0 and dups = ref 0 in
  for a = 0 to n - 1 do
    let stop = count.(base + a) in
    let prev = ref (-1) in
    let su = ref count.(a) in
    while !i < stop do
      let b = hi1.(!i) in
      incr i;
      if b = !prev then incr dups
      else begin
        prev := b;
        let id = !e in
        let s = !su and sv = count.(b) in
        lo.(id) <- a;
        hi.(id) <- b;
        adjncy.(s) <- b;
        dart_uedge.(s) <- id;
        adjncy.(sv) <- a;
        dart_uedge.(sv) <- id;
        dart_rev.(s) <- sv;
        dart_rev.(sv) <- s;
        su := s + 1;
        count.(b) <- sv + 1;
        e := id + 1
      end
    done;
    count.(a) <- !su
  done;
  if !dups > 0 then begin
    (* Close the gaps: vertex [v]'s slice moves down by the gaps of all
       slices before it, kept in [count.(base + v)]. *)
    let shift = ref 0 in
    for v = 0 to n - 1 do
      count.(base + v) <- !shift;
      shift := !shift + xadj.(v + 1) - count.(v)
    done;
    for v = 0 to n - 1 do
      let sh = count.(base + v) in
      if sh > 0 then
        for p = xadj.(v) to count.(v) - 1 do
          let w = adjncy.(p) in
          adjncy.(p - sh) <- w;
          dart_uedge.(p - sh) <- dart_uedge.(p);
          dart_rev.(p - sh) <- dart_rev.(p) - count.(base + w)
        done
      else
        for p = xadj.(v) to count.(v) - 1 do
          let w = adjncy.(p) in
          dart_rev.(p) <- dart_rev.(p) - count.(base + w)
        done
    done;
    for v = 1 to n do
      xadj.(v) <- xadj.(v) - if v < n then count.(base + v) else !shift
    done
  end;
  !e

let of_pairs ~n lo hi =
  let m0 = Array.length lo in
  if Array.length hi <> m0 then invalid_arg "Gr.of_pairs: length mismatch";
  let xadj = Array.make (n + 1) 0 in
  let adjncy = Array.make (2 * m0) 0 in
  let dart_uedge = Array.make (2 * m0) 0 in
  let dart_rev = Array.make (2 * m0) 0 in
  let m =
    csr_of_pairs_into ~n ~m:m0 lo hi ~lo1:(Array.make m0 0)
      ~hi1:(Array.make m0 0)
      ~count:(Array.make (2 * (n + 1)) 0)
      ~xadj ~adjncy ~dart_uedge ~dart_rev
  in
  (* The arrays keep their length unless duplicates were collapsed. *)
  let trim k a = if k = Array.length a then a else Array.sub a 0 k in
  {
    n;
    xadj;
    adjncy = trim (2 * m) adjncy;
    dart_uedge = trim (2 * m) dart_uedge;
    dart_rev = trim (2 * m) dart_rev;
    elo = trim m lo;
    ehi = trim m hi;
  }

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
