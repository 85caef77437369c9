type grouping = { stars : (int * int list) list; paths : int list list }

let part_level_rounds = 4

let check_proper g colors =
  Gr.iter_edges g (fun u v ->
      if colors.(u) = colors.(v) then
        invalid_arg "Symmetry.compute: coloring is not proper")

(* Pointer of u: the smallest-colored neighbor with a color below u's own
   (ties on color broken by id). None at local color minima. *)
let pointer g colors u =
  Gr.fold_neighbors g u ~init:None ~f:(fun acc w ->
      if colors.(w) < colors.(u) then
        match acc with
        | Some b
          when colors.(b) < colors.(w)
               || (colors.(b) = colors.(w) && b < w) ->
            acc
        | Some _ | None -> Some w
      else acc)

(* A maximal pairwise non-adjacent subset of [claimants], taken greedily
   with the claimants that touch the fewest others first (ties by id).
   The neighbors of a node of an outerplanar graph induce disjoint paths,
   and on paths this keeps every other node from each end, a maximum
   independent set; greedy by id alone can keep one node of three.
   [mark] is all zeros on entry and on return; the cost is the claimants'
   total degree. *)
let independent g mark claimants =
  List.iter (fun w -> mark.(w) <- 1) claimants;
  let touching w =
    Gr.fold_neighbors g w ~init:0 ~f:(fun c x ->
        if mark.(x) = 1 then c + 1 else c)
  in
  let order =
    List.sort compare (List.map (fun w -> (touching w, w)) claimants)
  in
  let kept =
    List.fold_left
      (fun kept (_, w) ->
        if mark.(w) = 2 then kept
        else begin
          Gr.iter_neighbors g w (fun x -> if mark.(x) = 1 then mark.(x) <- 2);
          w :: kept
        end)
      [] order
  in
  List.iter (fun w -> mark.(w) <- 0) claimants;
  List.rev kept

let compute g ~colors =
  let n = Gr.n g in
  if Array.length colors <> n then invalid_arg "Symmetry.compute: bad colors";
  check_proper g colors;
  let ptr = Array.init n (pointer g colors) in
  (* Stage 1 — stars: every local color minimum grabs the nodes pointing
     at it, pruned to a pairwise non-adjacent ("independent") leaf set so
     the group induces a star. *)
  let in_star = Array.make n false in
  let stars = ref [] in
  let mark = Array.make n 0 in
  let add_star c claimants =
    match independent g mark claimants with
    | [] -> ()
    | leaves ->
        in_star.(c) <- true;
        List.iter (fun w -> in_star.(w) <- true) leaves;
        stars := (c, leaves) :: !stars
  in
  for u = 0 to n - 1 do
    if ptr.(u) = None then
      add_star u
        (Array.to_list
           (Array.of_seq
              (Seq.filter
                 (fun w -> ptr.(w) = Some u)
                 (Array.to_seq (Gr.neighbors g u)))))
  done;
  (* Stage 2 — color-monotone paths over the remaining nodes: recompute
     pointers within the remainder; each node has out-degree <= 1, and
     keeping only the smallest-id in-pointer per node yields disjoint
     paths. Colors strictly decrease along pointers, so each path is
     color-monotone. *)
  let ptr2 =
    Array.init n (fun u ->
        if in_star.(u) then None
        else
          match pointer g colors u with
          | Some w when not in_star.(w) -> Some w
          | Some _ | None -> (
              (* The preferred target joined a star; settle for any other
                 smaller-colored free neighbor. *)
              Gr.fold_neighbors g u ~init:None ~f:(fun acc w ->
                  if
                    (not in_star.(w))
                    && colors.(w) < colors.(u)
                    && (match acc with
                       | Some b -> colors.(w) < colors.(b)
                       | None -> true)
                  then Some w
                  else acc)))
  in
  (* Stage 2a — a free node that two or more free nodes point at becomes
     a star center too, its leaves taken from those of its in-pointers
     that are not centers themselves; keeping one in-pointer for a path
     would strand the others as singletons. *)
  let indeg = Array.make n 0 in
  Array.iter (function Some w -> indeg.(w) <- indeg.(w) + 1 | None -> ()) ptr2;
  let center w = (not in_star.(w)) && indeg.(w) >= 2 in
  let claimed = Array.make n [] in
  for u = n - 1 downto 0 do
    match ptr2.(u) with
    | Some w when center w && not (center u) -> claimed.(w) <- u :: claimed.(w)
    | Some _ | None -> ()
  done;
  for w = 0 to n - 1 do
    if center w then add_star w claimed.(w)
  done;
  let ptr2 =
    Array.mapi
      (fun u p ->
        match p with
        | Some w when not (in_star.(u) || in_star.(w)) -> p
        | Some _ | None -> None)
      ptr2
  in
  let chosen_in = Array.make n (-1) in
  for u = 0 to n - 1 do
    match ptr2.(u) with
    | Some w ->
        if chosen_in.(w) < 0 || u < chosen_in.(w) then chosen_in.(w) <- u
    | None -> ()
  done;
  (* Keep the pointer edge u -> ptr2(u) only if u is w's chosen in-node. *)
  let kept_out =
    Array.init n (fun u ->
        match ptr2.(u) with
        | Some w when chosen_in.(w) = u -> Some w
        | Some _ | None -> None)
  in
  let has_kept_in = Array.make n false in
  Array.iter (function Some w -> has_kept_in.(w) <- true | None -> ()) kept_out;
  let paths = ref [] in
  for u = 0 to n - 1 do
    if (not in_star.(u)) && not has_kept_in.(u) then begin
      (* u heads a maximal pointer path. *)
      let rec follow v acc =
        match kept_out.(v) with
        | Some w -> follow w (w :: acc)
        | None -> List.rev acc
      in
      paths := follow u [ u ] :: !paths
    end
  done;
  { stars = List.rev !stars; paths = List.rev !paths }

let check g ~colors grouping =
  let n = Gr.n g in
  let ok = ref true in
  let assigned = Array.make n 0 in
  List.iter
    (fun (c, leaves) ->
      if List.length leaves < 1 then ok := false;
      assigned.(c) <- assigned.(c) + 1;
      List.iter (fun w -> assigned.(w) <- assigned.(w) + 1) leaves;
      (* Induces a star: center adjacent to all leaves, leaves pairwise
         non-adjacent. *)
      List.iter (fun w -> if not (Gr.mem_edge g c w) then ok := false) leaves;
      List.iteri
        (fun i w ->
          List.iteri
            (fun j x -> if i < j && Gr.mem_edge g w x then ok := false)
            leaves)
        leaves)
    grouping.stars;
  List.iter
    (fun path ->
      (match path with [] -> ok := false | _ -> ());
      List.iter (fun v -> assigned.(v) <- assigned.(v) + 1) path;
      let rec pairs = function
        | a :: (b :: _ as rest) ->
            if not (Gr.mem_edge g a b) then ok := false;
            if colors.(b) >= colors.(a) then ok := false;
            pairs rest
        | [ _ ] | [] -> ()
      in
      pairs path)
    grouping.paths;
  (* Exact cover of all nodes. *)
  Array.iter (fun c -> if c <> 1 then ok := false) assigned;
  !ok
