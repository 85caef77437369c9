type call = {
  root : int;
  vertices : int list;
  subtree_depth : int;
  splitter : int;
  p0 : int list;
  hanging : call list;
  level : int;
}

let splitter_of_subtree ~sizes ~children ~total root =
  let rec walk v =
    let heavy =
      List.fold_left
        (fun acc c -> match acc with
          | Some h when sizes h >= sizes c -> acc
          | _ -> Some c)
        None (children v)
    in
    match heavy with
    | Some h when 2 * sizes h > total -> walk h
    | Some _ | None -> v
  in
  walk root

let subtree_vertices children root =
  let out = ref [] in
  let stack = Stack.create () in
  Stack.push root stack;
  while not (Stack.is_empty stack) do
    let v = Stack.pop stack in
    out := v :: !out;
    List.iter (fun c -> Stack.push c stack) (children v)
  done;
  !out

let recursion_tree g bt =
  let kids_arr = Traverse.children bt in
  let children v = kids_arr.(v) in
  (* Global subtree sizes: within any subtree T_s, a vertex's subtree size
     equals its global one. *)
  let sizes_arr = Traverse.subtree_sizes g bt in
  let sizes v = sizes_arr.(v) in
  let rec build level root =
    let vertices = subtree_vertices children root in
    let total = List.length vertices in
    let subtree_depth =
      List.fold_left
        (fun acc v -> max acc (bt.Traverse.dist.(v) - bt.Traverse.dist.(root)))
        0 vertices
    in
    if total <= 2 then
      (* Base case: the whole subtree is the P0, ordered from the root
         down; a subtree of at most two vertices is always a path. *)
      let p0 =
        List.sort
          (fun a b -> compare bt.Traverse.dist.(a) bt.Traverse.dist.(b))
          vertices
      in
      { root; vertices; subtree_depth; splitter = root; p0; hanging = []; level }
    else begin
      let v = splitter_of_subtree ~sizes ~children ~total root in
      (* P0: the tree path root .. v. *)
      let rec up x acc =
        if x = root then x :: acc else up bt.Traverse.parent.(x) (x :: acc)
      in
      let p0 = up v [] in
      let on_p0 = Hashtbl.create (List.length p0) in
      List.iter (fun x -> Hashtbl.replace on_p0 x ()) p0;
      let hanging =
        List.concat_map
          (fun x ->
            List.filter_map
              (fun c ->
                if Hashtbl.mem on_p0 c then None
                else Some (build (level + 1) c))
              (children x))
          p0
      in
      { root; vertices; subtree_depth; splitter = v; p0; hanging; level }
    end
  in
  build 0 bt.Traverse.root

let rec depth call =
  List.fold_left (fun acc c -> max acc (depth c)) call.level call.hanging

let rec count_calls call =
  List.fold_left (fun acc c -> acc + count_calls c) 1 call.hanging

let check g bt call =
  let ok = ref true in
  let fail () = ok := false in
  let rec go call =
    let total = List.length call.vertices in
    (* P0 is the tree path root .. splitter. *)
    (match call.p0 with
    | [] -> fail ()
    | first :: _ ->
        if first <> call.root then fail ();
        let rec pairs = function
          | a :: (b :: _ as rest) ->
              if bt.Traverse.parent.(b) <> a then fail ();
              pairs rest
          | [ last ] -> if call.hanging <> [] && last <> call.splitter then fail ()
          | [] -> ()
        in
        pairs call.p0);
    (* P0 induces a path (no chords: Lemma 4.1). *)
    let (p0g, _, _) = Gr.induced g call.p0 in
    if Gr.m p0g <> List.length call.p0 - 1 then fail ();
    (* Parts partition the subtree. *)
    let all = call.p0 @ List.concat_map (fun c -> c.vertices) call.hanging in
    if List.sort compare all <> List.sort compare call.vertices then fail ();
    List.iter
      (fun child ->
        (* Lemma 4.2: size and depth bounds. *)
        if 3 * List.length child.vertices > 2 * total then fail ();
        if child.subtree_depth >= call.subtree_depth && call.subtree_depth > 0
        then fail ();
        if not (Partition.induces_connected g child.vertices) then fail ();
        go child)
      call.hanging
  in
  go call;
  !ok
