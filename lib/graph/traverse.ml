type bfs_tree = {
  root : int;
  parent : int array;
  dist : int array;
  order : int array;
}

let bfs g root =
  let n = Gr.n g in
  let parent = Array.make n (-1) in
  let dist = Array.make n (-1) in
  let order = Array.make n (-1) in
  let queue = Queue.create () in
  parent.(root) <- root;
  dist.(root) <- 0;
  Queue.add root queue;
  let filled = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order.(!filled) <- v;
    incr filled;
    Gr.iter_neighbors g v (fun w ->
        if dist.(w) < 0 then begin
          dist.(w) <- dist.(v) + 1;
          parent.(w) <- v;
          Queue.add w queue
        end)
  done;
  let order = Array.sub order 0 !filled in
  { root; parent; dist; order }

let children t =
  let n = Array.length t.parent in
  let kids = Array.make n [] in
  for v = n - 1 downto 0 do
    if v <> t.root && t.parent.(v) >= 0 then
      kids.(t.parent.(v)) <- v :: kids.(t.parent.(v))
  done;
  kids

let depth t = Array.fold_left max 0 t.dist

let subtree_sizes _g t =
  let n = Array.length t.parent in
  let size = Array.make n 0 in
  (* Visit in reverse BFS order: children before parents. *)
  for i = Array.length t.order - 1 downto 0 do
    let v = t.order.(i) in
    size.(v) <- size.(v) + 1;
    if v <> t.root then size.(t.parent.(v)) <- size.(t.parent.(v)) + size.(v)
  done;
  size

let distances g source = (bfs g source).dist

let is_connected g =
  Gr.n g = 0 || Array.length (bfs g 0).order = Gr.n g

let components g =
  (* One pass: a shared [seen] array and one queue array serve every
     component, so the cost is O(n + m) however many components there
     are. Component [c] occupies a contiguous stretch of [queue] in BFS
     order; components come out by smallest vertex. *)
  let n = Gr.n g in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  let tail = ref 0 in
  let comps = ref [] in
  for v = 0 to n - 1 do
    if not seen.(v) then begin
      let start = !tail in
      seen.(v) <- true;
      queue.(!tail) <- v;
      incr tail;
      let head = ref start in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        Gr.iter_neighbors g u (fun w ->
            if not seen.(w) then begin
              seen.(w) <- true;
              queue.(!tail) <- w;
              incr tail
            end)
      done;
      let rec collect i acc =
        if i < start then acc else collect (i - 1) (queue.(i) :: acc)
      in
      comps := collect (!tail - 1) [] :: !comps
    end
  done;
  List.rev !comps

let eccentricity g v =
  let d = distances g v in
  Array.fold_left
    (fun acc x ->
      if x < 0 then invalid_arg "Traverse.eccentricity: disconnected graph"
      else max acc x)
    0 d

let diameter g =
  if not (is_connected g) then invalid_arg "Traverse.diameter: disconnected graph";
  Gr.fold_vertices g ~init:0 ~f:(fun acc v -> max acc (eccentricity g v))

let diameter_bracket g =
  (* Double sweep: with [u] farthest from vertex 0, ecc(u) >= d(u, 0) =
     ecc(0), and no two vertices are more than 2·ecc(0) apart. *)
  if Gr.n g = 0 then invalid_arg "Traverse.diameter_bracket: empty graph";
  let d0 = distances g 0 in
  let far = ref 0 in
  Array.iteri
    (fun v x ->
      if x < 0 then invalid_arg "Traverse.diameter_bracket: disconnected graph";
      if x > d0.(!far) then far := v)
    d0;
  (eccentricity g !far, 2 * d0.(!far))

type dfs_tree = {
  dfs_root : int;
  dfs_parent : int array;
  preorder : int array;
  pre_index : int array;
}

let dfs g root =
  let n = Gr.n g in
  let dfs_parent = Array.make n (-1) in
  let pre_index = Array.make n (-1) in
  let preorder = Array.make n (-1) in
  let filled = ref 0 in
  let visit v parent =
    dfs_parent.(v) <- parent;
    pre_index.(v) <- !filled;
    preorder.(!filled) <- v;
    incr filled
  in
  visit root root;
  (* Neighbors in increasing order: v's CSR slice. *)
  let off = Gr.dart_offsets g and src = Gr.dart_sources g in
  let stack = Stack.create () in
  Stack.push (root, ref 0) stack;
  while not (Stack.is_empty stack) do
    let (v, next) = Stack.top stack in
    if off.(v) + !next < off.(v + 1) then begin
      let w = src.(off.(v) + !next) in
      incr next;
      if pre_index.(w) < 0 then begin
        visit w v;
        Stack.push (w, ref 0) stack
      end
    end
    else ignore (Stack.pop stack)
  done;
  { dfs_root = root; dfs_parent; preorder = Array.sub preorder 0 !filled; pre_index }

let tree_path t v =
  if v < 0 || v >= Array.length t.parent || t.dist.(v) < 0 then
    invalid_arg "Traverse.tree_path: vertex not reached";
  let rec up v acc = if v = t.root then v :: acc else up t.parent.(v) (v :: acc) in
  up v []
