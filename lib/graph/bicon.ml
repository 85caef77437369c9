type t = {
  g : Gr.t;
  n_components : int;
  comp_of_edge : int array;
  comp_edge_offsets : int array;
  comp_edge_list : int array;
  comp_vertex_offsets : int array;
  comp_vertex_list : int array;
  vertex_comp_offsets : int array;
  vertex_comp_list : int array;
  is_cut : bool array;
}

(* Iterative Tarjan lowpoint algorithm with an explicit edge stack. Each
   DFS frame records the vertex, its DFS parent and the index of the next
   neighbor to examine, so deep graphs never overflow the OCaml stack. *)
let decompose g =
  let n = Gr.n g in
  let m = Gr.m g in
  let disc = Array.make n (-1) in
  let low = Array.make n 0 in
  let is_cut = Array.make n false in
  let comp_of_edge = Array.make m (-1) in
  let n_components = ref 0 in
  let time = ref 0 in
  (* Neighbors in increasing order: u's CSR slice. *)
  let off = Gr.dart_offsets g and src = Gr.dart_sources g in
  let edge_stack = Stack.create () in
  let pop_component u w =
    (* Pop edges down to and including (u, w); they form one component. *)
    let continue = ref true in
    while !continue do
      let (a, b) = Stack.pop edge_stack in
      comp_of_edge.(Gr.edge_index g a b) <- !n_components;
      if (a, b) = Gr.normalize_edge u w then continue := false
    done;
    incr n_components
  in
  for start = 0 to n - 1 do
    if disc.(start) < 0 then begin
      let root_children = ref 0 in
      (* Frame: (vertex, dfs parent, mutable next-neighbor index). *)
      let frames = Stack.create () in
      disc.(start) <- !time;
      low.(start) <- !time;
      incr time;
      Stack.push (start, -1, ref 0) frames;
      while not (Stack.is_empty frames) do
        let (u, parent, next) = Stack.top frames in
        if off.(u) + !next < off.(u + 1) then begin
          let w = src.(off.(u) + !next) in
          incr next;
          if disc.(w) < 0 then begin
            Stack.push (Gr.normalize_edge u w) edge_stack;
            if u = start then incr root_children;
            disc.(w) <- !time;
            low.(w) <- !time;
            incr time;
            Stack.push (w, u, ref 0) frames
          end
          else if w <> parent && disc.(w) < disc.(u) then begin
            Stack.push (Gr.normalize_edge u w) edge_stack;
            if disc.(w) < low.(u) then low.(u) <- disc.(w)
          end
        end
        else begin
          ignore (Stack.pop frames);
          if parent >= 0 then begin
            if low.(u) < low.(parent) then low.(parent) <- low.(u);
            if low.(u) >= disc.(parent) then begin
              if parent <> start then is_cut.(parent) <- true;
              pop_component parent u
            end
          end
        end
      done;
      if !root_children >= 2 then is_cut.(start) <- true
    end
  done;
  let k = !n_components in
  (* Flat CSR membership: counting sort of the edges by component id. *)
  let comp_edge_offsets = Array.make (k + 1) 0 in
  Array.iter
    (fun c -> comp_edge_offsets.(c + 1) <- comp_edge_offsets.(c + 1) + 1)
    comp_of_edge;
  for c = 1 to k do
    comp_edge_offsets.(c) <- comp_edge_offsets.(c) + comp_edge_offsets.(c - 1)
  done;
  let comp_edge_list = Array.make m (-1) in
  let fill = Array.copy comp_edge_offsets in
  for e = 0 to m - 1 do
    let c = comp_of_edge.(e) in
    comp_edge_list.(fill.(c)) <- e;
    fill.(c) <- fill.(c) + 1
  done;
  (* Vertex -> components, duplicate-free, via a last-seen-vertex stamp
     per component (each edge is scanned from both endpoints). *)
  let stamp = Array.make (max 1 k) (-1) in
  let vertex_comp_offsets = Array.make (n + 1) 0 in
  let count_by_vertex pass_list =
    Array.fill stamp 0 (max 1 k) (-1);
    for v = 0 to n - 1 do
      Gr.iter_neighbors g v (fun u ->
          let c = comp_of_edge.(Gr.edge_index g v u) in
          if stamp.(c) <> v then begin
            stamp.(c) <- v;
            match pass_list with
            | None ->
                vertex_comp_offsets.(v + 1) <- vertex_comp_offsets.(v + 1) + 1
            | Some (fill, list) ->
                list.(fill.(v)) <- c;
                fill.(v) <- fill.(v) + 1
          end)
    done
  in
  count_by_vertex None;
  for v = 1 to n do
    vertex_comp_offsets.(v) <- vertex_comp_offsets.(v) + vertex_comp_offsets.(v - 1)
  done;
  let vertex_comp_list = Array.make vertex_comp_offsets.(n) (-1) in
  let vfill = Array.copy vertex_comp_offsets in
  count_by_vertex (Some (vfill, vertex_comp_list));
  (* Component -> vertices: invert the vertex -> component table. *)
  let comp_vertex_offsets = Array.make (k + 1) 0 in
  Array.iter
    (fun c -> comp_vertex_offsets.(c + 1) <- comp_vertex_offsets.(c + 1) + 1)
    vertex_comp_list;
  for c = 1 to k do
    comp_vertex_offsets.(c) <- comp_vertex_offsets.(c) + comp_vertex_offsets.(c - 1)
  done;
  let comp_vertex_list = Array.make vertex_comp_offsets.(n) (-1) in
  let cfill = Array.copy comp_vertex_offsets in
  for v = 0 to n - 1 do
    for i = vertex_comp_offsets.(v) to vertex_comp_offsets.(v + 1) - 1 do
      let c = vertex_comp_list.(i) in
      comp_vertex_list.(cfill.(c)) <- v;
      cfill.(c) <- cfill.(c) + 1
    done
  done;
  {
    g;
    n_components = k;
    comp_of_edge;
    comp_edge_offsets;
    comp_edge_list;
    comp_vertex_offsets;
    comp_vertex_list;
    vertex_comp_offsets;
    vertex_comp_list;
    is_cut;
  }

let n_component_edges t c = t.comp_edge_offsets.(c + 1) - t.comp_edge_offsets.(c)

let iter_component_edges t c f =
  for i = t.comp_edge_offsets.(c) to t.comp_edge_offsets.(c + 1) - 1 do
    f t.comp_edge_list.(i)
  done

let component_edges t c =
  let out = ref [] in
  for i = t.comp_edge_offsets.(c + 1) - 1 downto t.comp_edge_offsets.(c) do
    out := Gr.edge_of_index t.g t.comp_edge_list.(i) :: !out
  done;
  !out

let iter_component_vertices t c f =
  for i = t.comp_vertex_offsets.(c) to t.comp_vertex_offsets.(c + 1) - 1 do
    f t.comp_vertex_list.(i)
  done

let component_vertices t c =
  let out = ref [] in
  for i = t.comp_vertex_offsets.(c + 1) - 1 downto t.comp_vertex_offsets.(c) do
    out := t.comp_vertex_list.(i) :: !out
  done;
  !out

let n_comps_of_vertex t v = t.vertex_comp_offsets.(v + 1) - t.vertex_comp_offsets.(v)

let comps_of_vertex t v =
  let out = ref [] in
  for i = t.vertex_comp_offsets.(v + 1) - 1 downto t.vertex_comp_offsets.(v) do
    out := t.vertex_comp_list.(i) :: !out
  done;
  !out

let paper_component_id t c =
  if n_component_edges t c = 0 then
    invalid_arg "Bicon.paper_component_id: empty component";
  let best = ref (Gr.edge_of_index t.g t.comp_edge_list.(t.comp_edge_offsets.(c))) in
  iter_component_edges t c (fun e ->
      let id = Gr.edge_of_index t.g e in
      if id < !best then best := id);
  !best

type block_cut_tree = {
  block_node : int array;
  cut_node : (int * int) list;
  tree : Gr.t;
}

let block_cut_tree _g t =
  let block_node = Array.init t.n_components (fun c -> c) in
  let next = ref t.n_components in
  let cut_node = ref [] in
  let edges = ref [] in
  Array.iteri
    (fun v cut ->
      if cut then begin
        let node = !next in
        incr next;
        cut_node := (v, node) :: !cut_node;
        for i = t.vertex_comp_offsets.(v) to t.vertex_comp_offsets.(v + 1) - 1 do
          edges := (node, block_node.(t.vertex_comp_list.(i))) :: !edges
        done
      end)
    t.is_cut;
  { block_node; cut_node = List.rev !cut_node; tree = Gr.of_edges ~n:!next !edges }
