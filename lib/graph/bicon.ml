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

(* Iterative Tarjan lowpoint algorithm with an explicit edge stack, on
   flat int arrays. A DFS frame is one slot of [fv] (the vertex), [fe]
   (the dense id of its tree edge, -1 at a root) and [fnext] (the next
   slot of its CSR slice to examine), so deep graphs never overflow the
   OCaml stack. Edges are pushed as dense ids read from [Gr.dart_edges],
   and a component pops down to the id of the tree edge that closed it. *)
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
  let off = Gr.dart_offsets g
  and src = Gr.dart_sources g
  and dedge = Gr.dart_edges g in
  let fv = Array.make (max 1 n) 0
  and fe = Array.make (max 1 n) 0
  and fnext = Array.make (max 1 n) 0 in
  let estack = Array.make (max 1 m) 0 in
  let esp = ref 0 in
  for start = 0 to n - 1 do
    if disc.(start) < 0 then begin
      let root_children = ref 0 in
      disc.(start) <- !time;
      low.(start) <- !time;
      incr time;
      fv.(0) <- start;
      fe.(0) <- -1;
      fnext.(0) <- off.(start);
      let sp = ref 1 in
      while !sp > 0 do
        let top = !sp - 1 in
        let u = fv.(top) in
        let i = fnext.(top) in
        if i < off.(u + 1) then begin
          let w = src.(i) in
          fnext.(top) <- i + 1;
          if disc.(w) < 0 then begin
            estack.(!esp) <- dedge.(i);
            incr esp;
            if u = start then incr root_children;
            disc.(w) <- !time;
            low.(w) <- !time;
            incr time;
            fv.(!sp) <- w;
            fe.(!sp) <- dedge.(i);
            fnext.(!sp) <- off.(w);
            incr sp
          end
          else if (top = 0 || w <> fv.(top - 1)) && disc.(w) < disc.(u) then begin
            estack.(!esp) <- dedge.(i);
            incr esp;
            if disc.(w) < low.(u) then low.(u) <- disc.(w)
          end
        end
        else begin
          sp := top;
          if top > 0 then begin
            let parent = fv.(top - 1) in
            if low.(u) < low.(parent) then low.(parent) <- low.(u);
            if low.(u) >= disc.(parent) then begin
              if parent <> start then is_cut.(parent) <- true;
              (* Pop edges down to and including the tree edge
                 parent - u; they form one component. *)
              let tree_edge = fe.(top) in
              let e = ref (-1) in
              while !e <> tree_edge do
                decr esp;
                e := estack.(!esp);
                comp_of_edge.(!e) <- !n_components
              done;
              incr n_components
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
     per component (each edge is scanned from both endpoints): one pass
     counts, the second fills. *)
  let stamp = Array.make (max 1 k) (-1) in
  let vertex_comp_offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    for d = off.(v) to off.(v + 1) - 1 do
      let c = comp_of_edge.(dedge.(d)) in
      if stamp.(c) <> v then begin
        stamp.(c) <- v;
        vertex_comp_offsets.(v + 1) <- vertex_comp_offsets.(v + 1) + 1
      end
    done
  done;
  for v = 1 to n do
    vertex_comp_offsets.(v) <- vertex_comp_offsets.(v) + vertex_comp_offsets.(v - 1)
  done;
  let vertex_comp_list = Array.make vertex_comp_offsets.(n) (-1) in
  Array.fill stamp 0 (max 1 k) (-1);
  for v = 0 to n - 1 do
    let fill = ref vertex_comp_offsets.(v) in
    for d = off.(v) to off.(v + 1) - 1 do
      let c = comp_of_edge.(dedge.(d)) in
      if stamp.(c) <> v then begin
        stamp.(c) <- v;
        vertex_comp_list.(!fill) <- c;
        incr fill
      end
    done
  done;
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
