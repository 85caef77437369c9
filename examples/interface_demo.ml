(* Figures 1-4 and 6 of the paper, as runnable constructions.

   The paper's Section 3 machinery, on a concrete part:
   - Figure 1: a part of a planar network with its half-embedded edges on
     one face (the apex construction realizes the contraction of G \ P);
   - Figure 2/4(a,b): the biconnected-component decomposition and its
     block-cut tree;
   - Figure 4(c,d): the two degrees of freedom — flipping a component,
     permuting components around a cut vertex — as PQ-tree operations;
   - Figure 6: a safe and an unsafe pairwise merge.

     dune exec examples/interface_demo.exe *)

let pp_leaf ppf (u, v) = Format.fprintf ppf "%d~%d" u v

let () =
  (* The network: two triangles sharing a cut vertex (a "bowtie" part),
     surrounded by outside nodes it half-connects to. Part vertices are
     0..4 with cut vertex 2; outside vertices 5..9. *)
  let part = [ 0; 1; 2; 3; 4 ] in
  let half = [ (0, 5); (1, 6); (3, 7); (4, 8) ] in
  let g =
    Gr.of_edges ~n:10
      ([
         (0, 1); (1, 2); (0, 2);  (* left triangle *)
         (2, 3); (3, 4); (2, 4);  (* right triangle *)
         (* the outside is connected (safety property, Def 3.1) *)
         (5, 9); (6, 9); (7, 9); (8, 9);
       ]
      @ half)
  in
  Format.printf "network: n=%d m=%d; part P = {0,1,2,3,4} (a bowtie),@ %d half-embedded edges@.@."
    (Gr.n g) (Gr.m g) (List.length half);

  (* Figure 4(a,b): biconnected decomposition and block-cut tree. *)
  let (sub, old_of_new, new_of_old) = Gr.induced g part in
  ignore new_of_old;
  let dec = Bicon.decompose sub in
  Format.printf "biconnected components of P (Figure 4a):@.";
  for c = 0 to dec.Bicon.n_components - 1 do
    Format.printf "  component %d: edges %s@." c
      (String.concat " "
         (List.map
            (fun (a, b) ->
              Printf.sprintf "{%d,%d}" old_of_new.(a) old_of_new.(b))
            (Bicon.component_edges dec c)))
  done;
  let cuts =
    List.filteri (fun v _ -> dec.Bicon.is_cut.(v)) (Array.to_list old_of_new)
  in
  ignore cuts;
  Array.iteri
    (fun v cut ->
      if cut then Format.printf "  cut vertex: %d@." old_of_new.(v))
    dec.Bicon.is_cut;
  let bct = Bicon.block_cut_tree sub dec in
  Format.printf "  block-cut tree (Figure 4b): %d nodes, %d edges@.@."
    (Gr.n bct.Bicon.tree) (Gr.m bct.Bicon.tree);

  (* Figure 1: the partial embedding with all half-embedded edges on one
     face, via the apex construction. *)
  let ws = Constrained.workspace g in
  Constrained.load ws ~part ~half;
  if not (Constrained.embed_loaded ws) then
    failwith "safe part of a planar graph must embed";
  Format.printf
    "partial embedding of P (Figure 1): cyclic order of half-embedded@ \
     edges around the shared face:@.  %s@.@."
    (String.concat " "
       (List.map (fun (u, v) -> Printf.sprintf "%d~%d" u v)
          (Constrained.outer ws)));

  (* Observation 3.2: the interface as a PQ-tree. *)
  match Iface.of_part g ~part ~half with
  | None -> failwith "interface construction must succeed"
  | Some t ->
      Format.printf "interface PQ-tree (Observation 3.2; [..] = Q rigid up to \
                     flip, (..) = P free):@.  %a@.@."
        (Pqtree.pp pp_leaf) t;
      let show what t' =
        Format.printf "%-42s %s@." what
          (String.concat " "
             (List.map (fun (u, v) -> Printf.sprintf "%d~%d" u v)
                (Pqtree.leaves t')))
      in
      show "original leaf order:" t;
      (* Figure 4(c): flip a biconnected component (the first Q child). *)
      (match t with
      | Pqtree.P children ->
          List.iteri
            (fun i c ->
              match c with
              | Pqtree.Q _ ->
                  show
                    (Printf.sprintf "after flipping component #%d (Fig 4c):" i)
                    (Pqtree.flip t ~path:[ i ])
              | Pqtree.Leaf _ | Pqtree.P _ -> ())
            children;
          (* Figure 4(d): permute the components around the cut vertex. *)
          let k = List.length children in
          if k >= 2 then begin
            let perm = Array.init k (fun i -> (i + 1) mod k) in
            show "after permuting around the cut vertex (Fig 4d):"
              (Pqtree.permute t ~path:[] ~perm)
          end
      | Pqtree.Q _ | Pqtree.Leaf _ -> ());
      Format.printf "@.";
      (* Count the whole space of realizable orders. *)
      Format.printf "this interface realizes %d distinct edge orders@.@."
        (Pqtree.count_orders t);

      (* Figure 6: a safe and an unsafe merge, on a cycle partition. *)
      let c = Gen.cycle 8 in
      let parts = [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ]; [ 6; 7 ] ] in
      Format.printf "Figure 6 (safety of merges) on an 8-cycle partitioned@ \
                     into four arcs:@.";
      Format.printf "  merge arcs {0,1} and {2,3} (adjacent): safe? %b@."
        (Partition.merge_is_safe c parts 0 1);
      (* Merging the two *opposite* arcs {0,1} and {4,5} leaves {2,3} and
         {6,7} separated once the merged part is ever non-trivial; on the
         pure cycle the union is disconnected, which the safety check also
         rejects. *)
      Format.printf "  merge arcs {0,1} and {4,5} (opposite): safe? %b@."
        (Partition.merge_is_safe c parts 0 2)
