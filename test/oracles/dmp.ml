type result = Planarity.result = Planar of Rotation.t | Nonplanar

exception Reject

exception
  No_progress of {
    fragments : int;
    faces : int;
    embedded_edges : int;
    total_edges : int;
  }

(* A face of the partial embedding: a directed simple cycle of vertices.
   The embedded subgraph stays biconnected throughout (cycle + successive
   paths between embedded vertices), so boundaries are simple cycles. *)
type face = { cyc : int array; vset : (int, unit) Hashtbl.t }

let make_face cyc =
  let vset = Hashtbl.create (Array.length cyc) in
  Array.iter (fun v -> Hashtbl.replace vset v ()) cyc;
  { cyc; vset }

(* Find a cycle in a biconnected graph (n >= 3) by DFS: the first back edge
   closes a cycle with the tree path. Iterative to survive deep graphs. *)
let find_cycle g =
  let n = Gr.n g in
  let parent = Array.make n (-1) in
  let state = Array.make n 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let found = ref None in
  (* Neighbors in increasing order: u's CSR slice. *)
  let off = Gr.dart_offsets g and src = Gr.dart_sources g in
  let stack = Stack.create () in
  state.(0) <- 1;
  Stack.push (0, ref 0) stack;
  while !found = None && not (Stack.is_empty stack) do
    let (u, next) = Stack.top stack in
    if off.(u) + !next < off.(u + 1) then begin
      let w = src.(off.(u) + !next) in
      incr next;
      if state.(w) = 0 then begin
        parent.(w) <- u;
        state.(w) <- 1;
        Stack.push (w, ref 0) stack
      end
      else if state.(w) = 1 && w <> parent.(u) then begin
        let rec up v acc = if v = w then v :: acc else up parent.(v) (v :: acc) in
        found := Some (up u [])
      end
    end
    else begin
      state.(u) <- 2;
      ignore (Stack.pop stack)
    end
  done;
  match !found with
  | Some c -> Array.of_list c
  | None -> invalid_arg "Dmp.find_cycle: acyclic graph"

(* A fragment relative to the embedded subgraph: either a chord (a single
   unembedded edge between embedded vertices) or a connected component of
   unembedded vertices together with its attachment vertices.

   Fragments are persistent across rounds: embedding a chord leaves all
   other fragments untouched, and embedding a path through a component
   fragment only that fragment is re-split — no global recomputation.
   Admissibility (which faces contain all attachments) is tracked lazily:
   each fragment remembers up to two admissible faces, and is rescanned
   only when one of them is destroyed by a face split (a watcher list per
   face triggers the rescan). *)
type fragment = {
  fid : int;
  attachments : int list;
  fvertices : int list;  (** unembedded component; [] for a chord. *)
  fchord : (int * int) option;
  mutable tracked : int list;  (** <= 2 alive admissible face ids. *)
  mutable falive : bool;
  mutable queued : bool;  (** already waiting for a rescan. *)
}

(* Split face [f] along the path [p] = [a; ...; b], where a and b lie on
   the face boundary. Returns the two replacement faces. *)
let split_face f p =
  let cyc = f.cyc in
  let k = Array.length cyc in
  let a = List.hd p in
  let b = List.nth p (List.length p - 1) in
  let pos v =
    let r = ref (-1) in
    Array.iteri (fun i x -> if x = v then r := i) cyc;
    if !r < 0 then invalid_arg "Dmp.split_face: endpoint not on face";
    !r
  in
  let ia = pos a and ib = pos b in
  let arc i j =
    let len = ((j - i + k) mod k) + 1 in
    Array.init len (fun t -> cyc.((i + t) mod k))
  in
  let interior = List.tl (List.rev (List.tl (List.rev p))) in
  let f1 = Array.append (arc ia ib) (Array.of_list (List.rev interior)) in
  let f2 = Array.append (arc ib ia) (Array.of_list interior) in
  (make_face f1, make_face f2)

let embed_biconnected g =
  let n = Gr.n g and m = Gr.m g in
  if m = 1 then begin
    let (u, v) = Gr.edge_of_index g 0 in
    let rot = Array.make n [||] in
    rot.(u) <- [| v |];
    rot.(v) <- [| u |];
    rot
  end
  else begin
    if n >= 3 && m > (3 * n) - 6 then raise Reject;
    let embedded_v = Array.make n false in
    let embedded_e = Array.make m false in
    (* ---- face store ---- *)
    let faces_alive : (int, face) Hashtbl.t = Hashtbl.create 64 in
    let by_vertex : (int, int list) Hashtbl.t = Hashtbl.create 64 in
    (* Number of alive faces incident to each vertex, so fragments can be
       scanned from their least-crowded attachment (a high-degree vertex
       like the apex of the constrained embedder can sit on Θ(deg) faces,
       and anchoring scans there would be quadratic). *)
    let face_count_at = Array.make n 0 in
    let next_face = ref 0 in
    let add_face f =
      let id = !next_face in
      incr next_face;
      Hashtbl.replace faces_alive id f;
      Array.iter
        (fun v ->
          face_count_at.(v) <- face_count_at.(v) + 1;
          let prev = try Hashtbl.find by_vertex v with Not_found -> [] in
          Hashtbl.replace by_vertex v (id :: prev))
        f.cyc;
      id
    in
    let faces_at v =
      let ids = try Hashtbl.find by_vertex v with Not_found -> [] in
      let fresh = List.filter (Hashtbl.mem faces_alive) ids in
      if List.length fresh < List.length ids then
        Hashtbl.replace by_vertex v fresh;
      fresh
    in
    (* ---- fragment store ---- *)
    let frag_tbl : (int, fragment) Hashtbl.t = Hashtbl.create 64 in
    let next_frag = ref 0 in
    let alive_frags = Stack.create () in
    let ones = Stack.create () in
    let need_scan = Stack.create () in
    let watchers : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
    let n_alive = ref 0 in
    let add_fragment ~attachments ~fvertices ~fchord =
      let fid = !next_frag in
      incr next_frag;
      if attachments = [] then raise Reject;
      let f =
        {
          fid;
          attachments;
          fvertices;
          fchord;
          tracked = [];
          falive = true;
          queued = true;
        }
      in
      Hashtbl.replace frag_tbl fid f;
      Stack.push fid alive_frags;
      Stack.push fid need_scan;
      incr n_alive
    in
    let kill_fragment f =
      if f.falive then begin
        f.falive <- false;
        decr n_alive
      end
    in
    (* Registration is deduplicated: a fragment re-scanned many times while
       a popular face stays alive must not pile up watcher entries (that
       cascade was quadratic). *)
    let watch_set : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
    let watch face_id fid =
      if not (Hashtbl.mem watch_set (face_id, fid)) then begin
        Hashtbl.replace watch_set (face_id, fid) ();
        match Hashtbl.find_opt watchers face_id with
        | Some l -> l := fid :: !l
        | None -> Hashtbl.replace watchers face_id (ref [ fid ])
      end
    in
    let request_scan f =
      if f.falive && not f.queued then begin
        f.queued <- true;
        Stack.push f.fid need_scan
      end
    in
    (* Rescan a fragment's admissible faces (all candidate faces contain
       its anchor attachment). Raises Reject when none qualifies. *)
    let scan f =
      f.queued <- false;
      if f.falive then begin
        (* Anchor at the attachment incident to the fewest alive faces. *)
        let a0 =
          match f.attachments with
          | [] -> raise Reject
          | a :: rest ->
              List.fold_left
                (fun best a ->
                  if face_count_at.(a) < face_count_at.(best) then a else best)
                a rest
        in
        let found = ref [] in
        let count = ref 0 in
        List.iter
          (fun id ->
            if !count < 2 then begin
              let face = Hashtbl.find faces_alive id in
              if List.for_all (fun a -> Hashtbl.mem face.vset a) f.attachments
              then begin
                incr count;
                found := id :: !found
              end
            end)
          (faces_at a0);
        if !count = 0 then raise Reject;
        f.tracked <- !found;
        List.iter (fun id -> watch id f.fid) !found;
        if !count = 1 then Stack.push f.fid ones
      end
    in
    let drain_scans () =
      while not (Stack.is_empty need_scan) do
        let fid = Stack.pop need_scan in
        scan (Hashtbl.find frag_tbl fid)
      done
    in
    let kill_face face_id =
      (match Hashtbl.find_opt faces_alive face_id with
      | Some f ->
          Array.iter
            (fun v -> face_count_at.(v) <- face_count_at.(v) - 1)
            f.cyc
      | None -> ());
      Hashtbl.remove faces_alive face_id;
      (match Hashtbl.find_opt watchers face_id with
      | Some l ->
          List.iter
            (fun fid ->
              Hashtbl.remove watch_set (face_id, fid);
              request_scan (Hashtbl.find frag_tbl fid))
            !l;
          Hashtbl.remove watchers face_id
      | None -> ())
    in
    (* Choose the next fragment: one with a unique admissible face if any
       exists (after draining rescans this information is exact), else an
       arbitrary alive fragment. *)
    let choose () =
      drain_scans ();
      let result = ref None in
      while !result = None && not (Stack.is_empty ones) do
        let fid = Stack.pop ones in
        let f = Hashtbl.find frag_tbl fid in
        if
          f.falive
          && List.length f.tracked = 1
          && List.for_all (Hashtbl.mem faces_alive) f.tracked
        then result := Some f
      done;
      while !result = None do
        if Stack.is_empty alive_frags then raise Reject;
        let fid = Stack.pop alive_frags in
        let f = Hashtbl.find frag_tbl fid in
        if f.falive then begin
          (* Push back: the fragment survives until consumed. *)
          Stack.push fid alive_frags;
          result := Some f
        end
      done;
      match !result with Some f -> f | None -> assert false
    in
    (* Path through a component fragment from its anchor to another
       attachment, interior confined to the fragment's own vertices. *)
    let fragment_path f =
      match f.fchord with
      | Some (u, v) -> [ u; v ]
      | None ->
          let in_frag = Hashtbl.create (List.length f.fvertices) in
          List.iter (fun v -> Hashtbl.replace in_frag v ()) f.fvertices;
          let a = List.hd f.attachments in
          let prev = Hashtbl.create 16 in
          let queue = Queue.create () in
          let target = ref (-1) in
          Array.iter
            (fun w ->
              if Hashtbl.mem in_frag w && not (Hashtbl.mem prev w) then begin
                Hashtbl.replace prev w a;
                Queue.add w queue
              end)
            (Gr.neighbors g a);
          while !target < 0 && not (Queue.is_empty queue) do
            let v = Queue.pop queue in
            let nbrs = Gr.neighbors g v in
            let i = ref 0 in
            while !target < 0 && !i < Array.length nbrs do
              let w = nbrs.(!i) in
              incr i;
              if embedded_v.(w) then begin
                if w <> a then begin
                  Hashtbl.replace prev w v;
                  target := w
                end
              end
              else if Hashtbl.mem in_frag w && not (Hashtbl.mem prev w) then begin
                Hashtbl.replace prev w v;
                Queue.add w queue
              end
            done
          done;
          if !target < 0 then
            invalid_arg "Dmp: fragment with a single attachment (not biconnected?)";
          let rec back v acc =
            if v = a then v :: acc else back (Hashtbl.find prev v) (v :: acc)
          in
          back !target []
    in
    (* Discover the fragments inside a vertex set (all unembedded):
       connected components with their embedded attachments. *)
    let add_component_fragments vertex_pool =
      let pool = Hashtbl.create (List.length vertex_pool) in
      List.iter
        (fun v -> if not embedded_v.(v) then Hashtbl.replace pool v ())
        vertex_pool;
      let seen = Hashtbl.create (Hashtbl.length pool) in
      List.iter
        (fun s ->
          if Hashtbl.mem pool s && not (Hashtbl.mem seen s) then begin
            let comp = ref [] in
            let attach = Hashtbl.create 8 in
            let queue = Queue.create () in
            Hashtbl.replace seen s ();
            Queue.add s queue;
            while not (Queue.is_empty queue) do
              let v = Queue.pop queue in
              comp := v :: !comp;
              Array.iter
                (fun w ->
                  if embedded_v.(w) then Hashtbl.replace attach w ()
                  else if Hashtbl.mem pool w && not (Hashtbl.mem seen w) then begin
                    Hashtbl.replace seen w ();
                    Queue.add w queue
                  end)
                (Gr.neighbors g v)
            done;
            let attachments = Hashtbl.fold (fun v () acc -> v :: acc) attach [] in
            add_fragment ~attachments ~fvertices:!comp ~fchord:None
          end)
        vertex_pool
    in
    let add_chords_around newly_embedded =
      let seen_edges = Hashtbl.create 8 in
      List.iter
        (fun x ->
          Array.iter
            (fun y ->
              if embedded_v.(y) then begin
                let e = Gr.edge_index g x y in
                if (not embedded_e.(e)) && not (Hashtbl.mem seen_edges e) then begin
                  Hashtbl.replace seen_edges e ();
                  add_fragment ~attachments:[ x; y ] ~fvertices:[]
                    ~fchord:(Some (x, y))
                end
              end)
            (Gr.neighbors g x))
        newly_embedded
    in
    let embed_path p =
      let rec go = function
        | u :: (v :: _ as rest) ->
            embedded_e.(Gr.edge_index g u v) <- true;
            go rest
        | [ _ ] | [] -> ()
      in
      List.iter (fun v -> embedded_v.(v) <- true) p;
      go p
    in
    (* ---- initialization: a cycle and the fragments around it ---- *)
    let cycle = find_cycle g in
    Array.iter (fun v -> embedded_v.(v) <- true) cycle;
    let k = Array.length cycle in
    for i = 0 to k - 1 do
      embedded_e.(Gr.edge_index g cycle.(i) cycle.((i + 1) mod k)) <- true
    done;
    ignore (add_face (make_face cycle));
    ignore
      (add_face (make_face (Array.of_list (List.rev (Array.to_list cycle)))));
    add_component_fragments (List.init n (fun v -> v));
    add_chords_around (Array.to_list cycle);
    let remaining = ref (m - k) in
    let guard = ref 0 in
    while !remaining > 0 do
      incr guard;
      if !guard > (4 * m) + 16 then
        raise
          (No_progress
             {
               fragments = !n_alive;
               faces = Hashtbl.length faces_alive;
               embedded_edges = m - !remaining;
               total_edges = m;
             });
      let frag = choose () in
      let face_id =
        match frag.tracked with
        | id :: _ -> id
        | [] -> assert false
      in
      let face = Hashtbl.find faces_alive face_id in
      let p = fragment_path frag in
      embed_path p;
      remaining := !remaining - (List.length p - 1);
      kill_fragment frag;
      (* Face bookkeeping: the chosen face dies, its watchers rescan. *)
      let (f1, f2) = split_face face p in
      kill_face face_id;
      ignore (add_face f1);
      ignore (add_face f2);
      (* Fragment bookkeeping: only the consumed fragment's area changes. *)
      (match frag.fchord with
      | Some _ -> ()
      | None ->
          let interior =
            match p with
            | _ :: rest -> List.filter (fun v -> List.mem v frag.fvertices) rest
            | [] -> []
          in
          add_component_fragments frag.fvertices;
          add_chords_around interior)
    done;
    (* All edges embedded: no fragment can survive. *)
    assert (!n_alive = 0);
    (* Extract the rotation system: every consecutive u -> v -> w on a face
       defines succ_v(u) = w; following succ from any neighbor enumerates
       the cyclic order at v. *)
    let succ = Hashtbl.create (2 * m) in
    Hashtbl.iter
      (fun _id f ->
        let c = f.cyc in
        let k = Array.length c in
        for i = 0 to k - 1 do
          let u = c.(i) and v = c.((i + 1) mod k) and w = c.((i + 2) mod k) in
          Hashtbl.replace succ (v, u) w
        done)
      faces_alive;
    Array.init n (fun v ->
        let deg = Gr.degree g v in
        if deg = 0 then [||]
        else begin
          let first = (Gr.neighbors g v).(0) in
          let rot = Array.make deg first in
          for i = 1 to deg - 1 do
            rot.(i) <- Hashtbl.find succ (v, rot.(i - 1))
          done;
          assert (Hashtbl.find succ (v, rot.(deg - 1)) = first);
          rot
        end)
  end

let embed g =
  let n = Gr.n g in
  try
    let rot = Array.make n [||] in
    let have = Array.make n 0 in
    let dec = Bicon.decompose g in
    for v = 0 to n - 1 do
      rot.(v) <- Array.make (Gr.degree g v) (-1)
    done;
    for c = 0 to dec.Bicon.n_components - 1 do
      let vs = Bicon.component_vertices dec c in
      let (h, old_of_new, _new_of_old) = Gr.induced g vs in
      let sub_rot = embed_biconnected h in
      (* Concatenate this block's rotation at each of its vertices after
         whatever previous blocks contributed: blocks sharing a vertex can
         always be nested planarly into a corner of each other. *)
      Array.iteri
        (fun i r ->
          let v = old_of_new.(i) in
          Array.iter
            (fun w_new ->
              rot.(v).(have.(v)) <- old_of_new.(w_new);
              have.(v) <- have.(v) + 1)
            r)
        sub_rot
    done;
    for v = 0 to n - 1 do
      assert (have.(v) = Gr.degree g v)
    done;
    Planar (Rotation.make g rot)
  with Reject -> Nonplanar

let is_planar g = match embed g with Planar _ -> true | Nonplanar -> false

let embed_exn g =
  match embed g with
  | Planar r -> r
  | Nonplanar -> invalid_arg "Dmp.embed_exn: graph is not planar"
