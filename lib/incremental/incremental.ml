(* Dynamic maintenance of a planar rotation system under edge churn.

   The maintained state is a mutable half-edge store over the fixed vertex
   set [0 .. n-1]: edge slot [e] owns darts [2e] (u -> v) and [2e+1]
   (v -> u); [rnext]/[rprev] link each vertex's out-darts into its cyclic
   clockwise ring. The face-routing permutation of Rotation is implicit:
   [face_next d = rnext.(d lxor 1)], so face walks never materialize
   anything. The invariant held between every two operations is that the
   rings form a genus-0 rotation system of the current live edge set.

   Updates:
   - insert, fast path: if the endpoints share a face of the current
     embedding, the new darts are spliced into that face's two corners in
     O(total length of the faces at the smaller-degree endpoint) — the
     kernel never runs.
   - insert, slow path: otherwise the affected biconnected components
     (everything along one endpoint-to-endpoint path, by the maintained
     conservative component records) form the scope. Regions of the
     scope around the path go through the planarity kernel first, the
     rest of the scope standing in as wheels of its boundary; then, if
     no region was accepted, the whole scope. On acceptance the fresh
     rotation of the re-embedded vertices is merged back into the global
     rings in place (non-scope darts keep their relative cyclic order,
     the scope's darts take the kernel's); on rejection, which only the
     whole-scope run decides, the state is untouched.
   - delete: O(degree) unsplicing — removing an edge from a plane
     embedding merges its two sides and stays plane, so no kernel run is
     needed for correctness. What deletion does break is the component
     records: union-find cannot split, so records go stale-conservative
     (a stored component is always a union of true biconnected
     components) and are re-tightened by a scoped Tarjan re-decomposition
     once a record has shed as many edges as it retains (amortized O(1)
     per delete).

   Component records live in a union-find-with-relations keyed by slots;
   each root's relation is an interval edge-set of its live slots plus a
   staleness counter. Connectivity is tracked by a merge-only vertex
   union-find, equally conservative: "different components" is always
   true, "same component" is re-checked by the slow path's BFS (whose
   failure downgrades the insert to a cheap cross-component link). *)

type payload = { edges : Intervalset.t; mutable scoured : int }

type stats = {
  mutable fast : int;
  mutable linked : int;
  mutable reembedded : int;
  mutable rejected : int;
  mutable duplicates : int;
  mutable deletes : int;
  mutable missing : int;
  mutable rescopes : int;
  mutable regional : int;
  mutable kernel_edges : int;
  mutable face_steps : int;
}

type update = Fast | Linked | Reembedded of int | Rejected | Duplicate

type t = {
  n : int;
  mutable cap : int;  (* edge slots allocated *)
  mutable dst : int array;  (* 2*cap: head of each dart; -1 = free slot *)
  mutable rnext : int array;  (* 2*cap: ring successor around the source *)
  mutable rprev : int array;
  first_out : int array;  (* n: one out-dart per vertex, or -1 *)
  deg : int array;
  mutable live : int;  (* live edges *)
  edge_tbl : (int, int) Hashtbl.t;  (* min*n+max -> slot *)
  mutable free : int list;
  mutable next_slot : int;
  comps : payload Relations.t;
  mutable slot_comp : int array;  (* cap: Relations node per slot *)
  mutable rmark : int array;  (* per Relations node: slow insert marking it *)
  conn : Unionfind.t;
  (* scratch (stamped, reused across operations) *)
  mutable dart_stamp : int array;  (* 2*cap *)
  mutable stamp : int;
  vmark : int array;  (* n *)
  vdata : int array;  (* n: BFS parent dart / local vertex id *)
  mutable vstamp : int;
  queue : int array;  (* n *)
  (* slow-path scratch, reused across re-embeds *)
  lr : Lr.workspace;  (* the scope's pairs, CSR, kernel state and ring *)
  roots : (int, unit) Hashtbl.t;  (* component roots along the u-v path *)
  mutable scope : int array;  (* the scope's slots, when listed *)
  local : int array;  (* n: global vertex of each local id *)
  others : int array;  (* n: a ring's non-scope darts during merge-back *)
  cmark : int array;  (* n: stamp of the region attempt that met a vertex *)
  mutable bd : int array;  (* boundary darts of the wheels, in walk order *)
  mutable wheels : int array;  (* start of each wheel's run in [bd] *)
  stats : stats;
}

let m t = t.live
let stats t = t.stats

let fresh_stats () =
  {
    fast = 0;
    linked = 0;
    reembedded = 0;
    rejected = 0;
    duplicates = 0;
    deletes = 0;
    missing = 0;
    rescopes = 0;
    regional = 0;
    kernel_edges = 0;
    face_steps = 0;
  }

let key t u v = if u < v then (u * t.n) + v else (v * t.n) + u
let mem t u v = u <> v && Hashtbl.mem t.edge_tbl (key t u v)

(* The dart w -> x of the existing edge {w, x}. *)
let dart_to t w x =
  let e = Hashtbl.find t.edge_tbl (key t w x) in
  if t.dst.(2 * e) = x then 2 * e else (2 * e) + 1

let dart_src t d = t.dst.(d lxor 1)
let face_next t d = t.rnext.(d lxor 1)

(* --- slot allocation ------------------------------------------------- *)

let grow t =
  let cap = 2 * t.cap in
  let dst = Array.make (2 * cap) (-1)
  and rnext = Array.make (2 * cap) (-1)
  and rprev = Array.make (2 * cap) (-1)
  and dart_stamp = Array.make (2 * cap) 0
  and slot_comp = Array.make cap (-1) in
  Array.blit t.dst 0 dst 0 (2 * t.cap);
  Array.blit t.rnext 0 rnext 0 (2 * t.cap);
  Array.blit t.rprev 0 rprev 0 (2 * t.cap);
  Array.blit t.dart_stamp 0 dart_stamp 0 (2 * t.cap);
  Array.blit t.slot_comp 0 slot_comp 0 t.cap;
  t.dst <- dst;
  t.rnext <- rnext;
  t.rprev <- rprev;
  t.dart_stamp <- dart_stamp;
  t.slot_comp <- slot_comp;
  t.cap <- cap

let alloc_slot t u v =
  let e =
    match t.free with
    | e :: rest ->
        t.free <- rest;
        e
    | [] ->
        if t.next_slot >= t.cap then grow t;
        let e = t.next_slot in
        t.next_slot <- e + 1;
        e
  in
  t.dst.(2 * e) <- v;
  t.dst.((2 * e) + 1) <- u;
  Hashtbl.replace t.edge_tbl (key t u v) e;
  t.deg.(u) <- t.deg.(u) + 1;
  t.deg.(v) <- t.deg.(v) + 1;
  t.live <- t.live + 1;
  e

let free_slot t e =
  let u = t.dst.((2 * e) + 1) and v = t.dst.(2 * e) in
  Hashtbl.remove t.edge_tbl (key t u v);
  t.dst.(2 * e) <- -1;
  t.dst.((2 * e) + 1) <- -1;
  t.deg.(u) <- t.deg.(u) - 1;
  t.deg.(v) <- t.deg.(v) - 1;
  t.live <- t.live - 1;
  t.free <- e :: t.free

(* --- ring primitives -------------------------------------------------- *)

let ring_insert_lonely t v d =
  t.rnext.(d) <- d;
  t.rprev.(d) <- d;
  t.first_out.(v) <- d

let ring_insert_after t dref d =
  let nx = t.rnext.(dref) in
  t.rnext.(dref) <- d;
  t.rprev.(d) <- dref;
  t.rnext.(d) <- nx;
  t.rprev.(nx) <- d

let ring_remove t v d =
  if t.rnext.(d) = d then t.first_out.(v) <- -1
  else begin
    t.rnext.(t.rprev.(d)) <- t.rnext.(d);
    t.rprev.(t.rnext.(d)) <- t.rprev.(d);
    if t.first_out.(v) = d then t.first_out.(v) <- t.rnext.(d)
  end

(* Append [d] to [w]'s ring under construction, after [prev] (or as its
   first dart when [prev < 0]); returns [d]. The caller closes the
   cycle. *)
let ring_link t w prev d =
  if prev < 0 then t.first_out.(w) <- d
  else begin
    t.rnext.(prev) <- d;
    t.rprev.(d) <- prev
  end;
  d

(* --- construction ----------------------------------------------------- *)

let payload_merge a b =
  Intervalset.union_into ~dst:a.edges ~src:b.edges;
  a.scoured <- a.scoured + b.scoured;
  a

let of_rotation r =
  let g = Rotation.graph r in
  let n = Gr.n g in
  if not (Rotation.is_planar_embedding r) then
    invalid_arg "Incremental.of_rotation: rotation is not a planar embedding";
  let m0 = Gr.m g in
  let cap = max 8 (max m0 (3 * n)) in
  let t =
    {
      n;
      cap;
      dst = Array.make (2 * cap) (-1);
      rnext = Array.make (2 * cap) (-1);
      rprev = Array.make (2 * cap) (-1);
      first_out = Array.make (max 1 n) (-1);
      deg = Array.make (max 1 n) 0;
      live = 0;
      edge_tbl = Hashtbl.create (max 16 (2 * m0));
      free = [];
      next_slot = 0;
      comps = Relations.create ~merge:payload_merge ();
      slot_comp = Array.make cap (-1);
      rmark = Array.make 16 0;
      conn = Unionfind.create (max 1 n);
      dart_stamp = Array.make (2 * cap) 0;
      stamp = 0;
      vmark = Array.make (max 1 n) 0;
      vdata = Array.make (max 1 n) (-1);
      vstamp = 0;
      queue = Array.make (max 1 n) 0;
      lr = Lr.workspace ();
      roots = Hashtbl.create 16;
      scope = [||];
      local = Array.make (max 1 n) 0;
      others = Array.make (max 1 n) 0;
      cmark = Array.make (max 1 n) 0;
      bd = Array.make 16 0;
      wheels = Array.make 4 0;
      stats = fresh_stats ();
    }
  in
  (* Slot e = dense edge index e, so the initial component edge sets are
     long runs. *)
  for e = 0 to m0 - 1 do
    let (a, b) = Gr.edge_of_index g e in
    ignore (alloc_slot t a b);
    ignore (Unionfind.union t.conn a b)
  done;
  for v = 0 to n - 1 do
    let order = Rotation.rotation r v in
    let deg = Array.length order in
    if deg > 0 then begin
      let prev = ref (dart_to t v order.(0)) in
      t.first_out.(v) <- !prev;
      for i = 1 to deg - 1 do
        let d = dart_to t v order.(i) in
        t.rnext.(!prev) <- d;
        t.rprev.(d) <- !prev;
        prev := d
      done;
      t.rnext.(!prev) <- t.first_out.(v);
      t.rprev.(t.first_out.(v)) <- !prev
    end
  done;
  let dec = Bicon.decompose g in
  for c = 0 to dec.Bicon.n_components - 1 do
    let es = Intervalset.create ~capacity:4 () in
    Bicon.iter_component_edges dec c (fun e -> Intervalset.add es e);
    let node = Relations.fresh t.comps { edges = es; scoured = 0 } in
    Bicon.iter_component_edges dec c (fun e -> t.slot_comp.(e) <- node)
  done;
  t

let create g = of_rotation (Planarity.embed_exn g)

(* --- materialization --------------------------------------------------- *)

let live_edges t =
  Hashtbl.fold
    (fun _ e acc -> (t.dst.((2 * e) + 1), t.dst.(2 * e)) :: acc)
    t.edge_tbl []

let rotation t =
  let lo = Array.make t.live 0 and hi = Array.make t.live 0 in
  let k = ref 0 in
  for e = 0 to t.next_slot - 1 do
    if t.dst.(2 * e) >= 0 then begin
      lo.(!k) <- t.dst.((2 * e) + 1);
      hi.(!k) <- t.dst.(2 * e);
      incr k
    end
  done;
  let g = Gr.of_pairs ~n:t.n lo hi in
  let rot =
    Array.init t.n (fun v ->
        let deg = t.deg.(v) in
        if deg = 0 then [||]
        else begin
          let out = Array.make deg (-1) in
          let d = ref t.first_out.(v) in
          for i = 0 to deg - 1 do
            out.(i) <- t.dst.(!d);
            d := t.rnext.(!d)
          done;
          out
        end)
  in
  Rotation.make_owned g rot

let validate t = Rotation.is_planar_embedding (rotation t)

(* --- component record maintenance -------------------------------------- *)

(* The record of slot [sl]'s component. *)
let comp t sl = Relations.find t.comps t.slot_comp.(sl)

(* Mint fresh exact component records for the slots of [gloc] (a local
   graph whose vertex i is global [old_of_local.(i)]): one Relations node
   per biconnected component of [gloc], each holding the sorted interval
   set of its global slots. Callers abandon the stale roots themselves. *)
let refresh_comps t gloc old_of_local =
  let dec = Bicon.decompose gloc in
  for c = 0 to dec.Bicon.n_components - 1 do
    let k = Bicon.n_component_edges dec c in
    let slots = Array.make (max 1 k) 0 in
    let i = ref 0 in
    Bicon.iter_component_edges dec c (fun de ->
        let (la, lb) = Gr.edge_of_index gloc de in
        slots.(!i) <-
          Hashtbl.find t.edge_tbl (key t old_of_local.(la) old_of_local.(lb));
        incr i);
    let slots = if k = Array.length slots then slots else Array.sub slots 0 k in
    Array.sort (fun (a : int) b -> compare a b) slots;
    let es = Intervalset.create ~capacity:4 () in
    Array.iter (Intervalset.add es) slots;
    let node = Relations.fresh t.comps { edges = es; scoured = 0 } in
    Array.iter (fun sl -> t.slot_comp.(sl) <- node) slots
  done

(* Local id of global vertex [w] under stamp [s], numbering it [k] (and
   returning [k + 1]) on first sight. *)
let number_vertex t s k w =
  if t.vmark.(w) = s then k
  else begin
    t.vmark.(w) <- s;
    t.vdata.(w) <- k;
    t.local.(k) <- w;
    k + 1
  end

(* Local graph of the slots [t.scope.(0 .. len-1)], plus the extra pair
   [(eu, ev)] unless [eu < 0]: writes its edges as local pairs into
   [lo]/[hi] (the extra one last), the global vertex of each local id
   into [t.local], and returns the local vertex count. Local ids go to
   the slots' endpoints in reverse scope order, head before tail, then
   to the extra pair's [ev] and [eu]: the scope graph (and so the
   kernel's output) depends on this numbering. *)
let load_scope t len ~eu ~ev lo hi =
  t.vstamp <- t.vstamp + 1;
  let s = t.vstamp in
  let k = ref 0 in
  for i = len - 1 downto 0 do
    let sl = t.scope.(i) in
    let b = t.dst.(2 * sl) and a = t.dst.((2 * sl) + 1) in
    k := number_vertex t s !k b;
    k := number_vertex t s !k a;
    lo.(i) <- t.vdata.(a);
    hi.(i) <- t.vdata.(b)
  done;
  if eu >= 0 then begin
    k := number_vertex t s !k ev;
    k := number_vertex t s !k eu;
    lo.(len) <- t.vdata.(eu);
    hi.(len) <- t.vdata.(ev)
  end;
  !k

let reserve_scope t len =
  if Array.length t.scope < len then
    t.scope <- Array.make (max len (2 * Array.length t.scope)) 0

(* Re-tighten the stale component record holding node [x]: scoped Tarjan
   re-decomposition of its live slots, fresh exact records, stale record
   abandoned. *)
let rescope t x =
  t.stats.rescopes <- t.stats.rescopes + 1;
  let es = (Relations.get t.comps x).edges in
  let len = Intervalset.cardinal es in
  if len > 0 then begin
    reserve_scope t len;
    let i = ref 0 in
    Intervalset.iter es (fun sl ->
        t.scope.(!i) <- sl;
        incr i);
    (* The kernel workspace's pair buffers serve as scratch here; the
       graph gets copies, since it sorts the pairs it owns in place. *)
    let lo, hi = Lr.pairs t.lr ~m:len in
    let k = load_scope t len ~eu:(-1) ~ev:(-1) lo hi in
    let gloc = Gr.of_pairs ~n:k (Array.sub lo 0 len) (Array.sub hi 0 len) in
    refresh_comps t gloc t.local
  end;
  Relations.abandon t.comps x

(* --- insertion --------------------------------------------------------- *)

(* Cross-component (or isolated-endpoint) insertion: the two plane pieces
   are joined by one bridge, spliced into an arbitrary corner at each
   endpoint — always planar. *)
let link_new t u v =
  let d0u = t.first_out.(u) and d0v = t.first_out.(v) in
  let e = alloc_slot t u v in
  let p = 2 * e and q = (2 * e) + 1 in
  if d0u < 0 then ring_insert_lonely t u p else ring_insert_after t d0u p;
  if d0v < 0 then ring_insert_lonely t v q else ring_insert_after t d0v q;
  let es = Intervalset.create ~capacity:1 () in
  Intervalset.add es e;
  let node = Relations.fresh t.comps { edges = es; scoured = 0 } in
  t.slot_comp.(e) <- node;
  ignore (Unionfind.union t.conn u v);
  t.stats.linked <- t.stats.linked + 1;
  Linked

(* Walk the faces incident to [a] looking for a dart whose head is [b].
   Returns (d0, dF): an out-dart of [a] and a dart into [b] on the same
   face, or (-1, -1). Each face at [a] is walked once (dart stamps). *)
let find_common_face t a b =
  t.stamp <- t.stamp + 1;
  let s = t.stamp in
  let found_d0 = ref (-1) and found_df = ref (-1) in
  let d0 = ref t.first_out.(a) in
  let start = !d0 in
  let continue = ref (start >= 0) in
  while !continue do
    if t.dart_stamp.(!d0) <> s then begin
      (* Walk the face containing the out-dart !d0. *)
      let d = ref !d0 in
      let walking = ref true in
      while !walking do
        t.dart_stamp.(!d) <- s;
        t.stats.face_steps <- t.stats.face_steps + 1;
        if t.dst.(!d) = b && !found_d0 < 0 then begin
          found_d0 := !d0;
          found_df := !d
        end;
        d := face_next t !d;
        if !d = !d0 then walking := false
      done
    end;
    if !found_d0 >= 0 then continue := false
    else begin
      d0 := t.rnext.(!d0);
      if !d0 = start then continue := false
    end
  done;
  (!found_d0, !found_df)

(* Fast path: splice the new edge into the face that contains the corner
   before [d0] at its source and the corner after [dF] at [dF]'s head,
   splitting that face in two. Also merges the component records along
   the walked boundary segment (the new cycle passes through exactly
   those blocks). *)
let splice_into_face t u v d0 df =
  let a = dart_src t d0 and b = t.dst.(df) in
  (* Merge component records along the boundary segment d0 .. df before
     the splice changes the face. *)
  let root = ref (comp t (d0 / 2)) in
  let d = ref d0 in
  let last = ref (-1) in
  let continue = ref true in
  while !continue do
    (* neighbouring darts mostly share a record node: merge each run once *)
    let x = t.slot_comp.(!d / 2) in
    if x <> !last then begin
      last := x;
      root := Relations.union t.comps !root x
    end;
    if !d = df then continue := false else d := face_next t !d
  done;
  let e = alloc_slot t u v in
  let p = dart_to t a b and q = dart_to t b a in
  (* p goes right before d0 in a's ring (works for degree 1, where
     rprev d0 = d0), q right after df's reversal in b's ring; both new
     corners then lie on the face being split. *)
  ring_insert_after t (t.rprev.(d0)) p;
  ring_insert_after t (df lxor 1) q;
  let pl = Relations.get t.comps !root in
  Intervalset.add pl.edges e;
  t.slot_comp.(e) <- Relations.find t.comps !root;
  ignore (Unionfind.union t.conn u v);
  t.stats.fast <- t.stats.fast + 1;
  Fast

(* BFS over the live rings from u towards v; returns true and leaves
   parent darts in vdata if v was reached. *)
let bfs_reaches t u v =
  t.vstamp <- t.vstamp + 1;
  let s = t.vstamp in
  t.vmark.(u) <- s;
  t.vdata.(u) <- -1;
  t.queue.(0) <- u;
  let head = ref 0 and tail = ref 1 in
  let found = ref false in
  while (not !found) && !head < !tail do
    let w = t.queue.(!head) in
    incr head;
    let d0 = t.first_out.(w) in
    if d0 >= 0 then begin
      let d = ref d0 in
      let continue = ref true in
      while !continue do
        let x = t.dst.(!d) in
        if t.vmark.(x) <> s then begin
          t.vmark.(x) <- s;
          t.vdata.(x) <- !d;
          if x = v then found := true
          else begin
            t.queue.(!tail) <- x;
            incr tail
          end
        end;
        d := t.rnext.(!d);
        if !d = d0 then continue := false
      done
    end
  done;
  !found

(* --- slow path --------------------------------------------------------- *)

(* The slow path re-embeds within the scope S: the union of the
   (conservative) component records along one u-v path, plus the new
   edge. It first tries regions R of S around the path, in each of which
   the rest of S is kept as it is and stands in the kernel's instance as
   wheels (DESIGN §15); only once a region's instance would exceed half
   of S does it re-embed S whole, and only that last run can reject the
   insert. While a slow insert runs, the component records along the
   path carry its stamp [s] in [rmark], so a dart is in S when its
   slot's record resolves to a marked root: no slot of S is listed or
   stamped unless the whole scope runs. The region's vertices carry the
   vertex stamp [sr] with their local id in [vdata]. *)

(* Is the dart [d] in the scope of the slow insert stamped [s]? *)
let in_scope t s d = t.rmark.(comp t (d lsr 1)) = s

(* The first scope dart after the scope dart [d] in its source's ring
   ([d] itself if it is the only one). *)
let next_scope t s d =
  let d = ref t.rnext.(d) in
  while not (in_scope t s !d) do
    d := t.rnext.(!d)
  done;
  !d

(* Number into the region every vertex joined by a scope dart to
   [t.local.(lo .. hi-1)]; returns the new region size, from [nr]. *)
let grow_layer t s sr lo hi nr =
  let k = ref nr in
  for i = lo to hi - 1 do
    let d0 = t.first_out.(t.local.(i)) in
    let d = ref d0 in
    let continue = ref true in
    while !continue do
      if in_scope t s !d then k := number_vertex t sr !k t.dst.(!d);
      d := t.rnext.(!d);
      if !d = d0 then continue := false
    done
  done;
  !k

(* BFS over scope darts from [x] (outside the region), stamping [sc] and
   queueing into [t.queue]: the size of [x]'s component of S - R, or -1
   as soon as it exceeds [cap]. *)
let component_size t s sr sc x cap =
  t.cmark.(x) <- sc;
  t.queue.(0) <- x;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail && !tail <= cap do
    let d0 = t.first_out.(t.queue.(!head)) in
    incr head;
    let d = ref d0 in
    let continue = ref true in
    while !continue do
      (if in_scope t s !d then
         let y = t.dst.(!d) in
         if t.vmark.(y) <> sr && t.cmark.(y) <> sc then begin
           t.cmark.(y) <- sc;
           t.queue.(!tail) <- y;
           incr tail
         end);
      d := t.rnext.(!d);
      if !d = d0 then continue := false
    done
  done;
  if !tail <= cap then !tail else -1

(* [a] with [x] stored at [i], its first [i] entries kept; doubles [a]
   when full. *)
let push a i x =
  let a =
    if i < Array.length a then a
    else begin
      let b = Array.make (2 * i) 0 in
      Array.blit a 0 b 0 i;
      b
    end
  in
  a.(i) <- x;
  a

(* Walk the face that contains the region of the component beyond the
   boundary dart [d0] (region -> component), each boundary edge ending
   in a stub of its own: the walk bounces at region vertices, so it
   meets every boundary dart of the component once. Appends them to
   [t.bd] from [nb] in walk order, stamps the component vertices it
   passes with [sc], and returns the new boundary count. *)
let walk_boundary t s sr sc d0 nb =
  let nb = ref nb and d = ref d0 and continue = ref true in
  while !continue do
    t.bd <- push t.bd !nb !d;
    incr nb;
    t.cmark.(t.dst.(!d)) <- sc;
    let e = ref (next_scope t s (!d lxor 1)) in
    while t.vmark.(t.dst.(!e)) <> sr do
      t.cmark.(t.dst.(!e)) <- sc;
      e := next_scope t s (!e lxor 1)
    done;
    d := !e lxor 1;
    if !d = d0 then continue := false
  done;
  !nb

type attempt =
  | Over  (** the instance would exceed the budget *)
  | Failed of int  (** not accepted; the region's size after absorption *)
  | Accepted of { nr : int; nb : int; edges : int; mirror : bool }

(* One region attempt on the region [t.local.(0 .. nr0-1)]. Components
   of S - R with at most [nr0] vertices join the region; each larger one
   becomes a wheel: one stub per boundary dart in walk order, a rim
   through the stubs (K >= 3) and a hub (K >= 2). The instance is R's
   scope edges, the new edge and the wheels: local ids [0, nr) are the
   region, [nr, nr + nb) the stubs, then the hubs. Accepted when the
   kernel embeds it and every rigid wheel (K >= 3) asks for the same
   orientation: a hub that lists its stubs in decreasing walk order means
   the region's kernel rings must be mirrored. *)
let region_attempt t s sr nr0 u v budget =
  t.vstamp <- t.vstamp + 1;
  let sc = t.vstamp in
  let nr = ref nr0 and nb = ref 0 and nw = ref 0 and inner = ref 0 in
  let i = ref 0 in
  while !i < !nr && !nr <= budget do
    let d0 = t.first_out.(t.local.(!i)) in
    let d = ref d0 in
    let continue = ref true in
    while !continue do
      (if in_scope t s !d then
         let x = t.dst.(!d) in
         if t.vmark.(x) = sr then incr inner
         else if t.cmark.(x) <> sc then begin
           let size = component_size t s sr sc x nr0 in
           if size >= 0 then begin
             for j = 0 to size - 1 do
               nr := number_vertex t sr !nr t.queue.(j)
             done;
             incr inner
           end
           else begin
             t.wheels <- push t.wheels !nw !nb;
             incr nw;
             nb := walk_boundary t s sr sc !d !nb
           end
         end);
      d := t.rnext.(!d);
      if !d = d0 then continue := false
    done;
    incr i
  done;
  let nr = !nr and nb = !nb and nw = !nw in
  let wheel_end w = if w + 1 < nw then t.wheels.(w + 1) else nb in
  let frame = ref 0 in
  for w = 0 to nw - 1 do
    let k = wheel_end w - t.wheels.(w) in
    if k >= 2 then frame := !frame + k;
    if k >= 3 then frame := !frame + k
  done;
  let edges = (!inner / 2) + 1 + nb + !frame in
  if nr > budget || edges > budget then Over
  else begin
    let lo, hi = Lr.pairs t.lr ~m:edges in
    let k = ref 0 in
    let pair a b =
      lo.(!k) <- a;
      hi.(!k) <- b;
      incr k
    in
    for i = 0 to nr - 1 do
      let d0 = t.first_out.(t.local.(i)) in
      let d = ref d0 in
      let continue = ref true in
      while !continue do
        let x = t.dst.(!d) in
        if !d land 1 = 0 && in_scope t s !d && t.vmark.(x) = sr then
          pair i t.vdata.(x);
        d := t.rnext.(!d);
        if !d = d0 then continue := false
      done
    done;
    pair t.vdata.(u) t.vdata.(v);
    for j = 0 to nb - 1 do
      pair t.vdata.(dart_src t t.bd.(j)) (nr + j)
    done;
    let hub = ref (nr + nb) in
    for w = 0 to nw - 1 do
      let a = t.wheels.(w) and b = wheel_end w in
      if b - a >= 2 then begin
        for j = a to b - 1 do
          pair !hub (nr + j)
        done;
        incr hub
      end;
      if b - a >= 3 then
        for j = a to b - 1 do
          pair (nr + j) (nr + if j + 1 = b then a else j + 1)
        done
    done;
    let planar = Lr.embed_pairs t.lr ~n:!hub ~m:!k in
    t.stats.kernel_edges <- t.stats.kernel_edges + Lr.edges t.lr;
    if not planar then Failed nr
    else begin
      let off = Lr.offsets t.lr and src = Lr.sources t.lr and ring = Lr.ring t.lr in
      let dir = ref 0 and agree = ref true and hub = ref (nr + nb) in
      for w = 0 to nw - 1 do
        let a = t.wheels.(w) and b = wheel_end w in
        let k = b - a in
        if k >= 3 then begin
          let x0 = src.(ring.(off.(!hub))) - nr - a
          and x1 = src.(ring.(off.(!hub) + 1)) - nr - a in
          let d =
            if x1 = (x0 + 1) mod k then 1
            else if x0 = (x1 + 1) mod k then -1
            else raise (Lr.Embedding_invalid "wheel hub does not follow its rim")
          in
          if !dir = 0 then dir := d else if !dir <> d then agree := false
        end;
        if k >= 2 then incr hub
      done;
      if !agree then Accepted { nr; nb; edges = Lr.edges t.lr; mirror = !dir < 0 }
      else Failed nr
    end
  end

(* Regions of radius 0, 1, 2, 4, ... around the path [t.local.(0 ..
   np-1)], grown by BFS layers over scope darts, until one is accepted
   or its instance would exceed half of the scope's [scope_m] edges
   ([Over]). *)
let try_regions t s sr np u v scope_m =
  let budget = scope_m / 2 in
  let rec go nr lo radius =
    match region_attempt t s sr nr u v budget with
    | (Over | Accepted _) as a -> a
    | Failed nr' ->
        let step = max 1 radius in
        let lo = ref lo and hi = ref nr' in
        for _ = 1 to step do
          let k = grow_layer t s sr !lo !hi !hi in
          lo := !hi;
          hi := k
        done;
        if !hi = nr' then Over else go !hi !lo (radius + step)
  in
  go np 0 0

(* The merged component record: the path roots' payloads unioned, plus
   the new edge [e]. Adding (u, v) merges exactly the biconnected
   components along the path, so the record is as exact as its inputs —
   the interval sets are unioned in O(runs) with no re-decomposition
   (delete-staleness is inherited and repaired by the rescope trigger).
   The old roots hang under the fresh record, so every scope slot
   resolves to it without being visited. *)
let merge_records t e =
  let acc = ref None and scoured = ref 0 in
  Hashtbl.iter
    (fun r () ->
      let pl = Relations.get t.comps r in
      scoured := !scoured + pl.scoured;
      match !acc with
      | None -> acc := Some pl.edges
      | Some dst -> Intervalset.union_into ~dst ~src:pl.edges)
    t.roots;
  let es =
    match !acc with
    | Some es -> es
    | None -> raise (Lr.Embedding_invalid "slow-path insert with no path")
  in
  Intervalset.add es e;
  let node = Relations.fresh t.comps { edges = es; scoured = !scoured } in
  Hashtbl.iter (fun r () -> Relations.hang t.comps r ~root:node) t.roots;
  t.slot_comp.(e) <- node

(* Merge the workspace ring back into the rings of local vertices
   [0, nv): each ring becomes the kernel order of its scope darts
   (reversed if [mirror]), then its other darts in their old order. A
   local id in [nv, nv + nb) is a stub, standing for the boundary dart
   [t.bd.(id - nv)]. The ring walk that separates scope darts from the
   rest also caches each scope dart under its head vertex (stamped
   scratch), so the kernel-ordered pass resolves neighbor -> dart
   without hashing. *)
let merge_rings t s ~nv ~nb ~mirror u v e =
  let off = Lr.offsets t.lr and src = Lr.sources t.lr and ring = Lr.ring t.lr in
  for i = 0 to nv - 1 do
    let w = t.local.(i) in
    t.vstamp <- t.vstamp + 1;
    let vs = t.vstamp in
    let n_scope = ref 0 and n_others = ref 0 in
    let d0 = t.first_out.(w) in
    if d0 >= 0 then begin
      let d = ref d0 in
      let continue = ref true in
      while !continue do
        if in_scope t s !d then begin
          let x = t.dst.(!d) in
          t.vmark.(x) <- vs;
          t.vdata.(x) <- !d;
          incr n_scope
        end
        else begin
          t.others.(!n_others) <- !d;
          incr n_others
        end;
        d := t.rnext.(!d);
        if !d = d0 then continue := false
      done
    end;
    (* The new edge's darts are allocated but not yet in any ring. *)
    if w = u then begin
      t.vmark.(v) <- vs;
      t.vdata.(v) <- 2 * e;
      incr n_scope
    end
    else if w = v then begin
      t.vmark.(u) <- vs;
      t.vdata.(u) <- (2 * e) + 1;
      incr n_scope
    end;
    let lo = off.(i) and hi = off.(i + 1) in
    if hi - lo <> !n_scope then
      raise
        (Lr.Embedding_invalid
           "scope ring and maintained ring disagree on a vertex's degree");
    let prev = ref (-1) in
    for j = 0 to hi - lo - 1 do
      let x = src.(ring.(if mirror then hi - 1 - j else lo + j)) in
      let d =
        if x < nv then begin
          let y = t.local.(x) in
          if t.vmark.(y) <> vs then
            raise
              (Lr.Embedding_invalid
                 "scope ring names a neighbor outside the maintained scope");
          t.vdata.(y)
        end
        else if x < nv + nb && dart_src t t.bd.(x - nv) = w then t.bd.(x - nv)
        else raise (Lr.Embedding_invalid "region ring names a foreign stub")
      in
      prev := ring_link t w !prev d
    done;
    for j = 0 to !n_others - 1 do
      prev := ring_link t w !prev t.others.(j)
    done;
    t.rnext.(!prev) <- t.first_out.(w);
    t.rprev.(t.first_out.(w)) <- !prev
  done

(* Slow path: scope assembly, the region attempts, then (if none was
   accepted) the whole scope through the kernel. On acceptance the
   re-embedded vertices' rings are rewritten in place (non-scope darts
   keep their old cyclic order behind the scope's — gluing whole blocks
   into one corner preserves genus 0) and the path's component records
   merge. On rejection nothing has been written. Everything is assembled,
   embedded and read back in the maintainer's kernel workspace and
   scratch arrays: no graph, rotation or list is built per re-embed. *)
let reembed_scope t u v =
  (* Path roots from the BFS parent darts, marked with the insert's
     stamp, and the path's vertices as the region's first local ids. The
     table is reset, not recreated: its iteration order, which fixes the
     scope order and so the local numbering, is that of a fresh table. *)
  let roots = t.roots in
  Hashtbl.reset roots;
  let nodes = Relations.length t.comps in
  if Array.length t.rmark < nodes then begin
    let a = Array.make (max nodes (2 * Array.length t.rmark)) 0 in
    Array.blit t.rmark 0 a 0 (Array.length t.rmark);
    t.rmark <- a
  end;
  t.stamp <- t.stamp + 1;
  let s = t.stamp in
  t.vstamp <- t.vstamp + 1;
  let sr = t.vstamp in
  let np = ref 0 in
  let x = ref v in
  while !x <> u do
    let d = t.vdata.(!x) in
    let r = comp t (d / 2) in
    if t.rmark.(r) <> s then begin
      t.rmark.(r) <- s;
      Hashtbl.replace roots r ()
    end;
    np := number_vertex t sr !np !x;
    x := dart_src t d
  done;
  let np = number_vertex t sr !np u in
  let scope_n =
    Hashtbl.fold
      (fun r () acc -> acc + Intervalset.cardinal (Relations.get t.comps r).edges)
      roots 0
  in
  let accept ~nv ~nb ~mirror =
    let e = alloc_slot t u v in
    (* the rings first: [in_scope] reads the marks of the old roots,
       which the records merge folds into an unmarked fresh one *)
    merge_rings t s ~nv ~nb ~mirror u v e;
    merge_records t e;
    ignore (Unionfind.union t.conn u v);
    t.stats.reembedded <- t.stats.reembedded + 1
  in
  match try_regions t s sr np u v (scope_n + 1) with
  | Accepted a ->
      accept ~nv:a.nr ~nb:a.nb ~mirror:a.mirror;
      t.stats.regional <- t.stats.regional + 1;
      Reembedded a.edges
  | Over | Failed _ ->
      (* The whole scope, listed root by root in table order. *)
      reserve_scope t scope_n;
      let i = ref 0 in
      Hashtbl.iter
        (fun r () ->
          Intervalset.iter (Relations.get t.comps r).edges (fun sl ->
              t.scope.(!i) <- sl;
              incr i))
        roots;
      let lo, hi = Lr.pairs t.lr ~m:(scope_n + 1) in
      let nloc = load_scope t scope_n ~eu:u ~ev:v lo hi in
      let planar = Lr.embed_pairs t.lr ~n:nloc ~m:(scope_n + 1) in
      t.stats.kernel_edges <- t.stats.kernel_edges + Lr.edges t.lr;
      if not planar then begin
        t.stats.rejected <- t.stats.rejected + 1;
        Rejected
      end
      else begin
        accept ~nv:nloc ~nb:0 ~mirror:false;
        Reembedded (scope_n + 1)
      end

let insert t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n || u = v then
    invalid_arg "Incremental.insert: bad endpoints";
  if Hashtbl.mem t.edge_tbl (key t u v) then begin
    t.stats.duplicates <- t.stats.duplicates + 1;
    Duplicate
  end
  else if t.deg.(u) = 0 || t.deg.(v) = 0 then link_new t u v
  else begin
    (* Search from the endpoint with the smaller degree. *)
    let a, b = if t.deg.(u) <= t.deg.(v) then (u, v) else (v, u) in
    let d0, df = find_common_face t a b in
    if d0 >= 0 then splice_into_face t u v d0 df
    else if not (Unionfind.same t.conn u v) then link_new t u v
    else if not (bfs_reaches t u v) then
      (* Connectivity record was stale (deletions disconnect silently):
         this is really a cross-component insert. *)
      link_new t u v
    else reembed_scope t u v
  end

(* --- deletion ----------------------------------------------------------- *)

let delete t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n || u = v then
    invalid_arg "Incremental.delete: bad endpoints";
  match Hashtbl.find_opt t.edge_tbl (key t u v) with
  | None ->
      t.stats.missing <- t.stats.missing + 1;
      false
  | Some e ->
      let p = 2 * e and q = (2 * e) + 1 in
      ring_remove t (dart_src t p) p;
      ring_remove t (dart_src t q) q;
      let x = t.slot_comp.(e) in
      let pl = Relations.get t.comps x in
      Intervalset.remove pl.edges e;
      pl.scoured <- pl.scoured + 1;
      free_slot t e;
      let remaining = Intervalset.cardinal pl.edges in
      if remaining = 0 then Relations.abandon t.comps x
      else if pl.scoured >= max 16 remaining then rescope t x;
      t.stats.deletes <- t.stats.deletes + 1;
      true

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>inserts: %d fast, %d linked, %d reembedded, %d rejected, %d \
     duplicate@ regions: %d of the reembedded@ deletes: %d (%d missing)@ \
     rescopes: %d@ kernel edges: %d@ face-walk steps: %d@]"
    s.fast s.linked s.reembedded s.rejected s.duplicates s.regional s.deletes
    s.missing s.rescopes s.kernel_edges s.face_steps
