(* The left-right planarity test (Brandes' formulation of de Fraysseix &
   Rosenstiehl) with embedding extraction.

   Linear-time skeleton, flat arrays throughout:

   1. Orientation DFS: orient every edge, computing height, lowpoint,
      second lowpoint and the nesting depth 2*lowpt + [chordal] of each
      oriented edge.
   2. Nesting-order sort: outgoing adjacency lists ordered by nesting
      depth via one global counting sort (keys are bounded by 2n).
   3. Testing DFS: the constraint stack of conflict pairs; same-side
      (aligned) and opposite-side (interleaved) constraints are merged
      per Brandes' rules; an unresolvable conflict means non-planar.
   4. Embedding: relative edge sides are resolved through the reference
      chains (sign), adjacency lists re-sorted by signed nesting depth,
      and a final DFS places each back edge next to its reference using
      per-vertex left/right insertion points.

   The rotation is produced on the graph's own dart table (one doubly
   linked cyclic list per vertex, entries indexed by dart id), then
   validated by the independent face-tracing Euler checker in
   [Rotation]; [Embedding_invalid] signals an internal inconsistency
   and is never raised on any input the test accepts (it exists so a
   kernel bug cannot masquerade as a verdict). *)

type result = Planar of Rotation.t | Nonplanar

exception Embedding_invalid of string

(* Internal: the input is rejected by the constraint phase. *)
exception Reject

(* ------------------------------------------------------------------ *)
(* Core state over a CSR adjacency view                                *)
(* ------------------------------------------------------------------ *)

(* The core runs on any CSR triple (off, nbr, eid): the slots of vertex
   [v] are [off.(v) .. off.(v+1) - 1], slot [s] holds the neighbor
   [nbr.(s)] and the dense undirected edge id [eid.(s)] (each edge
   appears in exactly two slots). For a [Gr.t] this is exactly the dart
   table; the masked entry point builds its own triple. *)
type core = {
  n : int;
  m : int;
  off : int array;
  nbr : int array;
  eid : int array;
  (* orientation of each edge; osrc = -1 means not yet oriented *)
  osrc : int array;
  odst : int array;
  oslot : int array;  (* source-side slot of each oriented edge v -> w *)
  height : int array;  (* DFS height per vertex; -1 = unvisited *)
  pedge : int array;  (* parent edge id per vertex; -1 = root *)
  lowpt : int array;
  lowpt2 : int array;
  nesting : int array;
  refe : int array;  (* reference edge (relative side); -1 = none *)
  side : int array;  (* +-1 *)
  lowpt_e : int array;  (* lowpoint edge; -1 = none *)
  sbottom : int array;  (* conflict-stack height at edge start *)
  mutable roots : int list;  (* DFS roots, one per component *)
  (* outgoing adjacency ordered by nesting depth (rebuilt for phase 4) *)
  oout : int array;  (* n + 1 offsets *)
  onbr : int array;
  oeid : int array;
  odart : int array;  (* [oslot] of the edge, in the same order *)
  stack : int array;  (* the DFS stack shared by the three DFS phases *)
}

let make_core ~n ~m ~off ~nbr ~eid =
  {
    n;
    m;
    off;
    nbr;
    eid;
    osrc = Array.make m (-1);
    odst = Array.make m (-1);
    oslot = Array.make m (-1);
    height = Array.make n (-1);
    pedge = Array.make n (-1);
    lowpt = Array.make m 0;
    lowpt2 = Array.make m 0;
    nesting = Array.make m 0;
    refe = Array.make m (-1);
    side = Array.make m 1;
    lowpt_e = Array.make m (-1);
    sbottom = Array.make m 0;
    roots = [];
    oout = Array.make (n + 1) 0;
    onbr = Array.make m 0;
    oeid = Array.make m 0;
    odart = Array.make m 0;
    stack = Array.make (max 1 n) 0;
  }

(* ------------------------------------------------------------------ *)
(* Phase 1: orientation DFS                                            *)
(* ------------------------------------------------------------------ *)

(* Nesting depth of a freshly completed oriented edge [e] out of a
   vertex at height [hv], and the lowpoint update of its parent edge. *)
let finish_edge c pe hv e =
  c.nesting.(e) <- (2 * c.lowpt.(e)) + if c.lowpt2.(e) < hv then 1 else 0;
  if pe >= 0 then
    if c.lowpt.(e) < c.lowpt.(pe) then begin
      c.lowpt2.(pe) <- min c.lowpt.(pe) c.lowpt2.(e);
      c.lowpt.(pe) <- c.lowpt.(e)
    end
    else if c.lowpt.(e) > c.lowpt.(pe) then
      c.lowpt2.(pe) <- min c.lowpt2.(pe) c.lowpt.(e)
    else c.lowpt2.(pe) <- min c.lowpt2.(pe) c.lowpt2.(e)

let orient c =
  let ind = Array.sub c.off 0 c.n in
  let stack = c.stack and sp = ref 0 in
  for r = 0 to c.n - 1 do
    if c.height.(r) = -1 then begin
      (* every unvisited vertex roots a DFS (isolated ones trivially) *)
      c.height.(r) <- 0;
      c.roots <- r :: c.roots;
      stack.(0) <- r;
      sp := 1;
      while !sp > 0 do
        decr sp;
        let v = stack.(!sp) in
        let pe = c.pedge.(v) and hv = c.height.(v) in
        let brk = ref false in
        while (not !brk) && ind.(v) < c.off.(v + 1) do
          let s = ind.(v) in
          let w = c.nbr.(s) and e = c.eid.(s) in
          if c.osrc.(e) = -1 then begin
            c.osrc.(e) <- v;
            c.odst.(e) <- w;
            c.oslot.(e) <- s;
            if c.height.(w) = -1 then begin
              (* tree edge: descend, finish on resume *)
              c.lowpt.(e) <- hv;
              c.lowpt2.(e) <- hv;
              c.pedge.(w) <- e;
              c.height.(w) <- hv + 1;
              stack.(!sp) <- v;
              stack.(!sp + 1) <- w;
              sp := !sp + 2;
              brk := true
            end
            else begin
              (* back edge *)
              c.lowpt.(e) <- c.height.(w);
              c.lowpt2.(e) <- hv;
              finish_edge c pe hv e;
              ind.(v) <- s + 1
            end
          end
          else if c.osrc.(e) = v && c.pedge.(w) = e then begin
            (* the tree edge we just returned from *)
            finish_edge c pe hv e;
            ind.(v) <- s + 1
          end
          else ind.(v) <- s + 1 (* oriented from the other endpoint *)
        done
      done
    end
  done;
  c.roots <- List.rev c.roots

(* ------------------------------------------------------------------ *)
(* Nesting-order adjacency (global counting sort, O(n + m))            *)
(* ------------------------------------------------------------------ *)

(* Sort all oriented edges by nesting depth at once, then scatter them
   to their source vertices in that order; per-vertex lists come out
   sorted because the scatter is stable. [lo] is the smallest possible
   key (negative once the depths are signed). *)
let order_adjacency c ~lo ~hi =
  let range = hi - lo + 1 in
  let count = Array.make (range + 1) 0 in
  for e = 0 to c.m - 1 do
    let k = c.nesting.(e) - lo in
    count.(k) <- count.(k) + 1
  done;
  let acc = ref 0 in
  for k = 0 to range do
    let t = count.(k) in
    count.(k) <- !acc;
    acc := !acc + t
  done;
  let sorted = Array.make c.m 0 in
  for e = 0 to c.m - 1 do
    let k = c.nesting.(e) - lo in
    sorted.(count.(k)) <- e;
    count.(k) <- count.(k) + 1
  done;
  let deg_out = Array.make c.n 0 in
  for e = 0 to c.m - 1 do
    deg_out.(c.osrc.(e)) <- deg_out.(c.osrc.(e)) + 1
  done;
  c.oout.(0) <- 0;
  for v = 0 to c.n - 1 do
    c.oout.(v + 1) <- c.oout.(v) + deg_out.(v)
  done;
  let cur = Array.sub c.oout 0 c.n in
  Array.iter
    (fun e ->
      let v = c.osrc.(e) in
      c.onbr.(cur.(v)) <- c.odst.(e);
      c.oeid.(cur.(v)) <- e;
      c.odart.(cur.(v)) <- c.oslot.(e);
      cur.(v) <- cur.(v) + 1)
    sorted

(* ------------------------------------------------------------------ *)
(* Phase 3: testing DFS with the conflict-pair stack                   *)
(* ------------------------------------------------------------------ *)

(* An interval of back edges on one side; (-1, -1) is the empty one. *)
type interval = { mutable lo : int; mutable hi : int }

type cpair = { l : interval; r : interval }

let ivl_empty i = i.lo = -1 && i.hi = -1

let swap_pair p =
  let llo = p.l.lo and lhi = p.l.hi in
  p.l.lo <- p.r.lo;
  p.l.hi <- p.r.hi;
  p.r.lo <- llo;
  p.r.hi <- lhi

(* Growable stack of conflict pairs. *)
type cstack = { mutable buf : cpair array; mutable len : int }

let dummy_pair () = { l = { lo = -1; hi = -1 }; r = { lo = -1; hi = -1 } }

let cstack_create () = { buf = Array.make 64 (dummy_pair ()); len = 0 }

let cpush s p =
  if s.len = Array.length s.buf then begin
    let nb = Array.make (2 * s.len) p in
    Array.blit s.buf 0 nb 0 s.len;
    s.buf <- nb
  end;
  s.buf.(s.len) <- p;
  s.len <- s.len + 1

let cpop s =
  s.len <- s.len - 1;
  s.buf.(s.len)

let ctop s = s.buf.(s.len - 1)

let lowest c p =
  if ivl_empty p.l then c.lowpt.(p.r.lo)
  else if ivl_empty p.r then c.lowpt.(p.l.lo)
  else min c.lowpt.(p.l.lo) c.lowpt.(p.r.lo)

let conflicting c i b = (not (ivl_empty i)) && i.hi <> -1 && c.lowpt.(i.hi) > c.lowpt.(b)

(* Merge the constraints of edge [ei] into those of its parent edge
   [pe]: same-side alignment for return edges not outlasting [pe],
   interval merging for the rest, and interleaving conflicts forced to
   opposite sides. @raise Reject when both sides conflict. *)
let add_constraints c s ei pe =
  let p = dummy_pair () in
  (* merge return edges of ei into p.r *)
  let brk = ref false in
  while not !brk do
    let q = cpop s in
    if not (ivl_empty q.l) then swap_pair q;
    if not (ivl_empty q.l) then raise Reject;
    if c.lowpt.(q.r.lo) > c.lowpt.(pe) then begin
      (* merge intervals *)
      if ivl_empty p.r then p.r.hi <- q.r.hi else c.refe.(p.r.lo) <- q.r.hi;
      p.r.lo <- q.r.lo
    end
    else
      (* align with the parent's lowpoint edge *)
      c.refe.(q.r.lo) <- c.lowpt_e.(pe);
    if s.len = c.sbottom.(ei) then brk := true
  done;
  (* merge conflicting return edges of earlier siblings into p.l *)
  while
    s.len > 0
    && (conflicting c (ctop s).l ei || conflicting c (ctop s).r ei)
  do
    let q = cpop s in
    if conflicting c q.r ei then swap_pair q;
    if conflicting c q.r ei then raise Reject;
    (* merge the interval below lowpt ei into p.r *)
    if p.r.lo <> -1 then c.refe.(p.r.lo) <- q.r.hi;
    if q.r.lo <> -1 then p.r.lo <- q.r.lo;
    if ivl_empty p.l then p.l.hi <- q.l.hi else c.refe.(p.l.lo) <- q.l.hi;
    p.l.lo <- q.l.lo
  done;
  if not (ivl_empty p.l && ivl_empty p.r) then cpush s p

(* Back edges returning to the parent [u] of the finished vertex are
   dropped from the stack; the parent edge inherits the side reference
   of a highest surviving return edge. *)
let remove_back_edges c s pe =
  let u = c.osrc.(pe) in
  let hu = c.height.(u) in
  (* drop entire conflict pairs ending at u *)
  let brk = ref false in
  while (not !brk) && s.len > 0 do
    if lowest c (ctop s) = hu then begin
      let p = cpop s in
      if p.l.lo <> -1 then c.side.(p.l.lo) <- -1
    end
    else brk := true
  done;
  if s.len > 0 then begin
    let p = cpop s in
    (* trim left interval *)
    while p.l.hi <> -1 && c.odst.(p.l.hi) = u do
      p.l.hi <- c.refe.(p.l.hi)
    done;
    if p.l.hi = -1 && p.l.lo <> -1 then begin
      (* just emptied *)
      c.refe.(p.l.lo) <- p.r.lo;
      c.side.(p.l.lo) <- -1;
      p.l.lo <- -1
    end;
    (* trim right interval *)
    while p.r.hi <> -1 && c.odst.(p.r.hi) = u do
      p.r.hi <- c.refe.(p.r.hi)
    done;
    if p.r.hi = -1 && p.r.lo <> -1 then begin
      c.refe.(p.r.lo) <- p.l.lo;
      c.side.(p.r.lo) <- -1;
      p.r.lo <- -1
    end;
    cpush s p
  end;
  if c.lowpt.(pe) < hu && s.len > 0 then begin
    (* the side of pe is the side of a highest return edge *)
    let t = ctop s in
    let hl = t.l.hi and hr = t.r.hi in
    c.refe.(pe) <-
      (if hl <> -1 && (hr = -1 || c.lowpt.(hl) > c.lowpt.(hr)) then hl else hr)
  end

(* The testing DFS. @raise Reject on a non-planar input. *)
let test_constraints c =
  let s = cstack_create () in
  let ind = Array.sub c.oout 0 c.n in
  let tinit = Array.make c.m false in
  let stack = c.stack and sp = ref 0 in
  List.iter
    (fun root ->
      stack.(0) <- root;
      sp := 1;
      while !sp > 0 do
        decr sp;
        let v = stack.(!sp) in
        let pe = c.pedge.(v) and hv = c.height.(v) in
        let skip_final = ref false in
        let brk = ref false in
        while (not !brk) && ind.(v) < c.oout.(v + 1) do
          let slot = ind.(v) in
          let w = c.onbr.(slot) and ei = c.oeid.(slot) in
          if (not tinit.(ei)) && c.pedge.(w) = ei then begin
            (* tree edge, first encounter: record the stack bottom and
               descend; the return-edge integration happens on resume *)
            c.sbottom.(ei) <- s.len;
            tinit.(ei) <- true;
            stack.(!sp) <- v;
            stack.(!sp + 1) <- w;
            sp := !sp + 2;
            skip_final := true;
            brk := true
          end
          else begin
            if not tinit.(ei) then begin
              (* back edge *)
              c.sbottom.(ei) <- s.len;
              c.lowpt_e.(ei) <- ei;
              cpush s { l = { lo = -1; hi = -1 }; r = { lo = ei; hi = ei } }
            end;
            (* integrate new return edges *)
            if c.lowpt.(ei) < hv then begin
              if slot = c.oout.(v) then begin
                (* e_1 passes its constraints straight to the parent *)
                if pe >= 0 then c.lowpt_e.(pe) <- c.lowpt_e.(ei)
              end
              else add_constraints c s ei pe
            end;
            ind.(v) <- slot + 1
          end
        done;
        if (not !skip_final) && pe >= 0 then remove_back_edges c s pe
      done)
    c.roots

(* ------------------------------------------------------------------ *)
(* Phase 4: sign resolution and embedding                              *)
(* ------------------------------------------------------------------ *)

(* Resolve every edge's relative side to an absolute sign by following
   the reference chains once (memoized in place, so the total work is
   linear even though chains share suffixes). *)
let resolve_sides c =
  for e0 = 0 to c.m - 1 do
    if c.refe.(e0) <> -1 then begin
      let chain = ref [] in
      let cur = ref e0 in
      while c.refe.(!cur) <> -1 do
        chain := !cur :: !chain;
        cur := c.refe.(!cur)
      done;
      (* !cur is resolved; unwind from the deepest reference outwards *)
      let sgn = ref c.side.(!cur) in
      List.iter
        (fun x ->
          c.side.(x) <- c.side.(x) * !sgn;
          c.refe.(x) <- -1;
          sgn := c.side.(x))
        !chain
    end
  done

(* The embedding DFS, on the graph's dart table: [first], [nxt], [prv]
   hold one cyclic doubly linked list of darts per vertex. The half-edge
   "at [v] toward [w]" is the dart [w -> v], which lives in [v]'s own
   dart slice; for an oriented edge [v -> w] that is its [odart], and
   the half-edge at [w] toward [v] is its reversal. [lref]/[rref] hold
   the insertion-point half-edges of each vertex as darts. *)
let embed_rotation c g =
  let darts = Gr.darts g in
  let rev = Gr.dart_reversals g and srcs = Gr.dart_sources g in
  let nxt = Array.make (max 1 darts) (-1) in
  let prv = Array.make (max 1 darts) (-1) in
  let first = Array.make c.n (-1) in
  let insert_after d rd =
    let nx = nxt.(rd) in
    nxt.(rd) <- d;
    prv.(d) <- rd;
    nxt.(d) <- nx;
    prv.(nx) <- d
  in
  let add_first v d =
    let f = first.(v) in
    if f = -1 then begin
      first.(v) <- d;
      nxt.(d) <- d;
      prv.(d) <- d
    end
    else begin
      insert_after d prv.(f);
      first.(v) <- d
    end
  in
  let add_ccw v d rd =
    insert_after d prv.(rd);
    if first.(v) = rd then first.(v) <- d
  in
  (* initialize each vertex with its outgoing edges in nesting order *)
  for v = 0 to c.n - 1 do
    for slot = c.oout.(v) to c.oout.(v + 1) - 1 do
      let d = c.odart.(slot) in
      if slot = c.oout.(v) then add_first v d
      else insert_after d c.odart.(slot - 1)
    done
  done;
  (* the embedding DFS places the reverse half-edges *)
  let lref = Array.make c.n (-1) in
  let rref = Array.make c.n (-1) in
  let ind = Array.sub c.oout 0 c.n in
  let stack = c.stack and sp = ref 0 in
  List.iter
    (fun root ->
      stack.(0) <- root;
      sp := 1;
      while !sp > 0 do
        decr sp;
        let v = stack.(!sp) in
        let brk = ref false in
        while (not !brk) && ind.(v) < c.oout.(v + 1) do
          let slot = ind.(v) in
          let w = c.onbr.(slot) and ei = c.oeid.(slot) in
          (* the half-edges of v -> w at v (dart w -> v) and at w *)
          let dv = c.odart.(slot) in
          let d = rev.(dv) in
          ind.(v) <- slot + 1;
          if c.pedge.(w) = ei then begin
            (* tree edge: w's edge to its parent goes first at w; back
               edges from w's subtree insert next to this tree edge *)
            add_first w d;
            lref.(v) <- dv;
            rref.(v) <- dv;
            stack.(!sp) <- v;
            stack.(!sp + 1) <- w;
            sp := !sp + 2;
            brk := true
          end
          else if c.side.(ei) = 1 then insert_after d rref.(w)
          else begin
            add_ccw w d lref.(w);
            lref.(w) <- d
          end
        done
      done)
    c.roots;
  (* read the rotations off the linked lists *)
  Array.init c.n (fun v ->
      let deg = Gr.degree g v in
      if deg = 0 then [||]
      else begin
        let d0 = first.(v) in
        if d0 = -1 then
          raise (Embedding_invalid "vertex with edges but no rotation");
        let rot = Array.make deg (-1) in
        let d = ref d0 in
        for i = 0 to deg - 1 do
          rot.(i) <- srcs.(!d);
          d := nxt.(!d)
        done;
        if !d <> d0 then
          raise (Embedding_invalid "rotation list length mismatch");
        rot
      end)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let core_of_graph g =
  make_core ~n:(Gr.n g) ~m:(Gr.m g) ~off:(Gr.dart_offsets g)
    ~nbr:(Gr.dart_sources g) ~eid:(Gr.dart_edges g)

let embed g =
  let n = Gr.n g and m = Gr.m g in
  if n = 0 then Planar (Rotation.make g [||])
  else if m = 0 then
    Planar (Rotation.make g (Array.make n [||]))
  else if n >= 3 && m > (3 * n) - 6 then Nonplanar
  else begin
    let c = core_of_graph g in
    orient c;
    order_adjacency c ~lo:0 ~hi:(2 * n);
    match test_constraints c with
    | () ->
        resolve_sides c;
        for e = 0 to c.m - 1 do
          c.nesting.(e) <- c.nesting.(e) * c.side.(e)
        done;
        order_adjacency c ~lo:(-(2 * n)) ~hi:(2 * n);
        let rot = embed_rotation c g in
        let r =
          try Rotation.make g rot
          with Invalid_argument msg -> raise (Embedding_invalid msg)
        in
        if not (Rotation.is_planar_embedding r) then
          raise
            (Embedding_invalid
               "accepted input produced a rotation that fails the Euler \
                face-trace check");
        Planar r
    | exception Reject -> Nonplanar
  end

let is_planar g =
  let n = Gr.n g and m = Gr.m g in
  if m = 0 then true
  else if n >= 3 && m > (3 * n) - 6 then false
  else begin
    let c = core_of_graph g in
    orient c;
    order_adjacency c ~lo:0 ~hi:(2 * n);
    match test_constraints c with () -> true | exception Reject -> false
  end

let embed_exn g =
  match embed g with
  | Planar r -> r
  | Nonplanar -> invalid_arg "Lr.embed_exn: graph is not planar"

let is_planar_edges ~n edges ~mask =
  let m_all = Array.length edges in
  if Array.length mask <> m_all then
    invalid_arg "Lr.is_planar_edges: mask length mismatch";
  let deg = Array.make n 0 in
  let m = ref 0 in
  for i = 0 to m_all - 1 do
    if mask.(i) then begin
      let (u, v) = edges.(i) in
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1;
      incr m
    end
  done;
  let m = !m in
  if m = 0 then true
  else if n >= 3 && m > (3 * n) - 6 then false
  else begin
    let off = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      off.(v + 1) <- off.(v) + deg.(v)
    done;
    let nbr = Array.make (2 * m) 0 in
    let eid = Array.make (2 * m) 0 in
    let cur = Array.sub off 0 n in
    let next_id = ref 0 in
    for i = 0 to m_all - 1 do
      if mask.(i) then begin
        let (u, v) = edges.(i) in
        let e = !next_id in
        incr next_id;
        nbr.(cur.(u)) <- v;
        eid.(cur.(u)) <- e;
        cur.(u) <- cur.(u) + 1;
        nbr.(cur.(v)) <- u;
        eid.(cur.(v)) <- e;
        cur.(v) <- cur.(v) + 1
      end
    done;
    let c = make_core ~n ~m ~off ~nbr ~eid in
    orient c;
    order_adjacency c ~lo:0 ~hi:(2 * n);
    match test_constraints c with () -> true | exception Reject -> false
  end
