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
   linked cyclic list per vertex, entries indexed by dart id) and read
   off into a ring laid out like that table. [embed] packages it through
   the checked [Rotation.make] and the Euler check; [embed_pairs] checks
   the raw ring the same two ways ([check_ring]), with the same
   face-tracing function. [Embedding_invalid] signals an internal
   inconsistency and is never raised on any input the test accepts (it
   exists so a kernel bug cannot masquerade as a verdict).

   All state lives in a workspace: capacity-sized arrays that a caller
   may keep across runs, so a run on a workspace that has seen a larger
   graph allocates nothing. *)

type result = Planar of Rotation.t | Nonplanar

exception Embedding_invalid of string

(* Internal: the input is rejected by the constraint phase. *)
exception Reject

(* ------------------------------------------------------------------ *)
(* Core state over a CSR adjacency view                                *)
(* ------------------------------------------------------------------ *)

(* The core runs on any CSR view (off, nbr, eid, rev): the slots of
   vertex [v] are [off.(v) .. off.(v+1) - 1], slot [s] holds the
   neighbor [nbr.(s)], the dense undirected edge id [eid.(s)] (each edge
   appears in exactly two slots) and the reversed slot [rev.(s)]. For a
   [Gr.t] this is exactly the dart table; the pair entry point builds
   the same table in the workspace's own buffers, and the test-only
   masked entry point builds one without reversals.

   Every other array is sized to the core's capacity ([cap_n] vertices,
   [cap_m] edges) and only its [n]/[m] prefix is live. Each run resets
   the entries the phases read before writing; everything else is
   written before it is read, so a dirty core (a rejected run, or a
   larger graph before) gives the same output as a fresh one. *)
type core = {
  cap_n : int;
  cap_m : int;
  mutable n : int;
  mutable m : int;
  mutable off : int array;
  mutable nbr : int array;
  mutable eid : int array;
  mutable rev : int array;
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
  roots : int array;  (* DFS roots, one per component, in visit order *)
  mutable nroots : int;
  (* outgoing adjacency ordered by nesting depth (rebuilt for phase 4) *)
  oout : int array;  (* n + 1 offsets *)
  onbr : int array;
  oeid : int array;
  odart : int array;  (* [oslot] of the edge, in the same order *)
  stack : int array;  (* the DFS stack shared by the three DFS phases *)
  ind : int array;  (* per-vertex DFS cursors, shared likewise *)
  (* temporaries of the nesting-order sort *)
  count : int array;  (* 4n + 2 key buckets *)
  sorted : int array;
  cur : int array;
  (* temporaries of the testing DFS: the conflict-pair stack, flat, four
     entries per pair (left lo, left hi, right lo, right hi) *)
  tinit : Bytes.t;
  cs : int array;
  mutable clen : int;
  chain : int array;  (* reference chain of the sign resolution *)
  (* the embedding DFS's dart lists and the output ring *)
  nxt : int array;
  prv : int array;
  first : int array;
  lref : int array;
  rref : int array;
  ring : int array;
}

let make_core ~cap_n ~cap_m =
  let vs () = Array.make cap_n 0 and es () = Array.make cap_m 0 in
  let ds () = Array.make (2 * cap_m) 0 in
  {
    cap_n;
    cap_m;
    n = 0;
    m = 0;
    off = [| 0 |];
    nbr = [||];
    eid = [||];
    rev = [||];
    osrc = es ();
    odst = es ();
    oslot = es ();
    height = vs ();
    pedge = vs ();
    lowpt = es ();
    lowpt2 = es ();
    nesting = es ();
    refe = es ();
    side = es ();
    lowpt_e = es ();
    sbottom = es ();
    roots = vs ();
    nroots = 0;
    oout = Array.make (cap_n + 1) 0;
    onbr = es ();
    oeid = es ();
    odart = es ();
    stack = Array.make (max 1 cap_n) 0;
    ind = vs ();
    count = Array.make ((4 * cap_n) + 2) 0;
    sorted = es ();
    cur = vs ();
    tinit = Bytes.create cap_m;
    cs = Array.make (4 * cap_m) 0;
    clen = 0;
    chain = es ();
    nxt = ds ();
    prv = ds ();
    first = vs ();
    lref = vs ();
    rref = vs ();
    ring = ds ();
  }

(* Buffers of the pair entry point only: the sort's scratch, the CSR the
   core reads, and the ring checker's scratch. *)
type buffers = {
  bcap_n : int;
  bcap_m : int;
  lo1 : int array;
  hi1 : int array;
  start : int array;  (* n + 1; the sort's buckets, then the CSR cursor *)
  xadj : int array;
  adjncy : int array;
  uedge : int array;
  drev : int array;
  face_next : int array;
  seen : Bytes.t;
  queue : int array;
}

let make_buffers ~cap_n ~cap_m =
  let es () = Array.make cap_m 0 and ds () = Array.make (2 * cap_m) 0 in
  {
    bcap_n = cap_n;
    bcap_m = cap_m;
    lo1 = es ();
    hi1 = es ();
    start = Array.make (cap_n + 1) 0;
    xadj = Array.make (cap_n + 1) 0;
    adjncy = ds ();
    uedge = ds ();
    drev = ds ();
    face_next = ds ();
    seen = Bytes.create (max cap_n (2 * cap_m));
    queue = Array.make cap_n 0;
  }

type workspace = {
  mutable core : core;
  mutable lo : int array;  (* pair input, grown by [pairs] *)
  mutable hi : int array;
  mutable buf : buffers;
}

let workspace () =
  {
    core = make_core ~cap_n:0 ~cap_m:0;
    lo = [||];
    hi = [||];
    buf = make_buffers ~cap_n:0 ~cap_m:0;
  }

(* Grow-only capacity: a fresh workspace gets exactly what it needs, a
   reused one at least doubles so a growing sequence costs amortized
   O(1) allocation per unit. *)
let grown cap need = if need <= cap then cap else max need (2 * cap)

(* Point the core at a CSR view of [n] vertices and [m] edges. *)
let view ws ~n ~m ~off ~nbr ~eid ~rev =
  let c0 = ws.core in
  if n > c0.cap_n || m > c0.cap_m then
    ws.core <- make_core ~cap_n:(grown c0.cap_n n) ~cap_m:(grown c0.cap_m m);
  let c = ws.core in
  c.n <- n;
  c.m <- m;
  c.off <- off;
  c.nbr <- nbr;
  c.eid <- eid;
  c.rev <- rev;
  c

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
  let n = c.n in
  let ind = c.ind in
  Array.blit c.off 0 ind 0 n;
  Array.fill c.osrc 0 c.m (-1);
  Array.fill c.height 0 n (-1);
  Array.fill c.pedge 0 n (-1);
  c.nroots <- 0;
  let stack = c.stack and sp = ref 0 in
  for r = 0 to n - 1 do
    if c.height.(r) = -1 then begin
      (* every unvisited vertex roots a DFS (isolated ones trivially) *)
      c.height.(r) <- 0;
      c.roots.(c.nroots) <- r;
      c.nroots <- c.nroots + 1;
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
  done

(* ------------------------------------------------------------------ *)
(* Nesting-order adjacency (global counting sort, O(n + m))            *)
(* ------------------------------------------------------------------ *)

(* Sort all oriented edges by nesting depth at once, then scatter them
   to their source vertices in that order; per-vertex lists come out
   sorted because the scatter is stable. [lo] is the smallest possible
   key (negative once the depths are signed). *)
let order_adjacency c ~lo ~hi =
  let range = hi - lo + 1 in
  let count = c.count and sorted = c.sorted and cur = c.cur in
  Array.fill count 0 (range + 1) 0;
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
  for e = 0 to c.m - 1 do
    let k = c.nesting.(e) - lo in
    sorted.(count.(k)) <- e;
    count.(k) <- count.(k) + 1
  done;
  (* [cur] first counts out-degrees, then serves as the scatter cursor *)
  Array.fill cur 0 c.n 0;
  for e = 0 to c.m - 1 do
    cur.(c.osrc.(e)) <- cur.(c.osrc.(e)) + 1
  done;
  c.oout.(0) <- 0;
  for v = 0 to c.n - 1 do
    c.oout.(v + 1) <- c.oout.(v) + cur.(v)
  done;
  Array.blit c.oout 0 cur 0 c.n;
  for i = 0 to c.m - 1 do
    let e = sorted.(i) in
    let v = c.osrc.(e) in
    c.onbr.(cur.(v)) <- c.odst.(e);
    c.oeid.(cur.(v)) <- e;
    c.odart.(cur.(v)) <- c.oslot.(e);
    cur.(v) <- cur.(v) + 1
  done

(* ------------------------------------------------------------------ *)
(* Phase 3: testing DFS with the conflict-pair stack                   *)
(* ------------------------------------------------------------------ *)

(* A conflict pair is two intervals of back edges, left and right, each
   [lo, hi] with (-1, -1) the empty one. The stack keeps them flat: pair
   [i] is [c.cs.(4i .. 4i + 3)] = left lo, left hi, right lo, right hi. *)

let cpush c llo lhi rlo rhi =
  let b = 4 * c.clen in
  c.cs.(b) <- llo;
  c.cs.(b + 1) <- lhi;
  c.cs.(b + 2) <- rlo;
  c.cs.(b + 3) <- rhi;
  c.clen <- c.clen + 1

(* Base index of the top pair. *)
let ctop c = 4 * (c.clen - 1)

let empty lo hi = lo = -1 && hi = -1

(* Lowest return point of the pair at base index [b]. *)
let lowest c b =
  let cs = c.cs in
  if empty cs.(b) cs.(b + 1) then c.lowpt.(cs.(b + 2))
  else if empty cs.(b + 2) cs.(b + 3) then c.lowpt.(cs.(b))
  else min c.lowpt.(cs.(b)) c.lowpt.(cs.(b + 2))

(* Does the interval ending at [hi] conflict with edge [b]? *)
let conflicting c hi b = hi <> -1 && c.lowpt.(hi) > c.lowpt.(b)

(* Merge the constraints of edge [ei] into those of its parent edge
   [pe]: same-side alignment for return edges not outlasting [pe],
   interval merging for the rest, and interleaving conflicts forced to
   opposite sides. The new pair p is built in four locals.
   @raise Reject when both sides conflict. *)
let add_constraints c ei pe =
  let cs = c.cs in
  let pllo = ref (-1) and plhi = ref (-1) in
  let prlo = ref (-1) and prhi = ref (-1) in
  (* merge return edges of ei into p.r *)
  let brk = ref false in
  while not !brk do
    c.clen <- c.clen - 1;
    let b = 4 * c.clen in
    (* q, swapped so that its return edges are on the right *)
    let qlo, qhi =
      if empty cs.(b) cs.(b + 1) then (cs.(b + 2), cs.(b + 3))
      else if empty cs.(b + 2) cs.(b + 3) then (cs.(b), cs.(b + 1))
      else raise Reject
    in
    if c.lowpt.(qlo) > c.lowpt.(pe) then begin
      (* merge intervals *)
      if empty !prlo !prhi then prhi := qhi else c.refe.(!prlo) <- qhi;
      prlo := qlo
    end
    else
      (* align with the parent's lowpoint edge *)
      c.refe.(qlo) <- c.lowpt_e.(pe);
    if c.clen = c.sbottom.(ei) then brk := true
  done;
  (* merge conflicting return edges of earlier siblings into p.l *)
  while
    c.clen > 0
    &&
    let t = ctop c in
    conflicting c cs.(t + 1) ei || conflicting c cs.(t + 3) ei
  do
    c.clen <- c.clen - 1;
    let b = 4 * c.clen in
    (* q, swapped so that its right interval does not conflict *)
    let qllo, qlhi, qrlo, qrhi =
      if not (conflicting c cs.(b + 3) ei) then
        (cs.(b), cs.(b + 1), cs.(b + 2), cs.(b + 3))
      else if not (conflicting c cs.(b + 1) ei) then
        (cs.(b + 2), cs.(b + 3), cs.(b), cs.(b + 1))
      else raise Reject
    in
    (* merge the interval below lowpt ei into p.r *)
    if !prlo <> -1 then c.refe.(!prlo) <- qrhi;
    if qrlo <> -1 then prlo := qrlo;
    if empty !pllo !plhi then plhi := qlhi else c.refe.(!pllo) <- qlhi;
    pllo := qllo
  done;
  if not (empty !pllo !plhi && empty !prlo !prhi) then
    cpush c !pllo !plhi !prlo !prhi

(* Back edges returning to the parent [u] of the finished vertex are
   dropped from the stack; the parent edge inherits the side reference
   of a highest surviving return edge. *)
let remove_back_edges c pe =
  let cs = c.cs in
  let u = c.osrc.(pe) in
  let hu = c.height.(u) in
  (* drop entire conflict pairs ending at u *)
  let brk = ref false in
  while (not !brk) && c.clen > 0 do
    let t = ctop c in
    if lowest c t = hu then begin
      c.clen <- c.clen - 1;
      if cs.(t) <> -1 then c.side.(cs.(t)) <- -1
    end
    else brk := true
  done;
  if c.clen > 0 then begin
    (* trim the top pair in place *)
    let t = ctop c in
    (* trim left interval *)
    while cs.(t + 1) <> -1 && c.odst.(cs.(t + 1)) = u do
      cs.(t + 1) <- c.refe.(cs.(t + 1))
    done;
    if cs.(t + 1) = -1 && cs.(t) <> -1 then begin
      (* just emptied *)
      c.refe.(cs.(t)) <- cs.(t + 2);
      c.side.(cs.(t)) <- -1;
      cs.(t) <- -1
    end;
    (* trim right interval *)
    while cs.(t + 3) <> -1 && c.odst.(cs.(t + 3)) = u do
      cs.(t + 3) <- c.refe.(cs.(t + 3))
    done;
    if cs.(t + 3) = -1 && cs.(t + 2) <> -1 then begin
      c.refe.(cs.(t + 2)) <- cs.(t);
      c.side.(cs.(t + 2)) <- -1;
      cs.(t + 2) <- -1
    end
  end;
  if c.lowpt.(pe) < hu && c.clen > 0 then begin
    (* the side of pe is the side of a highest return edge *)
    let t = ctop c in
    let hl = cs.(t + 1) and hr = cs.(t + 3) in
    c.refe.(pe) <-
      (if hl <> -1 && (hr = -1 || c.lowpt.(hl) > c.lowpt.(hr)) then hl else hr)
  end

(* The testing DFS. @raise Reject on a non-planar input. *)
let test_constraints c =
  let ind = c.ind in
  Array.blit c.oout 0 ind 0 c.n;
  Bytes.fill c.tinit 0 c.m '\000';
  Array.fill c.refe 0 c.m (-1);
  Array.fill c.side 0 c.m 1;
  Array.fill c.lowpt_e 0 c.m (-1);
  c.clen <- 0;
  let stack = c.stack and sp = ref 0 in
  for i = 0 to c.nroots - 1 do
    stack.(0) <- c.roots.(i);
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
        if Bytes.get c.tinit ei = '\000' && c.pedge.(w) = ei then begin
          (* tree edge, first encounter: record the stack bottom and
             descend; the return-edge integration happens on resume *)
          c.sbottom.(ei) <- c.clen;
          Bytes.set c.tinit ei '\001';
          stack.(!sp) <- v;
          stack.(!sp + 1) <- w;
          sp := !sp + 2;
          skip_final := true;
          brk := true
        end
        else begin
          if Bytes.get c.tinit ei = '\000' then begin
            (* back edge *)
            c.sbottom.(ei) <- c.clen;
            c.lowpt_e.(ei) <- ei;
            cpush c (-1) (-1) ei ei
          end;
          (* integrate new return edges *)
          if c.lowpt.(ei) < hv then begin
            if slot = c.oout.(v) then begin
              (* e_1 passes its constraints straight to the parent *)
              if pe >= 0 then c.lowpt_e.(pe) <- c.lowpt_e.(ei)
            end
            else add_constraints c ei pe
          end;
          ind.(v) <- slot + 1
        end
      done;
      if (not !skip_final) && pe >= 0 then remove_back_edges c pe
    done
  done

(* ------------------------------------------------------------------ *)
(* Phase 4: sign resolution and embedding                              *)
(* ------------------------------------------------------------------ *)

(* Resolve every edge's relative side to an absolute sign by following
   the reference chains once (memoized in place, so the total work is
   linear even though chains share suffixes). *)
let resolve_sides c =
  let chain = c.chain in
  for e0 = 0 to c.m - 1 do
    if c.refe.(e0) <> -1 then begin
      let len = ref 0 in
      let cur = ref e0 in
      while c.refe.(!cur) <> -1 do
        chain.(!len) <- !cur;
        incr len;
        cur := c.refe.(!cur)
      done;
      (* !cur is resolved; unwind from the deepest reference outwards *)
      let sgn = ref c.side.(!cur) in
      for i = !len - 1 downto 0 do
        let x = chain.(i) in
        c.side.(x) <- c.side.(x) * !sgn;
        c.refe.(x) <- -1;
        sgn := c.side.(x)
      done
    end
  done

(* The embedding DFS, on the view's dart table: [first], [nxt], [prv]
   hold one cyclic doubly linked list of darts per vertex. The half-edge
   "at [v] toward [w]" is the dart [w -> v], which lives in [v]'s own
   dart slice; for an oriented edge [v -> w] that is its [odart], and
   the half-edge at [w] toward [v] is its reversal. [lref]/[rref] hold
   the insertion-point half-edges of each vertex as darts. The lists are
   finally read off into [ring], vertex [v]'s rotation occupying its own
   slice [off.(v) .. off.(v+1) - 1]. *)
let embed_rotation c =
  let rev = c.rev and nxt = c.nxt and prv = c.prv and first = c.first in
  let lref = c.lref and rref = c.rref in
  Array.fill first 0 c.n (-1);
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
  let ind = c.ind in
  Array.blit c.oout 0 ind 0 c.n;
  let stack = c.stack and sp = ref 0 in
  for i = 0 to c.nroots - 1 do
    stack.(0) <- c.roots.(i);
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
    done
  done;
  (* read the rotations off the linked lists *)
  for v = 0 to c.n - 1 do
    let lo = c.off.(v) and hi = c.off.(v + 1) in
    if hi > lo then begin
      let d0 = first.(v) in
      if d0 = -1 then
        raise (Embedding_invalid "vertex with edges but no rotation");
      let d = ref d0 in
      for i = lo to hi - 1 do
        c.ring.(i) <- !d;
        d := nxt.(!d)
      done;
      if !d <> d0 then
        raise (Embedding_invalid "rotation list length mismatch")
    end
  done

(* ------------------------------------------------------------------ *)
(* Runs and entry points                                               *)
(* ------------------------------------------------------------------ *)

(* The test alone. @raise Reject on a non-planar input. *)
let test c =
  orient c;
  order_adjacency c ~lo:0 ~hi:(2 * c.n);
  test_constraints c

(* The whole kernel on the current view: [true] with the rotation in
   [c.ring], or [false] on a non-planar input. *)
let run c =
  let n = c.n in
  if n >= 3 && c.m > (3 * n) - 6 then false
  else
    match test c with
    | () ->
        resolve_sides c;
        for e = 0 to c.m - 1 do
          c.nesting.(e) <- c.nesting.(e) * c.side.(e)
        done;
        order_adjacency c ~lo:(-(2 * n)) ~hi:(2 * n);
        embed_rotation c;
        true
    | exception Reject -> false

let view_graph ws g =
  view ws ~n:(Gr.n g) ~m:(Gr.m g) ~off:(Gr.dart_offsets g)
    ~nbr:(Gr.dart_sources g) ~eid:(Gr.dart_edges g)
    ~rev:(Gr.dart_reversals g)

let embed g =
  let n = Gr.n g and m = Gr.m g in
  if n = 0 then Planar (Rotation.make g [||])
  else if m = 0 then
    Planar (Rotation.make g (Array.make n [||]))
  else begin
    let c = view_graph (workspace ()) g in
    if not (run c) then Nonplanar
    else begin
      let rot =
        Array.init n (fun v ->
            let lo = c.off.(v) in
            let r = Array.make (c.off.(v + 1) - lo) 0 in
            for i = 0 to Array.length r - 1 do
              r.(i) <- c.nbr.(c.ring.(lo + i))
            done;
            r)
      in
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
    end
  end

let is_planar g =
  let n = Gr.n g and m = Gr.m g in
  if m = 0 then true
  else if n >= 3 && m > (3 * n) - 6 then false
  else
    match test (view_graph (workspace ()) g) with
    | () -> true
    | exception Reject -> false

(* --- the reusable workspace's pair entry point --- *)

let pairs ws ~m =
  if Array.length ws.lo < m then begin
    let cap = grown (Array.length ws.lo) m in
    ws.lo <- Array.make cap 0;
    ws.hi <- Array.make cap 0
  end;
  (ws.lo, ws.hi)

let check_ring ws =
  let c = ws.core and b = ws.buf in
  let off = c.off and rev = c.rev and ring = c.ring in
  let seen = b.seen and face_next = b.face_next in
  Bytes.fill seen 0 off.(c.n) '\000';
  for v = 0 to c.n - 1 do
    let lo = off.(v) and hi = off.(v + 1) in
    for i = lo to hi - 1 do
      let d = ring.(i) in
      if d < lo || d >= hi || Bytes.get seen d <> '\000' then
        raise
          (Embedding_invalid
             "a vertex's ring is not a permutation of its darts");
      Bytes.set seen d '\001';
      (* next (u, v) = (v, succ_v u), set once the successor is checked *)
      if i > lo then face_next.(ring.(i - 1)) <- rev.(d)
    done;
    if hi > lo then face_next.(ring.(hi - 1)) <- rev.(ring.(lo))
  done;
  if
    Rotation.genus_of_faces ~n:c.n ~off ~srcs:c.nbr ~face_next ~seen
      ~queue:b.queue
    <> 0
  then
    raise
      (Embedding_invalid
         "accepted input produced a rotation that fails the Euler \
          face-trace check")

let embed_pairs ws ~n ~m =
  if m > Array.length ws.lo then
    invalid_arg "Lr.embed_pairs: more pairs than the workspace holds";
  let b0 = ws.buf in
  if n > b0.bcap_n || m > b0.bcap_m then
    ws.buf <-
      make_buffers ~cap_n:(grown b0.bcap_n n) ~cap_m:(grown b0.bcap_m m);
  let b = ws.buf in
  let m =
    Gr.sort_pairs_into ~n ~m ws.lo ws.hi ~lo1:b.lo1 ~hi1:b.hi1 ~start:b.start
  in
  Gr.csr_into ~n ~m ws.lo ws.hi ~xadj:b.xadj ~adjncy:b.adjncy
    ~dart_uedge:b.uedge ~dart_rev:b.drev ~fill:b.start;
  let c = view ws ~n ~m ~off:b.xadj ~nbr:b.adjncy ~eid:b.uedge ~rev:b.drev in
  run c
  && begin
       check_ring ws;
       true
     end

let edges ws = ws.core.m
let offsets ws = ws.core.off
let sources ws = ws.core.nbr
let ring ws = ws.core.ring

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
    match test (view (workspace ()) ~n ~m ~off ~nbr ~eid ~rev:[||]) with
    | () -> true
    | exception Reject -> false
  end
