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
   the checked [Rotation.make_owned] and the Euler check; [embed_pairs] checks
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
  (* orientation of each edge, v -> w *)
  osrc : int array;
  odst : int array;  (* w for a tree edge, [lnot w] for a back edge *)
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
  (* outgoing adjacency ordered by nesting depth (rebuilt for phase 4);
     [onbr] copies [odst], so a tree edge reads as its sign *)
  oout : int array;  (* n + 1 offsets *)
  onbr : int array;
  oeid : int array;
  odart : int array;  (* [oslot] of the edge, in the same order *)
  stack : int array;  (* the DFS stack shared by the three DFS phases *)
  ind : int array;  (* per-vertex DFS resume slots, shared likewise *)
  (* temporaries of the nesting-order sort: the key buckets are counted
     by the phase before each sort (orient, resolve_sides) *)
  count : int array;  (* 4n + 2 key buckets *)
  sorted : int array;
  cur : int array;
  (* temporaries of the testing DFS: the conflict-pair stack, flat, four
     entries per pair (left lo, left hi, right lo, right hi) *)
  cs : int array;
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
    cs = Array.make (4 * cap_m) 0;
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
  count : int array;  (* 2n + 2; the sort's buckets, then the CSR cursor *)
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
    count = Array.make (2 * (cap_n + 1)) 0;
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

(* Every phase reads the core's arrays into locals once: four of them
   are mutable fields, which the compiler would otherwise reload on every
   access, and the small helpers of the hot loops are written out in
   place (no closure, no call). Integer [min] is spelled out too: the
   polymorphic one compares through the runtime. *)

(* The DFS classifies each slot of [v] (toward [w]) by heights alone:
   undirected DFS has no cross edges, so a visited [w] lower than [v] is
   an ancestor (the edge is [v]'s parent edge, or a back edge met first
   from [v]) and a higher one is a descendant (the tree edge just
   returned from, or a back edge it oriented). A tree edge is descended
   at once; [v] goes back on the stack as [lnot v] and resumes at that
   edge's slot, kept in [ind]. Each edge is counted
   under its source and its nesting depth as it completes: the buckets
   of the first nesting-order sort. *)
let orient c =
  let n = c.n in
  let off = c.off and nbr = c.nbr and eid = c.eid in
  let osrc = c.osrc and odst = c.odst and oslot = c.oslot in
  let height = c.height and pedge = c.pedge in
  let lowpt = c.lowpt and lowpt2 = c.lowpt2 and nesting = c.nesting in
  let count = c.count and outdeg = c.cur in
  let ind = c.ind and stack = c.stack and roots = c.roots in
  Array.fill height 0 n (-1);
  Array.fill pedge 0 n (-1);
  Array.fill outdeg 0 n 0;
  Array.fill count 0 ((2 * n) + 2) 0;
  let nroots = ref 0 in
  for r = 0 to n - 1 do
    if height.(r) = -1 then begin
      (* every unvisited vertex roots a DFS (isolated ones trivially) *)
      height.(r) <- 0;
      roots.(!nroots) <- r;
      incr nroots;
      stack.(0) <- r;
      let sp = ref 1 in
      while !sp > 0 do
        decr sp;
        let x = stack.(!sp) in
        let v = if x >= 0 then x else lnot x in
        let pe = pedge.(v) and hv = height.(v) in
        let stop = off.(v + 1) in
        let s = ref (if x >= 0 then off.(v) else ind.(v)) in
        while !s < stop do
          let s0 = !s in
          let w = nbr.(s0) and e = eid.(s0) in
          let hw = height.(w) in
          if hw = -1 then begin
            (* tree edge: descend, finish on resume at this slot *)
            osrc.(e) <- v;
            odst.(e) <- w;
            oslot.(e) <- s0;
            outdeg.(v) <- outdeg.(v) + 1;
            lowpt.(e) <- hv;
            lowpt2.(e) <- hv;
            pedge.(w) <- e;
            height.(w) <- hv + 1;
            ind.(v) <- s0;
            stack.(!sp) <- lnot v;
            stack.(!sp + 1) <- w;
            sp := !sp + 2;
            s := stop
          end
          else begin
            (* [fin]: the edge this slot completes, if any — a back edge
               met now, or the tree edge just returned from *)
            let fin =
              if hw < hv then
                if e = pe then -1
                else begin
                  osrc.(e) <- v;
                  odst.(e) <- lnot w;
                  oslot.(e) <- s0;
                  outdeg.(v) <- outdeg.(v) + 1;
                  lowpt.(e) <- hw;
                  lowpt2.(e) <- hv;
                  e
                end
              else if pedge.(w) = e then e
              else -1
            in
            if fin >= 0 then begin
              (* its nesting depth, and the lowpoint update of [pe] *)
              let le = lowpt.(e) and l2e = lowpt2.(e) in
              let k = (2 * le) + if l2e < hv then 1 else 0 in
              nesting.(e) <- k;
              count.(k) <- count.(k) + 1;
              if pe >= 0 then begin
                let lp = lowpt.(pe) and l2p = lowpt2.(pe) in
                if le < lp then begin
                  lowpt2.(pe) <- (if lp < l2e then lp else l2e);
                  lowpt.(pe) <- le
                end
                else if le > lp then
                  lowpt2.(pe) <- (if l2p < le then l2p else le)
                else lowpt2.(pe) <- (if l2p < l2e then l2p else l2e)
              end
            end;
            s := s0 + 1
          end
        done
      done
    end
  done;
  c.nroots <- !nroots

(* ------------------------------------------------------------------ *)
(* Nesting-order adjacency (global counting sort, O(n + m))            *)
(* ------------------------------------------------------------------ *)

(* Sort all oriented edges by nesting depth at once, then scatter them
   to their source vertices in that order; per-vertex lists come out
   sorted because the scatter is stable. The phase before each call has
   counted the keys into [count]. The first call (phase 2) keys on the
   depth in [0, 2n] and builds the out-offsets [oout] from the
   out-degrees [orient] left in [cur]; the second ([~signed], phase 4)
   keys on depth times side in [-2n, 2n] and reuses [oout]: the
   orientation has not changed in between. *)
let order_adjacency c ~signed =
  let n = c.n and m = c.m in
  let nesting = c.nesting and side = c.side in
  let osrc = c.osrc and odst = c.odst and oslot = c.oslot in
  let count = c.count and sorted = c.sorted and cur = c.cur and oout = c.oout in
  let onbr = c.onbr and oeid = c.oeid and odart = c.odart in
  let range = if signed then 4 * n else 2 * n in
  if not signed then begin
    oout.(0) <- 0;
    for v = 0 to n - 1 do
      oout.(v + 1) <- oout.(v) + cur.(v)
    done
  end;
  let acc = ref 0 in
  for k = 0 to range do
    let t = count.(k) in
    count.(k) <- !acc;
    acc := !acc + t
  done;
  if signed then begin
    let lo = -2 * n in
    for e = 0 to m - 1 do
      let k = (nesting.(e) * side.(e)) - lo in
      let j = count.(k) in
      sorted.(j) <- e;
      count.(k) <- j + 1
    done
  end
  else
    for e = 0 to m - 1 do
      let k = nesting.(e) in
      let j = count.(k) in
      sorted.(j) <- e;
      count.(k) <- j + 1
    done;
  (* [cur] is now the scatter cursor (a loop: [Array.blit] into an array
     in the major heap goes through the write barrier per entry) *)
  for v = 0 to n - 1 do
    cur.(v) <- oout.(v)
  done;
  for i = 0 to m - 1 do
    let e = sorted.(i) in
    let v = osrc.(e) in
    let j = cur.(v) in
    onbr.(j) <- odst.(e);
    oeid.(j) <- e;
    odart.(j) <- oslot.(e);
    cur.(v) <- j + 1
  done

(* ------------------------------------------------------------------ *)
(* Phase 3: testing DFS with the conflict-pair stack                   *)
(* ------------------------------------------------------------------ *)

(* A conflict pair is two intervals of back edges, left and right, each
   [lo, hi] with (-1, -1) the empty one. The stack keeps them flat: pair
   [i] is [c.cs.(4i .. 4i + 3)] = left lo, left hi, right lo, right hi. *)

(* The testing DFS. A vertex goes back on the stack as [lnot v] when it
   descends a tree edge, and resumes at that edge's slot, where the
   child's constraints are integrated. The two steps of Brandes' test
   are written out in the loop, on locals:
   - adding the constraints of an outgoing edge [ei] of [v] to those of
     [v]'s parent edge [pe]: same-side alignment for return edges not
     outlasting [pe], interval merging for the rest, and interleaving
     conflicts forced to opposite sides, the new pair p built in four
     locals;
   - once [v] is finished, removing the back edges that return to [v]'s
     parent [u] from the stack; [pe] then inherits the side reference of
     a highest surviving return edge.
   @raise Reject on a non-planar input: a conflict on both sides. *)
let test_constraints c =
  let m = c.m in
  let oout = c.oout and onbr = c.onbr and oeid = c.oeid in
  let osrc = c.osrc and odst = c.odst in
  let pedge = c.pedge and height = c.height and lowpt = c.lowpt in
  let refe = c.refe and side = c.side in
  let lowpt_e = c.lowpt_e and sbottom = c.sbottom in
  let cs = c.cs and ind = c.ind and stack = c.stack and roots = c.roots in
  Array.fill refe 0 m (-1);
  Array.fill side 0 m 1;
  Array.fill lowpt_e 0 m (-1);
  let clen = ref 0 in
  for i = 0 to c.nroots - 1 do
    stack.(0) <- roots.(i);
    let sp = ref 1 in
    while !sp > 0 do
      decr sp;
      let x = stack.(!sp) in
      let v = if x >= 0 then x else lnot x in
      let pe = pedge.(v) and hv = height.(v) in
      let first = oout.(v) and stop = oout.(v + 1) in
      let descended = ref false and resumed = ref (x < 0) in
      let s = ref (if x >= 0 then first else ind.(v)) in
      while !s < stop do
        let slot = !s in
        let w = onbr.(slot) and ei = oeid.(slot) in
        let tree = w >= 0 in
        if tree && not !resumed then begin
          (* tree edge, first encounter: record the stack bottom and
             descend; the return-edge integration happens on resume *)
          sbottom.(ei) <- !clen;
          ind.(v) <- slot;
          stack.(!sp) <- lnot v;
          stack.(!sp + 1) <- w;
          sp := !sp + 2;
          descended := true;
          s := stop
        end
        else begin
          resumed := false;
          if not tree then begin
            (* back edge: push the pair (empty, [ei, ei]) *)
            sbottom.(ei) <- !clen;
            lowpt_e.(ei) <- ei;
            let b = 4 * !clen in
            cs.(b) <- -1;
            cs.(b + 1) <- -1;
            cs.(b + 2) <- ei;
            cs.(b + 3) <- ei;
            incr clen
          end;
          (* integrate new return edges *)
          let lei = lowpt.(ei) in
          if lei < hv then begin
            if slot = first then begin
              (* e_1 passes its constraints straight to the parent *)
              if pe >= 0 then lowpt_e.(pe) <- lowpt_e.(ei)
            end
            else begin
              (* add the constraints of ei to those of pe *)
              let pllo = ref (-1) and plhi = ref (-1) in
              let prlo = ref (-1) and prhi = ref (-1) in
              (* merge return edges of ei into p.r *)
              let bottom = sbottom.(ei) and lpe = lowpt.(pe) in
              let brk = ref false in
              while not !brk do
                decr clen;
                let b = 4 * !clen in
                (* q, swapped so that its return edges are on the right *)
                let l0 = cs.(b) and l1 = cs.(b + 1) in
                let r0 = cs.(b + 2) and r1 = cs.(b + 3) in
                let qlo, qhi =
                  if l0 = -1 && l1 = -1 then (r0, r1)
                  else if r0 = -1 && r1 = -1 then (l0, l1)
                  else raise Reject
                in
                if lowpt.(qlo) > lpe then begin
                  (* merge intervals *)
                  if !prlo = -1 && !prhi = -1 then prhi := qhi
                  else refe.(!prlo) <- qhi;
                  prlo := qlo
                end
                else
                  (* align with the parent's lowpoint edge *)
                  refe.(qlo) <- lowpt_e.(pe);
                if !clen = bottom then brk := true
              done;
              (* merge conflicting return edges of earlier siblings into
                 p.l; an interval ending at [hi] conflicts with ei when
                 [hi <> -1 && lowpt.(hi) > lei] *)
              while
                !clen > 0
                &&
                let t = 4 * (!clen - 1) in
                let l1 = cs.(t + 1) and r1 = cs.(t + 3) in
                (l1 <> -1 && lowpt.(l1) > lei) || (r1 <> -1 && lowpt.(r1) > lei)
              do
                decr clen;
                let b = 4 * !clen in
                (* q, swapped so that its right interval does not
                   conflict *)
                let l0 = cs.(b) and l1 = cs.(b + 1) in
                let r0 = cs.(b + 2) and r1 = cs.(b + 3) in
                let qllo, qlhi, qrlo, qrhi =
                  if not (r1 <> -1 && lowpt.(r1) > lei) then (l0, l1, r0, r1)
                  else if not (l1 <> -1 && lowpt.(l1) > lei) then
                    (r0, r1, l0, l1)
                  else raise Reject
                in
                (* merge the interval below lowpt ei into p.r *)
                if !prlo <> -1 then refe.(!prlo) <- qrhi;
                if qrlo <> -1 then prlo := qrlo;
                if !pllo = -1 && !plhi = -1 then plhi := qlhi
                else refe.(!pllo) <- qlhi;
                pllo := qllo
              done;
              if not (!pllo = -1 && !plhi = -1 && !prlo = -1 && !prhi = -1)
              then begin
                let b = 4 * !clen in
                cs.(b) <- !pllo;
                cs.(b + 1) <- !plhi;
                cs.(b + 2) <- !prlo;
                cs.(b + 3) <- !prhi;
                incr clen
              end
            end
          end;
          s := slot + 1
        end
      done;
      if (not !descended) && pe >= 0 then begin
        (* remove back edges returning to the parent u *)
        let u = osrc.(pe) in
        let hu = height.(u) in
        (* drop entire conflict pairs ending at u: those whose lowest
           return point is u *)
        let brk = ref false in
        while (not !brk) && !clen > 0 do
          let t = 4 * (!clen - 1) in
          let l0 = cs.(t) and l1 = cs.(t + 1) in
          let r0 = cs.(t + 2) and r1 = cs.(t + 3) in
          let lowest =
            if l0 = -1 && l1 = -1 then lowpt.(r0)
            else if r0 = -1 && r1 = -1 then lowpt.(l0)
            else
              let a = lowpt.(l0) and b = lowpt.(r0) in
              if a < b then a else b
          in
          if lowest = hu then begin
            decr clen;
            if l0 <> -1 then side.(l0) <- -1
          end
          else brk := true
        done;
        if !clen > 0 then begin
          (* trim the top pair in place *)
          let t = 4 * (!clen - 1) in
          (* trim left interval *)
          while cs.(t + 1) <> -1 && odst.(cs.(t + 1)) = lnot u do
            cs.(t + 1) <- refe.(cs.(t + 1))
          done;
          if cs.(t + 1) = -1 && cs.(t) <> -1 then begin
            (* just emptied *)
            refe.(cs.(t)) <- cs.(t + 2);
            side.(cs.(t)) <- -1;
            cs.(t) <- -1
          end;
          (* trim right interval *)
          while cs.(t + 3) <> -1 && odst.(cs.(t + 3)) = lnot u do
            cs.(t + 3) <- refe.(cs.(t + 3))
          done;
          if cs.(t + 3) = -1 && cs.(t + 2) <> -1 then begin
            refe.(cs.(t + 2)) <- cs.(t);
            side.(cs.(t + 2)) <- -1;
            cs.(t + 2) <- -1
          end
        end;
        if lowpt.(pe) < hu && !clen > 0 then begin
          (* the side of pe is the side of a highest return edge *)
          let t = 4 * (!clen - 1) in
          let hl = cs.(t + 1) and hr = cs.(t + 3) in
          refe.(pe) <-
            (if hl <> -1 && (hr = -1 || lowpt.(hl) > lowpt.(hr)) then hl
             else hr)
        end
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* Phase 4: sign resolution and embedding                              *)
(* ------------------------------------------------------------------ *)

(* Resolve every edge's relative side to an absolute sign by following
   the reference chains once (memoized in place, so the total work is
   linear even though chains share suffixes). An edge's side is final
   once the loop has passed it, so the loop also counts the signed
   nesting keys of the second sort. *)
let resolve_sides c =
  let n = c.n in
  let chain = c.chain and refe = c.refe and side = c.side in
  let nesting = c.nesting and count = c.count in
  Array.fill count 0 ((4 * n) + 2) 0;
  for e0 = 0 to c.m - 1 do
    if refe.(e0) <> -1 then begin
      let len = ref 0 in
      let cur = ref e0 in
      while refe.(!cur) <> -1 do
        chain.(!len) <- !cur;
        incr len;
        cur := refe.(!cur)
      done;
      (* !cur is resolved; unwind from the deepest reference outwards *)
      let sgn = ref side.(!cur) in
      for i = !len - 1 downto 0 do
        let x = chain.(i) in
        let sx = side.(x) * !sgn in
        side.(x) <- sx;
        refe.(x) <- -1;
        sgn := sx
      done
    end;
    let k = (nesting.(e0) * side.(e0)) + (2 * n) in
    count.(k) <- count.(k) + 1
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
  let n = c.n in
  let off = c.off and rev = c.rev and ring = c.ring in
  let oout = c.oout and onbr = c.onbr and oeid = c.oeid and odart = c.odart in
  let side = c.side in
  let nxt = c.nxt and prv = c.prv and first = c.first in
  let lref = c.lref and rref = c.rref in
  let ind = c.ind and stack = c.stack and roots = c.roots in
  (* each vertex starts as the cycle of its outgoing edges in nesting
     order *)
  for v = 0 to n - 1 do
    let a = oout.(v) and b = oout.(v + 1) in
    if a = b then first.(v) <- -1
    else begin
      let d0 = odart.(a) in
      first.(v) <- d0;
      let p = ref d0 in
      for slot = a + 1 to b - 1 do
        let d = odart.(slot) in
        nxt.(!p) <- d;
        prv.(d) <- !p;
        p := d
      done;
      nxt.(!p) <- d0;
      prv.(d0) <- !p
    end
  done;
  (* the embedding DFS places the reverse half-edges; a vertex resumes
     after the tree edge it descended, as in the testing DFS *)
  for i = 0 to c.nroots - 1 do
    stack.(0) <- roots.(i);
    let sp = ref 1 in
    while !sp > 0 do
      decr sp;
      let x = stack.(!sp) in
      let v = if x >= 0 then x else lnot x in
      let stop = oout.(v + 1) in
      let s = ref (if x >= 0 then oout.(v) else ind.(v)) in
      while !s < stop do
        let slot = !s in
        let w = onbr.(slot) in
        (* the half-edges of v -> w at v (dart w -> v) and at w *)
        let dv = odart.(slot) in
        let d = rev.(dv) in
        s := slot + 1;
        if w >= 0 then begin
          (* tree edge: w's edge to its parent goes first at w; back
             edges from w's subtree insert next to this tree edge *)
          let f = first.(w) in
          if f = -1 then begin
            nxt.(d) <- d;
            prv.(d) <- d
          end
          else begin
            (* insert [d] after the last dart, before [f] *)
            let rd = prv.(f) in
            let nx = nxt.(rd) in
            nxt.(rd) <- d;
            prv.(d) <- rd;
            nxt.(d) <- nx;
            prv.(nx) <- d
          end;
          first.(w) <- d;
          lref.(v) <- dv;
          rref.(v) <- dv;
          ind.(v) <- slot + 1;
          stack.(!sp) <- lnot v;
          stack.(!sp + 1) <- w;
          sp := !sp + 2;
          s := stop
        end
        else if side.(oeid.(slot)) = 1 then begin
          (* back edge on the right: insert [d] after the right
             reference of [w] *)
          let rd = rref.(lnot w) in
          let nx = nxt.(rd) in
          nxt.(rd) <- d;
          prv.(d) <- rd;
          nxt.(d) <- nx;
          prv.(nx) <- d
        end
        else begin
          (* on the left: insert [d] before the left reference of [w],
             which it becomes *)
          let w = lnot w in
          let l = lref.(w) in
          let rd = prv.(l) in
          let nx = nxt.(rd) in
          nxt.(rd) <- d;
          prv.(d) <- rd;
          nxt.(d) <- nx;
          prv.(nx) <- d;
          if first.(w) = l then first.(w) <- d;
          lref.(w) <- d
        end
      done
    done
  done;
  (* read the rotations off the linked lists *)
  for v = 0 to n - 1 do
    let lo = off.(v) and hi = off.(v + 1) in
    if hi > lo then begin
      let d0 = first.(v) in
      if d0 = -1 then
        raise (Embedding_invalid "vertex with edges but no rotation");
      let d = ref d0 in
      for i = lo to hi - 1 do
        ring.(i) <- !d;
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
  order_adjacency c ~signed:false;
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
        order_adjacency c ~signed:true;
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
        try Rotation.make_owned g rot
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
  let n = c.n in
  let off = c.off and rev = c.rev and ring = c.ring in
  let seen = b.seen and face_next = b.face_next in
  Bytes.fill seen 0 off.(n) '\000';
  let hi = ref off.(0) in
  for v = 0 to n - 1 do
    let lo = !hi in
    hi := off.(v + 1);
    if !hi > lo then begin
      (* next (u, v) = (v, succ_v u), set once the successor is checked *)
      let d0 = ring.(lo) in
      let prev = ref d0 in
      for i = lo to !hi - 1 do
        let d = ring.(i) in
        if d < lo || d >= !hi || Bytes.get seen d <> '\000' then
          raise
            (Embedding_invalid
               "a vertex's ring is not a permutation of its darts");
        Bytes.set seen d '\001';
        if i > lo then face_next.(!prev) <- rev.(d);
        prev := d
      done;
      face_next.(!prev) <- rev.(d0)
    end
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
    Gr.csr_of_pairs_into ~n ~m ws.lo ws.hi ~lo1:b.lo1 ~hi1:b.hi1 ~count:b.count
      ~xadj:b.xadj ~adjncy:b.adjncy ~dart_uedge:b.uedge ~dart_rev:b.drev
  in
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
