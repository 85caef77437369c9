(* Proof-labeling certification of a planar embedding.

   The prover is centralized (it reads the accepted rotation system and
   writes certificates); the verifier is a genuine one-round CONGEST
   protocol on Network.exec. Soundness does not trust the prover: every
   field a node cannot check by itself is cross-checked against a
   neighbor's copy in the verification round, and the two global facts
   (the parent pointers form a spanning tree; the per-dart leader/dist
   fields count each face orbit exactly once) are pinned by local
   inequalities whose conjunction over all nodes implies them — see
   DESIGN.md §12 for the argument. *)

type t = {
  graph : Gr.t;
  root : int array;
  parent : int array;
  depth : int array;
  nv : int array;
  ne : int array;
  nf : int array;
  leader_u : int array;
  leader_v : int array;
  dist : int array;
}

(* ------------------------------------------------------------------ *)
(* Field widths and size accounting                                    *)
(* ------------------------------------------------------------------ *)

(* Bits to hold any value in [0 .. x] (at least 1). *)
let bits_for x =
  let rec go k acc = if k = 0 then acc else go (k lsr 1) (acc + 1) in
  if x <= 0 then 1 else go x 0

(* Declared field widths: ids are word-sized, counts and face distances
   sized to their ranges (an edge count is <= m, a face count and a
   face-walk distance are <= 2m = the dart count). *)
let widths g =
  let w_id = Bounds.word_bits (Gr.n g) in
  let w_edge = bits_for (Gr.m g) in
  let w_face = bits_for (2 * Gr.m g) in
  (w_id, w_edge, w_face, w_face)

type size = {
  nodes : int;
  total_bits : int;
  mean_bits : float;
  max_bits : int;
  word : int;
}

let size certs =
  let g = certs.graph in
  let n = Gr.n g in
  let (w_id, w_edge, w_face, w_dist) = widths g in
  (* root + parent + depth + nv are id-sized; ne and nf range-sized;
     each in-dart holds a leader name (an id pair) and a distance. *)
  let tree_bits = (4 * w_id) + w_edge + w_face in
  let dart_bits = (2 * w_id) + w_dist in
  let total = ref 0 and mx = ref 0 in
  for v = 0 to n - 1 do
    let b = tree_bits + (Gr.degree g v * dart_bits) in
    total := !total + b;
    if b > !mx then mx := b
  done;
  {
    nodes = n;
    total_bits = !total;
    mean_bits = float_of_int !total /. float_of_int (max 1 n);
    max_bits = !mx;
    word = w_id;
  }

(* ------------------------------------------------------------------ *)
(* The honest prover                                                   *)
(* ------------------------------------------------------------------ *)

let prove r =
  let g = Rotation.graph r in
  let n = Gr.n g in
  if n = 0 then invalid_arg "Certify.prove: empty graph";
  if not (Traverse.is_connected g) then
    invalid_arg "Certify.prove: disconnected graph";
  let root_id = n - 1 in
  let bt = Traverse.bfs g root_id in
  let darts = Gr.darts g in
  let leader_u = Array.make (max 1 darts) (-1) in
  let leader_v = Array.make (max 1 darts) (-1) in
  let dist = Array.make (max 1 darts) (-1) in
  let own_nf = Array.make n 0 in
  (* A dartless embedding (the single-vertex graph) has one face — the
     sphere around the lone vertex — with no orbit to walk. *)
  if darts = 0 then own_nf.(root_id) <- 1;
  List.iter
    (fun face ->
      let arr = Array.of_list face in
      let l = Array.length arr in
      (* Leader: the lexicographically least dart of the orbit. *)
      let p = ref 0 in
      for i = 1 to l - 1 do
        if arr.(i) < arr.(!p) then p := i
      done;
      let (lu, lv) = arr.(!p) in
      own_nf.(lv) <- own_nf.(lv) + 1;
      for i = 0 to l - 1 do
        let (u, v) = arr.(i) in
        let d = Gr.dart g ~src:u ~dst:v in
        leader_u.(d) <- lu;
        leader_v.(d) <- lv;
        dist.(d) <- (!p - i + l) mod l
      done)
    (Rotation.faces r);
  (* An edge is owned by its max-id endpoint; subtree sums accumulate
     in reverse BFS order, so children settle before their parent. *)
  let nv = Array.make n 1 in
  let ne =
    Array.init n (fun v ->
        Gr.fold_neighbors g v ~init:0 ~f:(fun acc u ->
            if u < v then acc + 1 else acc))
  in
  let nf = Array.copy own_nf in
  let order = bt.Traverse.order in
  for i = n - 1 downto 0 do
    let v = order.(i) in
    if v <> root_id then begin
      let p = bt.Traverse.parent.(v) in
      nv.(p) <- nv.(p) + nv.(v);
      ne.(p) <- ne.(p) + ne.(v);
      nf.(p) <- nf.(p) + nf.(v)
    end
  done;
  {
    graph = g;
    root = Array.make n root_id;
    parent = Array.copy bt.Traverse.parent;
    depth = Array.copy bt.Traverse.dist;
    nv;
    ne;
    nf;
    leader_u;
    leader_v;
    dist;
  }

(* ------------------------------------------------------------------ *)
(* Seeded corruption                                                   *)
(* ------------------------------------------------------------------ *)

let copy certs =
  {
    graph = certs.graph;
    root = Array.copy certs.root;
    parent = Array.copy certs.parent;
    depth = Array.copy certs.depth;
    nv = Array.copy certs.nv;
    ne = Array.copy certs.ne;
    nf = Array.copy certs.nf;
    leader_u = Array.copy certs.leader_u;
    leader_v = Array.copy certs.leader_v;
    dist = Array.copy certs.dist;
  }

let corrupt ~seed ~k certs =
  let g = certs.graph in
  let n = Gr.n g in
  if k < 0 || k > n then invalid_arg "Certify.corrupt: k out of range";
  let (w_id, w_edge, w_face, w_dist) = widths g in
  let t = copy certs in
  let rng = Random.State.make [| 0x5eed; seed |] in
  let offs = Gr.dart_offsets g in
  let ids = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + Random.State.int rng (n - i) in
    let tmp = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- tmp;
    let v = ids.(i) in
    let deg = offs.(v + 1) - offs.(v) in
    (* One uniformly random bit among the node's fields, each within
       its declared width so the flip is never a no-op. *)
    let field = Random.State.int rng (6 + (3 * deg)) in
    let (arr, idx, width) =
      match field with
      | 0 -> (t.root, v, w_id)
      | 1 -> (t.parent, v, w_id)
      | 2 -> (t.depth, v, w_id)
      | 3 -> (t.nv, v, w_id)
      | 4 -> (t.ne, v, w_edge)
      | 5 -> (t.nf, v, w_face)
      | f ->
          let d = offs.(v) + ((f - 6) / 3) in
          (match (f - 6) mod 3 with
          | 0 -> (t.leader_u, d, w_id)
          | 1 -> (t.leader_v, d, w_id)
          | _ -> (t.dist, d, w_dist))
    in
    arr.(idx) <- arr.(idx) lxor (1 lsl Random.State.int rng width)
  done;
  t

(* ------------------------------------------------------------------ *)
(* The one-round verifier                                              *)
(* ------------------------------------------------------------------ *)

type state = {
  waiting : int;
  bad : int;
  sum_nv : int;
  sum_ne : int;
  sum_nf : int;
  settled : bool;
}

type msg = {
  m_root : int;
  m_parent : int;
  m_depth : int;
  m_nv : int;
  m_ne : int;
  m_nf : int;
  m_lu : int;
  m_lv : int;
  m_dist : int;
}

let reason_name = function
  | 0 -> "accepted"
  | 1 -> "root-id mismatch with a neighbor"
  | 2 -> "malformed parent/depth fields"
  | 3 -> "root self-check failed"
  | 4 -> "depth is not parent's depth + 1"
  | 5 -> "subtree sums do not add up"
  | 6 -> "Euler's formula fails at the root"
  | 7 -> "face-leader name changes along an orbit"
  | 8 -> "face distance fails to step down"
  | 9 -> "dart claims dist 0 without being its orbit's leader"
  | 10 -> "verification never completed"
  | r -> Printf.sprintf "unknown reason %d" r

(* Violations merge by min — commutative and associative, so the final
   verdict is independent of delivery order (the chaos property test
   relies on this). *)
let flag bad r = if bad = 0 then r else min bad r

let check_graphs name a b =
  if Gr.n a <> Gr.n b || Gr.darts a <> Gr.darts b then
    invalid_arg (name ^ ": certificates issued for a different graph")

let protocol r certs =
  let g = Rotation.graph r in
  check_graphs "Certify.protocol" g certs.graph;
  let n = Gr.n g in
  let (w_id, w_edge, w_face, w_dist) = widths g in
  let message_bits = (6 * w_id) + w_edge + w_face + w_dist in
  let offs = Gr.dart_offsets g in
  let own_ne =
    Array.init n (fun v ->
        Gr.fold_neighbors g v ~init:0 ~f:(fun acc u ->
            if u < v then acc + 1 else acc))
  in
  (* The node's own face-leader claims: in-darts at certified distance
     0 (the local zero-check below pins them to actual leader names). *)
  let own_nf =
    Array.init n (fun v ->
        if offs.(v + 1) = offs.(v) then
          (* Degree 0 only happens on the single-vertex network (prove
             rejects disconnected graphs): the dartless embedding has
             one face and no orbit to certify it. *)
          1
        else begin
          let c = ref 0 in
          for d = offs.(v) to offs.(v + 1) - 1 do
            if certs.dist.(d) = 0 then incr c
          done;
          !c
        end)
  in
  let local_bad v =
    let b = ref 0 in
    let rho = certs.root.(v)
    and p = certs.parent.(v)
    and d = certs.depth.(v) in
    if d < 0 then b := flag !b 2
    else if d = 0 then begin
      if not (v = rho && p = v) then b := flag !b 3
    end
    else if not (p >= 0 && p < n && p <> v && Gr.mem_edge g p v) then
      b := flag !b 2;
    if v = rho && d <> 0 then b := flag !b 3;
    for dt = offs.(v) to offs.(v + 1) - 1 do
      let dd = certs.dist.(dt) in
      if
        dd < 0
        || dd = 0
           && not
                (certs.leader_u.(dt) = Gr.dart_src g dt
                && certs.leader_v.(dt) = v)
      then b := flag !b 9
    done;
    !b
  in
  let absorb v st u m =
    let b = ref st.bad in
    if m.m_root <> certs.root.(v) then b := flag !b 1;
    if u = certs.parent.(v) && certs.depth.(v) <> m.m_depth + 1 then
      b := flag !b 4;
    let d = Gr.dart g ~src:u ~dst:v in
    if m.m_lu <> certs.leader_u.(d) || m.m_lv <> certs.leader_v.(d) then
      b := flag !b 7;
    if m.m_dist > 0 && certs.dist.(d) <> m.m_dist - 1 then b := flag !b 8;
    let (snv, sne, snf) =
      if m.m_parent = v then
        (st.sum_nv + m.m_nv, st.sum_ne + m.m_ne, st.sum_nf + m.m_nf)
      else (st.sum_nv, st.sum_ne, st.sum_nf)
    in
    {
      st with
      waiting = st.waiting - 1;
      bad = !b;
      sum_nv = snv;
      sum_ne = sne;
      sum_nf = snf;
    }
  in
  let finalize v st =
    let b = ref st.bad in
    if
      certs.nv.(v) <> 1 + st.sum_nv
      || certs.ne.(v) <> own_ne.(v) + st.sum_ne
      || certs.nf.(v) <> own_nf.(v) + st.sum_nf
    then b := flag !b 5;
    if certs.root.(v) = v && certs.nv.(v) - certs.ne.(v) + certs.nf.(v) <> 2
    then b := flag !b 6;
    { st with bad = !b; settled = true }
  in
  {
    Network.init =
      (fun g v send ->
        let rot_v = Rotation.rotation r v in
        let deg = Array.length rot_v in
        let st =
          {
            waiting = deg;
            bad = local_bad v;
            sum_nv = 0;
            sum_ne = 0;
            sum_nf = 0;
            settled = false;
          }
        in
        let st = if deg = 0 then finalize v st else st in
        for i = 0 to deg - 1 do
          let w = rot_v.(i) in
          (* The recipient w holds the in-dart v -> w; its face-orbit
             predecessor is (pred -> v) where pred precedes w in v's
             clockwise order — exactly the dart record w must check
             its own against. *)
          let pred = rot_v.((i + deg - 1) mod deg) in
          let dp = Gr.dart g ~src:pred ~dst:v in
          send w
              {
                m_root = certs.root.(v);
                m_parent = certs.parent.(v);
                m_depth = certs.depth.(v);
                m_nv = certs.nv.(v);
                m_ne = certs.ne.(v);
                m_nf = certs.nf.(v);
                m_lu = certs.leader_u.(dp);
                m_lv = certs.leader_v.(dp);
                m_dist = certs.dist.(dp);
              }
        done;
        st);
    round =
      (fun _g v st inbox _send ->
        if st.settled || Network.Inbox.length inbox = 0 then st
        else begin
          let st = Network.Inbox.fold (absorb v) st inbox in
          if st.waiting = 0 then finalize v st else st
        end);
    msg_bits = (fun _ -> message_bits);
  }

(* ------------------------------------------------------------------ *)
(* The run wrapper                                                     *)
(* ------------------------------------------------------------------ *)

type outcome = {
  accept : bool array;
  reasons : int array;
  all_accept : bool;
  rounds : int;
  report : Network.report;
  size : size;
}

let verify ?(config = Network.Config.default) r certs =
  let g = Rotation.graph r in
  check_graphs "Certify.verify" g certs.graph;
  let bandwidth =
    match config.Network.Config.bandwidth with
    | Some b -> b
    | None -> Network.default_bandwidth g
  in
  let faults = config.Network.Config.faults in
  let observe = config.Network.Config.observe in
  let proto = protocol r certs in
  (* A clean run self-checks the one-round claim: with d = 0 and
     c_rounds = 1 the Bounds round budget is exactly one round, and
     c_bits = 16 is the default per-message word budget. Under a fault
     plan the reliable layer legitimately takes extra rounds, so no
     bound is installed there. *)
  let observe =
    match (faults, Observe.bounds observe) with
    | Some _, _ | None, Some _ -> observe
    | None, None ->
        Observe.make
          ?metrics:(Observe.metrics observe)
          ?trace:(Observe.trace observe)
          ~bounds:(Observe.bounds_spec ~c_rounds:1 ~c_bits:16 ~d:0 ())
          ()
  in
  let clock () =
    match Observe.metrics observe with
    | Some m -> Metrics.rounds m
    | None -> 0
  in
  let run () =
    match faults with
    | None ->
        Network.exec
          ~config:
            {
              config with
              Network.Config.bandwidth = Some bandwidth;
              observe;
            }
          g proto
    | Some plan ->
        Reliable.exec ~domains:config.Network.Config.domains ~bandwidth
          ~observe ~faults:plan g proto
  in
  let res = Trace.with_span (Observe.trace observe) "certify.verify" ~clock run in
  let states = res.Network.states in
  let reasons =
    Array.map (fun st -> if st.settled then st.bad else flag st.bad 10) states
  in
  let accept = Array.map (fun rsn -> rsn = 0) reasons in
  {
    accept;
    reasons;
    all_accept = Array.for_all (fun a -> a) accept;
    rounds = res.Network.rounds;
    report = res.Network.report;
    size = size certs;
  }
