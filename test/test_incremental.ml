(* Differential suite for the incremental maintainer (ISSUE 9).

   The core harness replays seeded churn traces over every generator
   family while mirroring the live edge set in a reference table: each
   insert's verdict is compared against a from-scratch kernel run on the
   mirror, each delete's boolean against mirror membership, and at every
   batch boundary the maintained rotation must (a) hold exactly the
   mirror's edges, (b) pass the Euler genus check, and (c) — whenever
   the graph is connected — produce a certificate that the distributed
   verifier accepts. Directed tests pin the individual update paths:
   a theta-graph insert that provably cannot ride the fast path, the
   non-planar rejection leaving the state untouched bit-for-bit, bridge
   links, stale-connectivity fallbacks, and the delete-triggered scoped
   re-decomposition. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let planar g =
  match Planarity.embed g with
  | Planarity.Planar _ -> true
  | Planarity.Nonplanar -> false

let sorted_edges l =
  List.sort compare (List.map (fun (u, v) -> (min u v, max u v)) l)

(* ------------------------------------------------------------------ *)
(* Mirror-differential trace replay                                    *)
(* ------------------------------------------------------------------ *)

let mirror_key n u v = if u < v then (u * n) + v else (v * n) + u

let accepted = function
  | Incremental.Fast | Incremental.Linked | Incremental.Reembedded _ -> true
  | Incremental.Rejected | Incremental.Duplicate -> false

let check_batch name inc mirror =
  check_bool (name ^ ": euler check") true (Incremental.validate inc);
  check (name ^ ": live edge count") (Hashtbl.length mirror) (Incremental.m inc);
  let got = sorted_edges (Incremental.live_edges inc) in
  let want =
    sorted_edges (Hashtbl.fold (fun _ e acc -> e :: acc) mirror [])
  in
  Alcotest.(check (list (pair int int))) (name ^ ": edge sets agree") want got;
  let r = Incremental.rotation inc in
  let g = Rotation.graph r in
  if Gr.m g > 0 && Traverse.is_connected g then begin
    let cert = Certify.prove r in
    let outcome = Certify.verify r cert in
    check_bool (name ^ ": certificate accepted") true outcome.Certify.all_accept
  end

let run_trace name ?(fresh_prob = 0.1) ?(insert_pct = 60) ?(updates = 300)
    ?(batch = 60) ~seed g =
  let n = Gr.n g in
  let tr = Churn.make ~seed ~updates ~insert_pct ~fresh_prob g in
  let g0 = Churn.initial_graph tr in
  check_bool (name ^ ": pool subset is planar") true (planar g0);
  let inc = Incremental.create g0 in
  let mirror = Hashtbl.create 64 in
  List.iter
    (fun (u, v) -> Hashtbl.replace mirror (mirror_key n u v) (min u v, max u v))
    tr.Churn.initial;
  check_batch (name ^ " @init") inc mirror;
  Array.iteri
    (fun i op ->
      (match op with
      | Churn.Insert (u, v) ->
          let k = mirror_key n u v in
          let res = Incremental.insert inc u v in
          if Hashtbl.mem mirror k then
            check_bool
              (Printf.sprintf "%s op %d: duplicate" name i)
              true
              (res = Incremental.Duplicate)
          else begin
            let g' =
              Gr.of_edges ~n
                ((u, v) :: Hashtbl.fold (fun _ e acc -> e :: acc) mirror [])
            in
            let expect = planar g' in
            check_bool
              (Printf.sprintf "%s op %d: insert (%d,%d) verdict" name i u v)
              expect (accepted res);
            if expect then Hashtbl.replace mirror k (min u v, max u v)
          end
      | Churn.Delete (u, v) ->
          let k = mirror_key n u v in
          let expect = Hashtbl.mem mirror k in
          check_bool
            (Printf.sprintf "%s op %d: delete (%d,%d) verdict" name i u v)
            expect
            (Incremental.delete inc u v);
          Hashtbl.remove mirror k);
      if (i + 1) mod batch = 0 then
        check_batch (Printf.sprintf "%s @%d" name (i + 1)) inc mirror)
    tr.Churn.ops;
  check_batch (name ^ " @end") inc mirror;
  (* Within-pool inserts of a planar pool can only be rejected when an
     accepted fresh edge is in the way; with fresh_prob = 0 none may be. *)
  if fresh_prob = 0.0 then
    check (name ^ ": no rejects within pool") 0 (Incremental.stats inc).rejected

let families =
  [
    ("grid", Gen.grid 12 10);
    ("trigrid", Gen.triangular_grid 9 9);
    ("maxplanar", Gen.random_maximal_planar ~seed:3 80);
    ("outerplanar", Gen.random_outerplanar ~seed:5 ~n:120 ~chord_prob:0.3);
    ("random-planar", Gen.random_planar ~seed:7 ~n:150 ~m:300);
    ("ladder", Gen.ladder 40);
    ("tree", Gen.random_tree ~seed:11 100);
    ("k4subdiv", Gen.k4_subdivision 10);
    ("fan", Gen.fan 30);
  ]

let test_differential_families () =
  List.iteri
    (fun i (name, g) -> run_trace name ~seed:(1000 + (17 * i)) g)
    families

let test_differential_insert_heavy () =
  run_trace "grid-heavy" ~seed:42 ~fresh_prob:0.0 ~insert_pct:95 ~updates:400
    (Gen.grid 14 10);
  run_trace "maxplanar-heavy" ~seed:43 ~fresh_prob:0.0 ~insert_pct:95
    ~updates:400
    (Gen.random_maximal_planar ~seed:9 120)

let test_differential_delete_heavy () =
  run_trace "grid-del" ~seed:44 ~fresh_prob:0.05 ~insert_pct:25 ~updates:400
    (Gen.grid 12 12)

(* ------------------------------------------------------------------ *)
(* Directed path coverage                                              *)
(* ------------------------------------------------------------------ *)

(* Theta-4: hubs 0, 1 joined by four length-2 paths through 2, 3, 4, 5,
   plus a pendant triangle 0-6-7 so the merge-back has non-scope darts
   to preserve at hub 0. Any plane embedding orders the four paths in a
   cycle, so exactly two pairs of middle vertices share no face: an
   insert between such a pair is planar but forces a scoped re-run. *)
let theta4 () =
  Gr.of_edges ~n:8
    [
      (0, 2); (2, 1); (0, 3); (3, 1); (0, 4); (4, 1); (0, 5); (5, 1);
      (0, 6); (6, 7); (7, 0);
    ]

let face_sharing_pairs r vs =
  let faces = Rotation.faces r in
  let share u v =
    List.exists
      (fun f ->
        List.exists (fun (s, _) -> s = u) f
        && List.exists (fun (s, _) -> s = v) f)
      faces
  in
  List.concat_map
    (fun u -> List.filter_map (fun v -> if u < v && share u v then Some (u, v) else None) vs)
    vs

let update_name = function
  | Incremental.Fast -> "Fast"
  | Incremental.Linked -> "Linked"
  | Incremental.Reembedded k -> Printf.sprintf "Reembedded %d" k
  | Incremental.Rejected -> "Rejected"
  | Incremental.Duplicate -> "Duplicate"

let test_reembed_path () =
  let inc = Incremental.create (theta4 ()) in
  let middles = [ 2; 3; 4; 5 ] in
  let sharing = face_sharing_pairs (Incremental.rotation inc) middles in
  let non_sharing =
    List.filter
      (fun (u, v) -> not (List.mem (u, v) sharing))
      (List.concat_map
         (fun u ->
           List.filter_map (fun v -> if u < v then Some (u, v) else None) middles)
         middles)
  in
  check "exactly two non-face-sharing middle pairs" 2 (List.length non_sharing);
  let u, v = List.hd non_sharing in
  (match Incremental.insert inc u v with
  | Incremental.Reembedded k -> check_bool "scope is non-trivial" true (k >= 9)
  | other -> Alcotest.failf "expected Reembedded, got %s" (update_name other));
  check "reembed counted once" 1 (Incremental.stats inc).reembedded;
  check_bool "still a plane embedding" true (Incremental.validate inc);
  check_bool "new edge present" true (Incremental.mem inc u v);
  check_bool "pendant triangle preserved" true
    (Incremental.mem inc 0 6 && Incremental.mem inc 6 7 && Incremental.mem inc 7 0);
  (* The whole graph (theta + chord + triangle) must still certify. *)
  let r = Incremental.rotation inc in
  let outcome = Certify.verify r (Certify.prove r) in
  check_bool "certifies after merge-back" true outcome.Certify.all_accept

let test_reject_leaves_state () =
  (* K5 minus an edge is planar; the missing edge must be rejected with
     no state change. *)
  let k5m = Gr.of_edges ~n:5 [ (0,1); (0,2); (0,3); (0,4); (1,2); (1,3); (1,4); (2,3); (2,4) ] in
  let inc = Incremental.create k5m in
  let before = sorted_edges (Incremental.live_edges inc) in
  let r_before = Incremental.rotation inc in
  check_bool "K5 completion rejected" true
    (Incremental.insert inc 3 4 = Incremental.Rejected);
  check "edge count unchanged" 9 (Incremental.m inc);
  Alcotest.(check (list (pair int int)))
    "edge set unchanged" before
    (sorted_edges (Incremental.live_edges inc));
  let r_after = Incremental.rotation inc in
  List.iter
    (fun v ->
      Alcotest.(check (array int))
        (Printf.sprintf "ring of %d unchanged" v)
        (Rotation.rotation r_before v) (Rotation.rotation r_after v))
    [ 0; 1; 2; 3; 4 ];
  check "rejection counted" 1 (Incremental.stats inc).rejected;
  (* K33 via its last edge, same story. *)
  let k33m = Gr.of_edges ~n:6 [ (0,3); (0,4); (0,5); (1,3); (1,4); (1,5); (2,3); (2,4) ] in
  let inc = Incremental.create k33m in
  check_bool "K33 completion rejected" true
    (Incremental.insert inc 2 5 = Incremental.Rejected);
  check_bool "still valid after rejection" true (Incremental.validate inc);
  (* And the maintainer keeps working after a rejection. *)
  check_bool "subsequent delete works" true (Incremental.delete inc 0 3);
  check_bool "K33 minus two edges accepted" true
    (accepted (Incremental.insert inc 2 5));
  check_bool "still valid" true (Incremental.validate inc)

let test_link_and_isolated () =
  let g = Gr.of_edges ~n:8 [ (0,1); (1,2); (2,0); (3,4); (4,5); (5,3) ] in
  let inc = Incremental.create g in
  check_bool "bridge is Linked" true
    (Incremental.insert inc 0 3 = Incremental.Linked);
  check_bool "valid after link" true (Incremental.validate inc);
  check_bool "second cross edge accepted" true (accepted (Incremental.insert inc 1 4));
  check_bool "valid after second cross" true (Incremental.validate inc);
  (* Isolated vertices attach via Linked. *)
  check_bool "attach isolated" true
    (Incremental.insert inc 2 6 = Incremental.Linked);
  check_bool "chain isolated" true
    (Incremental.insert inc 6 7 = Incremental.Linked);
  check_bool "valid with new pendants" true (Incremental.validate inc);
  check_bool "duplicate detected" true
    (Incremental.insert inc 0 1 = Incremental.Duplicate);
  check "edges" 10 (Incremental.m inc)

let test_delete_then_relink () =
  (* Deleting a bridge disconnects silently (connectivity records are
     conservative); the next cross insert must fall back to a link. *)
  let g = Gr.of_edges ~n:6 [ (0,1); (1,2); (2,0); (3,4); (4,5); (5,3) ] in
  let inc = Incremental.create g in
  check_bool "bridge in" true (accepted (Incremental.insert inc 0 3));
  check_bool "bridge out" true (Incremental.delete inc 0 3);
  check_bool "missing delete is false" false (Incremental.delete inc 0 3);
  check_bool "valid after bridge removal" true (Incremental.validate inc);
  check_bool "relink accepted" true (accepted (Incremental.insert inc 1 4));
  check_bool "valid after relink" true (Incremental.validate inc);
  check "exactly one missing delete" 1 (Incremental.stats inc).missing

let test_rescope_triggers () =
  let g = Gen.grid 10 10 in
  let inc = Incremental.create g in
  (* Scour one component record well past its live size. *)
  let removed = ref 0 in
  Gr.iter_edges g (fun u v ->
      if !removed < 140 && Incremental.delete inc u v then incr removed);
  check_bool "rescope ran" true ((Incremental.stats inc).rescopes >= 1);
  check_bool "valid after mass delete" true (Incremental.validate inc);
  (* The survivors still accept churn. *)
  let accepted_back = ref 0 in
  Gr.iter_edges g (fun u v ->
      if (not (Incremental.mem inc u v)) && accepted (Incremental.insert inc u v)
      then incr accepted_back);
  check "all grid edges reinsertable" (Gr.m g) (Incremental.m inc);
  check_bool "valid after refill" true (Incremental.validate inc)

let test_of_rotation_roundtrip () =
  let g = Gen.grid 6 6 in
  let r = Planarity.embed_exn g in
  let inc = Incremental.of_rotation r in
  check "same edge count" (Gr.m g) (Incremental.m inc);
  (* The starting embedding is kept verbatim. *)
  let r' = Incremental.rotation inc in
  for v = 0 to Gr.n g - 1 do
    Alcotest.(check (array int))
      (Printf.sprintf "ring of %d verbatim" v)
      (Rotation.rotation r v) (Rotation.rotation r' v)
  done;
  check_bool "nonplanar rotation refused" true
    (try
       ignore (Incremental.of_rotation (Rotation.make (Gen.toroidal_grid 4 4)
                                          (Array.init 16 (fun v -> Gr.neighbors (Gen.toroidal_grid 4 4) v))));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Region slow path                                                    *)
(* ------------------------------------------------------------------ *)

(* Insert (u, v), which must take the slow path and be decided by the
   first region attempt (radius 0): one kernel run, over the instance
   [Reembedded k] reports, smaller than the whole scope would be. *)
let expect_radius0 name inc u v =
  let st = Incremental.stats inc in
  let k0 = st.kernel_edges and r0 = st.regional in
  (match Incremental.insert inc u v with
  | Incremental.Reembedded k ->
      check (name ^ ": one kernel run, the deciding one") k (st.kernel_edges - k0);
      check_bool (name ^ ": smaller than the scope") true (k <= Incremental.m inc / 2)
  | other -> Alcotest.failf "%s: expected Reembedded, got %s" name (update_name other));
  check (name ^ ": decided by a region") (r0 + 1) st.regional;
  check_bool (name ^ ": plane embedding") true (Incremental.validate inc);
  check_bool (name ^ ": edge present") true (Incremental.mem inc u v)

(* On this graph's kernel embedding, 5 and 23 share no face; the u-v
   BFS path alone, with the rest of the block as one wheel, embeds. *)
let test_region_radius0 () =
  let g = Gen.random_planar ~seed:23 ~n:24 ~m:36 in
  let inc = Incremental.create g in
  let m0 = Incremental.m inc in
  expect_radius0 "planar-24 (5,23)" inc 5 23;
  check "one more edge" (m0 + 1) (Incremental.m inc)

(* The same radius-0 insert into an embedding and into its mirror image.
   Mirroring reverses the boundary walk, so the kernel's wheel hub comes
   out in increasing walk order in one run and decreasing in the other:
   one of the two merges keeps the kernel order and the other mirrors it
   (an orientation rule that is wrong either way makes one of the two
   embeddings non-planar). *)
let test_region_mirror () =
  let g = Gen.random_planar ~seed:7 ~n:24 ~m:36 in
  let r = Planarity.embed_exn g in
  expect_radius0 "as embedded" (Incremental.of_rotation r) 6 7;
  expect_radius0 "mirrored" (Incremental.of_rotation (Rotation.mirror r)) 6 7

(* A grid is a subdivided 3-connected graph: an insert between two
   vertices with no common face is non-planar. The region attempts run
   first and fail; only the whole-scope run rejects, and the state is
   untouched. *)
let test_region_reject_leaves_state () =
  let g = Gen.grid 10 10 in
  let inc = Incremental.create g in
  let before = Incremental.rotation inc in
  let st = Incremental.stats inc in
  let u = 11 and v = 44 in
  check_bool "no common face" true
    (not (List.mem (u, v) (face_sharing_pairs before [ u; v ])));
  check_bool "rejected" true (Incremental.insert inc u v = Incremental.Rejected);
  check_bool "regions ran before the whole scope" true
    (st.kernel_edges > Gr.m g + 1);
  check "no region decided" 0 st.regional;
  check "rejection counted" 1 st.rejected;
  check "edge count unchanged" (Gr.m g) (Incremental.m inc);
  let after = Incremental.rotation inc in
  for w = 0 to Gr.n g - 1 do
    Alcotest.(check (array int))
      (Printf.sprintf "ring of %d unchanged" w)
      (Rotation.rotation before w) (Rotation.rotation after w)
  done;
  (* and the maintainer goes on: a face-sharing chord is a fast insert *)
  check_bool "then a fast insert" true (Incremental.insert inc 11 22 = Incremental.Fast);
  check_bool "valid" true (Incremental.validate inc)

(* ------------------------------------------------------------------ *)
(* Intervalset / Relations units                                       *)
(* ------------------------------------------------------------------ *)

let test_intervalset_random () =
  let rng = Random.State.make [| 0xbeef |] in
  let s = Intervalset.create () in
  let reference = Hashtbl.create 64 in
  for _ = 1 to 4000 do
    let x = Random.State.int rng 200 in
    if Random.State.bool rng then begin
      Intervalset.add s x;
      Hashtbl.replace reference x ()
    end
    else begin
      Intervalset.remove s x;
      Hashtbl.remove reference x
    end
  done;
  check "cardinal matches" (Hashtbl.length reference) (Intervalset.cardinal s);
  for x = 0 to 200 do
    check_bool
      (Printf.sprintf "mem %d" x)
      (Hashtbl.mem reference x) (Intervalset.mem s x)
  done;
  (* Runs are sorted, disjoint, non-adjacent. *)
  let rec well_formed = function
    | (l1, h1) :: ((l2, _) :: _ as rest) ->
        l1 <= h1 && h1 + 2 <= l2 && well_formed rest
    | [ (l, h) ] -> l <= h
    | [] -> true
  in
  check_bool "runs well-formed" true (well_formed (Intervalset.intervals s));
  (* Iteration agrees with membership. *)
  let seen = ref 0 in
  Intervalset.iter s (fun x ->
      incr seen;
      check_bool "iterated element is member" true (Hashtbl.mem reference x));
  check "iteration covers cardinal" (Intervalset.cardinal s) !seen

let test_intervalset_union () =
  let rng = Random.State.make [| 0xcafe |] in
  for round = 1 to 20 do
    let a = Intervalset.create () and b = Intervalset.create () in
    let reference = Hashtbl.create 64 in
    for _ = 1 to 120 do
      let x = Random.State.int rng 300 in
      Intervalset.add a x;
      Hashtbl.replace reference x ()
    done;
    for _ = 1 to 120 do
      let x = Random.State.int rng 300 in
      Intervalset.add b x;
      Hashtbl.replace reference x ()
    done;
    Intervalset.union_into ~dst:a ~src:b;
    check
      (Printf.sprintf "round %d: union cardinal" round)
      (Hashtbl.length reference) (Intervalset.cardinal a);
    Hashtbl.iter
      (fun x () -> check_bool "union member" true (Intervalset.mem a x))
      reference
  done

let test_relations_payloads () =
  let merges = ref 0 in
  let r =
    Relations.create
      ~merge:(fun a b ->
        incr merges;
        a + b)
      ()
  in
  let a = Relations.fresh r 1 and b = Relations.fresh r 2 and c = Relations.fresh r 4 in
  check "three nodes" 3 (Relations.length r);
  let ab = Relations.union r a b in
  check "payload merged once" 1 !merges;
  check "merged sum" 3 (Relations.get r ab);
  check_bool "same after union" true (Relations.same r a b);
  let abc = Relations.union r ab c in
  check "sum of all" 7 (Relations.get r abc);
  check "idempotent union" abc (Relations.union r a c);
  check "no extra merges" 2 !merges;
  Relations.set r a 100;
  check "set replaces root payload" 100 (Relations.get r c)

(* The names [Relations] reports are those of a plain union-by-rank
   forest over the node ids, where [hang] links the folded root under
   the fresh one: random unions, merged records (a fresh node with the
   summed payloads of a few roots folded in, as a slow insert makes
   them) and abandons, checked node by node after every step. *)
module Plain_forest = struct
  type t = {
    parent : int array;
    rank : int array;
    pay : int option array;
    mutable len : int;
  }

  let create cap =
    { parent = Array.make cap 0; rank = Array.make cap 0;
      pay = Array.make cap None; len = 0 }

  let fresh t p =
    let i = t.len in
    t.parent.(i) <- i;
    t.pay.(i) <- Some p;
    t.len <- i + 1;
    i

  let rec find t x =
    let p = t.parent.(x) in
    if p = x then x
    else begin
      let r = find t p in
      t.parent.(x) <- r;
      r
    end

  let union t x y =
    let rx = find t x and ry = find t y in
    if rx = ry then rx
    else begin
      let rx, ry = if t.rank.(rx) < t.rank.(ry) then (ry, rx) else (rx, ry) in
      t.parent.(ry) <- rx;
      if t.rank.(rx) = t.rank.(ry) then t.rank.(rx) <- t.rank.(rx) + 1;
      t.pay.(rx) <- Some (Option.get t.pay.(rx) + Option.get t.pay.(ry));
      t.pay.(ry) <- None;
      rx
    end

  let hang t x ~root =
    let rx = find t x in
    if rx <> root then begin
      t.parent.(rx) <- root;
      t.pay.(rx) <- None
    end
end

let test_relations_names () =
  let steps = 1500 in
  let rng = Random.State.make [| 0x4e4d |] in
  let r = Relations.create ~capacity:1 ~merge:( + ) () in
  let o = Plain_forest.create (2 * steps) in
  (* names of the sets still in use *)
  let live = Hashtbl.create 64 in
  let mint p =
    let a = Relations.fresh r p and b = Plain_forest.fresh o p in
    check "same node id" b a;
    Hashtbl.replace live a ()
  in
  let pick () =
    let k = Random.State.int rng (Hashtbl.length live) in
    let x = ref (-1) and i = ref 0 in
    Hashtbl.iter (fun y () -> if !i = k then x := y; incr i) live;
    (* any node of the set will do *)
    let n = Relations.length r in
    let node = ref !x in
    for _ = 1 to 4 do
      let y = Random.State.int rng n in
      if Plain_forest.find o y = !x then node := y
    done;
    !node
  in
  for step = 1 to steps do
    (match Random.State.int rng 10 with
    | _ when Hashtbl.length live < 2 -> mint (1 + Random.State.int rng 9)
    | 0 | 1 | 2 -> mint (1 + Random.State.int rng 9)
    | 3 | 4 | 5 ->
        let x = pick () and y = pick () in
        Hashtbl.remove live (Plain_forest.find o x);
        Hashtbl.remove live (Plain_forest.find o y);
        let a = Relations.union r x y and b = Plain_forest.union o x y in
        check (Printf.sprintf "step %d: union name" step) b a;
        Hashtbl.replace live a ()
    | 6 | 7 | 8 ->
        let roots = List.sort_uniq compare
            (List.init (1 + Random.State.int rng 3) (fun _ ->
                 Plain_forest.find o (pick ()))) in
        let sum = List.fold_left (fun s x -> s + Relations.get r x) 0 roots in
        mint sum;
        let node = Relations.length r - 1 in
        List.iter
          (fun x ->
            Relations.hang r x ~root:node;
            Plain_forest.hang o x ~root:node;
            Hashtbl.remove live x)
          roots
    | _ ->
        let x = Plain_forest.find o (pick ()) in
        Relations.abandon r x;
        o.pay.(x) <- None;
        Hashtbl.remove live x);
    for x = 0 to Relations.length r - 1 do
      let want = Plain_forest.find o x in
      if Relations.find r x <> want then
        Alcotest.failf "step %d: node %d is named %d, not %d" step x
          (Relations.find r x) want;
      if Hashtbl.mem live want && Relations.get r x <> Option.get o.pay.(want)
      then Alcotest.failf "step %d: payload of node %d" step x
    done
  done

(* ------------------------------------------------------------------ *)
(* Golden replays                                                      *)
(* ------------------------------------------------------------------ *)

(* MD5 of the maintained rotation after a full replay plus every stats
   counter: the slow path's instances and kernel output must stay
   bit-identical across construction rewrites, and the counters pin
   which path each update took. Re-recorded when the slow path began
   with regions (the region merges give different rotations). The
   replay also Euler-checks the maintained embedding after every
   slow-path insert, region-decided or whole-scope. *)
let rotation_digest r =
  let g = Rotation.graph r in
  let b = Buffer.create 4096 in
  for v = 0 to Gr.n g - 1 do
    Array.iter
      (fun u ->
        Buffer.add_string b (string_of_int u);
        Buffer.add_char b ',')
      (Rotation.rotation r v);
    Buffer.add_char b ';'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_replays () =
  List.iter
    (fun (name, g, want_digest, want_stats) ->
      let tr = Churn.make ~seed:1 ~updates:3000 ~insert_pct:50 ~hold:0.3 g in
      let inc = Incremental.create (Churn.initial_graph tr) in
      Array.iteri
        (fun i op ->
          match op with
          | Churn.Insert (u, v) -> (
              match Incremental.insert inc u v with
              | Incremental.Reembedded _ ->
                  if not (Incremental.validate inc) then
                    Alcotest.failf "%s op %d: slow insert (%d,%d) left a \
                                    non-planar embedding" name i u v
              | _ -> ())
          | Churn.Delete _ -> Churn.apply inc op)
        tr.Churn.ops;
      let s = Incremental.stats inc in
      Alcotest.(check string) (name ^ ": rotation digest") want_digest
        (rotation_digest (Incremental.rotation inc));
      Alcotest.(check (list int))
        (name ^ ": fast/linked/reembedded/regional/rejected/duplicates/\
                 deletes/missing/rescopes/kernel_edges/face_steps")
        want_stats
        [
          s.fast; s.linked; s.reembedded; s.regional; s.rejected;
          s.duplicates; s.deletes; s.missing; s.rescopes; s.kernel_edges;
          s.face_steps;
        ])
    [
      ( "grid 12x12",
        Gen.grid 12 12,
        "c0f69a4e8ee4eafa0bb98d92e4615475",
        [ 1379; 59; 66; 66; 0; 0; 1496; 0; 6; 2151; 44158 ] );
      ( "maxplanar-400",
        Gen.random_maximal_planar ~seed:1 400,
        "6a4c94cf1fa57431c27ac664836dab68",
        [ 978; 57; 451; 384; 0; 0; 1514; 0; 1; 127625; 14317 ] );
      ( "outerplanar-600",
        Gen.random_outerplanar ~seed:1 ~n:600 ~chord_prob:0.5,
        "2138610d2adc8e7ab381347eea260d65",
        [ 758; 611; 133; 122; 0; 0; 1498; 0; 2; 4209; 65621 ] );
    ]

(* The slow path reuses one kernel workspace and the maintainer's
   scratch arrays, so once they have grown to the largest instance a
   re-embed allocates next to nothing. Allocation counts are
   deterministic: the whole maxplanar-400 replay (the region attempts,
   the whole-scope re-embeds, the fast and linked inserts and the
   deletes) must allocate at most 10 words per kernel edge, where a
   fresh graph, rotation and kernel per re-embed cost about 96. *)
let test_replay_allocation () =
  let tr =
    Churn.make ~seed:1 ~updates:3000 ~insert_pct:50 ~hold:0.3
      (Gen.random_maximal_planar ~seed:1 400)
  in
  let inc = Incremental.create (Churn.initial_graph tr) in
  let (), words = Words.of_call (fun () -> Churn.replay inc tr) in
  let kernel_edges = (Incremental.stats inc).kernel_edges in
  Alcotest.(check int) "kernel edges" 127625 kernel_edges;
  let per_edge = words /. float_of_int kernel_edges in
  if per_edge > 10. then
    Alcotest.failf "replay allocated %.1f words per kernel edge (gate: 10)"
      per_edge

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "incremental"
    [
      ( "differential",
        [
          Alcotest.test_case "all families, mixed churn" `Quick
            test_differential_families;
          Alcotest.test_case "insert-heavy, within pool" `Quick
            test_differential_insert_heavy;
          Alcotest.test_case "delete-heavy" `Quick test_differential_delete_heavy;
        ] );
      ( "paths",
        [
          Alcotest.test_case "theta insert forces scoped re-run" `Quick
            test_reembed_path;
          Alcotest.test_case "rejection leaves state untouched" `Quick
            test_reject_leaves_state;
          Alcotest.test_case "links and isolated vertices" `Quick
            test_link_and_isolated;
          Alcotest.test_case "delete bridge then relink" `Quick
            test_delete_then_relink;
          Alcotest.test_case "deletes trigger scoped rescope" `Quick
            test_rescope_triggers;
          Alcotest.test_case "of_rotation keeps embedding" `Quick
            test_of_rotation_roundtrip;
        ] );
      ( "regions",
        [
          Alcotest.test_case "insert decided at radius 0" `Quick
            test_region_radius0;
          Alcotest.test_case "embedding and mirror both merge" `Quick
            test_region_mirror;
          Alcotest.test_case "failed regions, then rejection, state untouched"
            `Quick test_region_reject_leaves_state;
        ] );
      ( "golden",
        [
          Alcotest.test_case "churn replays are bit-identical" `Quick
            test_golden_replays;
          Alcotest.test_case "replay allocation per kernel edge" `Quick
            test_replay_allocation;
        ] );
      ( "containers",
        [
          Alcotest.test_case "intervalset vs reference" `Quick
            test_intervalset_random;
          Alcotest.test_case "intervalset union" `Quick test_intervalset_union;
          Alcotest.test_case "relations payloads" `Quick test_relations_payloads;
          Alcotest.test_case "relations names = plain forest" `Quick
            test_relations_names;
        ] );
    ]
