(* Geometry pipeline tests (ISSUE 8).

   Three layers, in dependency order: the triangulation (planarity
   preserved, maximal, input rotation intact as a cyclic subsequence),
   the Schnyder drawing (grid bounds, distinct points, orientation
   validity, exhaustive no-crossing oracle on small inputs), and the
   face-routing engine (every random query on every planar family is
   Delivered over real edges — or Unreachable exactly when the
   endpoints sit in different components). *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let embed_exn g =
  match Planarity.embed g with
  | Planarity.Planar r -> r
  | Planarity.Nonplanar -> Alcotest.fail "family is planar but embed refused"

let families =
  [
    ("k4", Gen.complete 4);
    ("path", Gen.path 17);
    ("cycle", Gen.cycle 14);
    ("star", Gen.star 9);
    ("wheel", Gen.wheel 11);
    ("ladder", Gen.ladder 8);
    ("fan", Gen.fan 9);
    ("grid", Gen.grid 6 7);
    ("trigrid", Gen.triangular_grid 5 6);
    ("bintree", Gen.binary_tree 31);
    ("k4subdiv", Gen.k4_subdivision 4);
    ("maxplanar", Gen.random_maximal_planar ~seed:11 60);
    ("planar", Gen.random_planar ~seed:13 ~n:70 ~m:120);
    ("outerplanar", Gen.random_outerplanar ~seed:7 ~n:40 ~chord_prob:0.3);
    ("randtree", Gen.random_tree ~seed:5 40);
  ]

let disconnected =
  let base = Gen.grid 4 4 in
  let es = Gr.edges base in
  let shifted = List.map (fun (u, v) -> (u + 16, v + 16)) es in
  Gr.of_edges ~n:32 (es @ shifted)

(* ------------------------------------------------------------------ *)
(* Triangulation                                                       *)
(* ------------------------------------------------------------------ *)

(* The input rotation at every vertex must survive as a cyclic
   subsequence of the output rotation restricted to real edges. *)
let rotation_preserved r tri =
  let g = Rotation.graph r in
  let r' = Triangulate.rotation tri in
  let ok = ref true in
  for v = 0 to Gr.n g - 1 do
    let old_rot = Rotation.rotation r v in
    let real =
      Array.to_list (Rotation.rotation r' v)
      |> List.filter (fun u -> Gr.mem_edge g v u)
      |> Array.of_list
    in
    let d = Array.length old_rot in
    if d <> Array.length real then ok := false
    else if d > 0 then begin
      let shift = ref (-1) in
      for s = 0 to d - 1 do
        let all = ref true in
        for i = 0 to d - 1 do
          if real.((s + i) mod d) <> old_rot.(i) then all := false
        done;
        if !all then shift := s
      done;
      if !shift < 0 then ok := false
    end
  done;
  !ok

let test_triangulate_families () =
  List.iter
    (fun (name, g) ->
      let r = embed_exn g in
      let tri = Triangulate.make r in
      let g' = Triangulate.graph tri in
      let n = Gr.n g' in
      check_bool (name ^ ": output is planar") true
        (Rotation.is_planar_embedding (Triangulate.rotation tri));
      if n >= 3 then
        check (name ^ ": maximal planar edge count") ((3 * n) - 6) (Gr.m g');
      check
        (name ^ ": virtual count")
        (Gr.m g' - Gr.m g)
        (Triangulate.virtual_count tri);
      check_bool (name ^ ": rotation preserved") true (rotation_preserved r tri))
    (("two-grids", disconnected) :: families)

let test_triangulate_tiny () =
  List.iter
    (fun n ->
      let g = Gr.of_edges ~n [] in
      let r = embed_exn g in
      let tri = Triangulate.make r in
      check
        (Printf.sprintf "n=%d vertex count" n)
        n
        (Gr.n (Triangulate.graph tri)))
    [ 0; 1; 2 ];
  (* isolated vertices alongside an edge *)
  let g = Gr.of_edges ~n:5 [ (0, 1) ] in
  let tri = Triangulate.make (embed_exn g) in
  check "isolated: maximal" ((3 * 5) - 6) (Gr.m (Triangulate.graph tri))

let test_triangulate_rejects_nonplanar () =
  (* A K5 rotation system is planar as a map on some surface but not
     genus 0; Triangulate.make must refuse it. *)
  let g = Gen.complete 5 in
  let rot =
    Array.init 5 (fun v ->
        Array.of_list (List.filter (fun u -> u <> v) [ 0; 1; 2; 3; 4 ]))
  in
  let r = Rotation.make g rot in
  Alcotest.check_raises "nonplanar rotation refused"
    (Invalid_argument "Triangulate.make: rotation system is not planar")
    (fun () -> ignore (Triangulate.make r))

(* Golden triangulations: an MD5 of the fill edges in the order the
   passes added them (oriented as added) followed by every ring of the
   output rotation, so a change that moves one fill edge or one ring
   entry fails here. *)
let tri_digest tri =
  let b = Buffer.create 65536 in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ' '
  in
  Triangulate.iter_virtual tri (fun u v ->
      int u;
      int v;
      Buffer.add_char b ';');
  let r = Triangulate.rotation tri in
  for v = 0 to Gr.n (Triangulate.graph tri) - 1 do
    Buffer.add_char b '|';
    Array.iter int (Rotation.rotation r v)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pipeline_instances =
  [
    ("grid-40x40", Gen.grid 40 40);
    ("maxplanar-2000", Gen.random_maximal_planar ~seed:1 2000);
    ( "outerplanar-5000",
      Gen.random_outerplanar ~seed:1 ~n:5000 ~chord_prob:0.5 );
  ]

let test_triangulate_golden () =
  let want =
    [
      ("grid-40x40", "2c5663599d03416b0156e9db068b9b37");
      ("maxplanar-2000", "b92041848474c5787a6a86247579e470");
      ("outerplanar-5000", "4626129d8659242343fb4c85f8ab1c64");
      ("two-grids", "7dc0b2c3b13ef38f25b89dfa7ad77801");
      ("k4", "55701ddaba08b52fbddea20f11628d7c");
      ("path", "6db18024e83c8ac28649b195f2e2235d");
      ("cycle", "9ac1264bcd8f3aa3dfe2626e11b9dd9a");
      ("star", "8b16c8d0098e4e9f2a297fe3e239abc8");
      ("wheel", "efc16e55a78bdfff3097071e3476c490");
      ("ladder", "42801a39f140ccba53ac4da4ba04e16e");
      ("fan", "58f2b44a41f8e7ec294b62aede413d18");
      ("grid", "fb2cd12e315fa7dc3ba9958645db8a20");
      ("trigrid", "d944315a2d49af1a552aa11eeadb747b");
      ("bintree", "f13db3b3c72ea5339489e136e41e7d46");
      ("k4subdiv", "98989736ee3cff9064610de9a0291e04");
      ("maxplanar", "134ca8d292349e7cb5482c883d3beac5");
      ("planar", "7d237d0d9d6ccba3fd42de3b3d39a74e");
      ("outerplanar", "a4553d98a732299a2f66d3225fe00786");
      ("randtree", "f2174212a6bb0af506a41bd5dcc1175a");
    ]
  in
  List.iter
    (fun (name, g) ->
      check_string (name ^ " triangulation digest") (List.assoc name want)
        (tri_digest (Triangulate.make (embed_exn g))))
    (pipeline_instances @ (("two-grids", disconnected) :: families))

(* ------------------------------------------------------------------ *)
(* Schnyder drawing                                                    *)
(* ------------------------------------------------------------------ *)

(* Every family's embedding and its mirror: the drawing's orientation
   must not depend on the handedness of the input rotation. *)
let embedded_with_mirrors =
  List.concat_map
    (fun (name, g) ->
      let r = embed_exn g in
      [ (name, r); (name ^ " mirrored", Rotation.mirror r) ])
    (("two-grids", disconnected) :: families)

let test_drawing_families () =
  List.iter
    (fun (name, r) ->
      let g = Rotation.graph r in
      let sch = Schnyder.draw r in
      let x, y = Schnyder.coords sch in
      let n = Gr.n g in
      let side = Schnyder.grid_side sch in
      let tr = Triangulate.rotation (Schnyder.triangulation sch) in
      if n >= 3 then check (name ^ ": grid side") (n - 2) side;
      check_bool (name ^ ": within grid") true (Drawing.within_grid ~x ~y ~side);
      check_bool (name ^ ": distinct points") true (Drawing.distinct ~x ~y);
      if n >= 3 then
        check_bool (name ^ ": orientation-valid") true
          (Drawing.valid_triangulation_drawing tr ~x ~y);
      (* Rotations run counterclockwise: the outer face is the one face
         drawn counterclockwise. *)
      if n >= 4 then
        check (name ^ ": counterclockwise rotations") 1
          (Drawing.face_census tr ~x ~y).ccw;
      (* The exhaustive O(m^2) oracle on the real graph's drawing: a
         sub-drawing of a plane drawing is plane. *)
      if Gr.m g <= 200 then
        check_bool (name ^ ": no crossings (exhaustive)") true
          (Drawing.first_crossing g ~x ~y = None))
    embedded_with_mirrors

(* The validity checks must also say no: duplicate points (negative
   coordinates included, which the bounding box shifts away), flat faces
   and faces that are not triangles. *)
let test_drawing_rejects () =
  check_bool "distinct points" true
    (Drawing.distinct ~x:[| -2; 3; 0 |] ~y:[| 7; -4; 7 |]);
  check_bool "repeated point" false
    (Drawing.distinct ~x:[| 0; 5; 0 |] ~y:[| 3; 1; 3 |]);
  check_bool "repeated negative point" false
    (Drawing.distinct ~x:[| -2; 4; -2 |] ~y:[| -7; 0; -7 |]);
  check_bool "same x, other y" true
    (Drawing.distinct ~x:[| 1; 1 |] ~y:[| 0; 1 |]);
  (* One long column: every point in the same x bucket, a duplicate far
     apart in input order. *)
  let col_x = Array.make 2000 5 and col_y = Array.init 2000 (fun i -> 1999 - i) in
  check_bool "long column, distinct" true (Drawing.distinct ~x:col_x ~y:col_y);
  col_y.(1500) <- col_y.(3);
  check_bool "long column, repeated point" false
    (Drawing.distinct ~x:col_x ~y:col_y);
  Alcotest.check_raises "box beyond 4n + 1024"
    (Invalid_argument "Drawing.distinct: coordinate box too large") (fun () ->
      ignore (Drawing.distinct ~x:[| 0; 2000 |] ~y:[| 0; 0 |]));
  let sch = Schnyder.draw (embed_exn (Gen.complete 4)) in
  let x, y = Schnyder.coords sch in
  let r = Triangulate.rotation (Schnyder.triangulation sch) in
  check_bool "K4 drawing valid" true (Drawing.valid_triangulation_drawing r ~x ~y);
  let c = Drawing.face_census r ~x ~y in
  check "K4: four triangles" 4 (c.ccw + c.cw);
  check "K4: the outer face alone counterclockwise" 1 c.ccw;
  check_bool "collinear points" false
    (Drawing.valid_triangulation_drawing r ~x:[| 0; 1; 2; 3 |] ~y:[| 0; 0; 0; 0 |]);
  check_bool "faces that are not triangles" false
    (Drawing.valid_triangulation_drawing (embed_exn (Gen.cycle 4))
       ~x:[| 0; 1; 1; 0 |] ~y:[| 0; 0; 1; 1 |])

let test_schnyder_trees () =
  (* Interior vertices have three distinct parents; roots have none in
     their own tree; every tree reaches its root. *)
  let g = Gen.random_maximal_planar ~seed:3 80 in
  let sch = Schnyder.draw (embed_exn g) in
  let r0, r1, r2 = Schnyder.roots sch in
  let roots = [| r0; r1; r2 |] in
  let n = Gr.n g in
  for i = 0 to 2 do
    check (Printf.sprintf "root %d is its own tree's root" i) (-1)
      (Schnyder.parent sch i roots.(i))
  done;
  for v = 0 to n - 1 do
    if v <> r0 && v <> r1 && v <> r2 then
      for i = 0 to 2 do
        let steps = ref 0 and u = ref v in
        while !u >= 0 && !steps <= n do
          u := Schnyder.parent sch i !u;
          incr steps
        done;
        check_bool
          (Printf.sprintf "tree %d from %d terminates" i v)
          true (!steps <= n)
      done
  done

(* Golden drawings: an MD5 of the coordinates and of the parent of every
   vertex in each of the three trees, so a change to the canonical
   ordering or to the region counts that moves one point or one tree
   edge fails here. The fan's triangulation is the wheel's (its first
   fill edge closes the path into the rim), so their digests agree. *)
let schnyder_digest sch =
  let b = Buffer.create 65536 in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ' '
  in
  let x, y = Schnyder.coords sch in
  Array.iter int x;
  Buffer.add_char b '|';
  Array.iter int y;
  for i = 0 to 2 do
    Buffer.add_char b '|';
    for v = 0 to Array.length x - 1 do
      int (Schnyder.parent sch i v)
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_schnyder_golden () =
  let want =
    [
      ("grid-40x40", "8237631608f95184ce8684c5b3510ad1");
      ("maxplanar-2000", "8bb47b0c24a35b0f910e7192535c7059");
      ("outerplanar-5000", "e9cf2f589975205c09c5266e571e582a");
      ("star-3000", "0775f77a1091304bb1e957b8b1b1aca7");
      ("path-3000", "1f183c820f53fa419a801e2025f93d11");
      ("wheel-3000", "30e5f526e5cf70b62c487675bb55728e");
      ("fan-3000", "30e5f526e5cf70b62c487675bb55728e");
      ("k4subdiv-200", "a61c3581cf76fb694fcac9cbd398a783");
    ]
  in
  List.iter
    (fun (name, g) ->
      check_string (name ^ " drawing digest") (List.assoc name want)
        (schnyder_digest (Schnyder.draw (embed_exn g))))
    (pipeline_instances
    @ [
        ("star-3000", Gen.star 3000);
        ("path-3000", Gen.path 3000);
        ("wheel-3000", Gen.wheel 3000);
        ("fan-3000", Gen.fan 3000);
        ("k4subdiv-200", Gen.k4_subdivision 200);
      ])

(* Seeded sweep as a QCheck property: any planar graph family member
   drawn by the pipeline is a plane drawing. *)
let prop_drawing_plane =
  QCheck.Test.make ~count:40 ~name:"random planar graphs draw plane"
    QCheck.(pair (int_bound 1000) (int_range 4 60))
    (fun (seed, n) ->
      let g =
        if seed mod 2 = 0 then Gen.random_maximal_planar ~seed n
        else Gen.random_planar ~seed ~n ~m:(min ((3 * n) - 6) (2 * n))
      in
      match Planarity.embed g with
      | Planarity.Nonplanar -> false
      | Planarity.Planar r ->
          let sch = Schnyder.draw r in
          let x, y = Schnyder.coords sch in
          Drawing.within_grid ~x ~y ~side:(Schnyder.grid_side sch)
          && Drawing.distinct ~x ~y
          && Drawing.first_crossing g ~x ~y = None)

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

let valid_path g src dst path =
  let rec edges_ok = function
    | a :: (b :: _ as tl) -> Gr.mem_edge g a b && edges_ok tl
    | _ -> true
  in
  (match path with v :: _ -> v = src | [] -> false)
  && (match List.rev path with v :: _ -> v = dst | [] -> false)
  && edges_ok path

let test_routing_delivers () =
  List.iter
    (fun (name, r) ->
      let g = Rotation.graph r in
      let e = Route.make (Schnyder.draw r) in
      let n = Gr.n g in
      let rng = Random.State.make [| 97; n |] in
      for _ = 1 to 60 do
        let src = Random.State.int rng n and dst = Random.State.int rng n in
        match Route.route e src dst with
        | Route.Delivered { path; hops; greedy_hops; face_hops; _ } ->
            check_bool (name ^ ": path valid") true (valid_path g src dst path);
            check (name ^ ": hops = path length") (List.length path - 1) hops;
            check (name ^ ": hop split") hops (greedy_hops + face_hops);
            let dist = (Traverse.distances g src).(dst) in
            check_bool (name ^ ": stretch >= 1") true (hops >= dist)
        | Route.Unreachable ->
            let dist = (Traverse.distances g src).(dst) in
            check_bool (name ^ ": unreachable is real") true
              (dist < 0 && src <> dst)
        | Route.Stuck { at; hops } ->
            Alcotest.fail
              (Printf.sprintf "%s: stuck %d->%d at %d after %d hops" name src
                 dst at hops)
      done)
    embedded_with_mirrors

let test_routing_edge_cases () =
  let g = Gen.grid 5 5 in
  let e = Route.make (Schnyder.draw (embed_exn g)) in
  (match Route.route e 7 7 with
  | Route.Delivered { path; hops; _ } ->
      check "src=dst path" 1 (List.length path);
      check "src=dst hops" 0 hops
  | _ -> Alcotest.fail "src=dst must deliver");
  Alcotest.check_raises "out of range"
    (Invalid_argument "Route.route: vertex out of range") (fun () ->
      ignore (Route.route e 0 25));
  (* different components are Unreachable, same component delivers *)
  let e2 = Route.make (Schnyder.draw (embed_exn disconnected)) in
  (match Route.route e2 0 17 with
  | Route.Unreachable -> ()
  | _ -> Alcotest.fail "cross-component must be Unreachable");
  match Route.route e2 16 31 with
  | Route.Delivered _ -> ()
  | _ -> Alcotest.fail "same component must deliver"

let test_batch_matches_serial () =
  let g = Gen.random_maximal_planar ~seed:19 300 in
  let e = Route.make (Schnyder.draw (embed_exn g)) in
  let rng = Random.State.make [| 5; 300 |] in
  let pairs =
    Array.init 200 (fun _ ->
        (Random.State.int rng 300, Random.State.int rng 300))
  in
  let serial = Route.route_batch e pairs in
  let pool = Pool.create ~domains:4 () in
  let batched = Route.route_batch ~pool e pairs in
  Pool.shutdown pool;
  Array.iteri
    (fun i o ->
      check_bool
        (Printf.sprintf "query %d identical" i)
        true (o = serial.(i)))
    batched

(* Golden outcomes: an MD5 of every field of every outcome of a batch —
   the whole path, the hop split, the recovery count and any Stuck
   verdict — so a change to the router's internals that moves a single
   hop fails here. The batches mix seeded random pairs with src = dst
   pairs; the two-grids graph routes all n² pairs, so cross-component
   pairs are in too. *)
let outcome_digest outs =
  let b = Buffer.create 4096 in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ' '
  in
  Array.iter
    (function
      | Route.Delivered { path; hops; greedy_hops; face_hops; recoveries } ->
          Buffer.add_char b 'D';
          List.iter int [ hops; greedy_hops; face_hops; recoveries ];
          List.iter int path;
          Buffer.add_char b ';'
      | Route.Unreachable -> Buffer.add_string b "U;"
      | Route.Stuck { at; hops } ->
          Buffer.add_char b 'S';
          List.iter int [ at; hops ];
          Buffer.add_char b ';')
    outs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [k] seeded pairs, every eighth one of the form (v, v). *)
let golden_pairs ~seed n k =
  let rng = Random.State.make [| seed; n |] in
  Array.init k (fun i ->
      let s = Random.State.int rng n in
      if i mod 8 = 0 then (s, s) else (s, Random.State.int rng n))

let all_pairs n = Array.init (n * n) (fun i -> (i / n, i mod n))

let golden_digest g pairs =
  outcome_digest
    (Route.route_batch (Route.make (Schnyder.draw (embed_exn g))) pairs)

let test_golden_pipeline () =
  let want =
    [
      ("grid-40x40", "97627d94c47f1664c8431c2a69087b3d");
      ("maxplanar-2000", "1ef61342ed2ff00d09e8361d442a29df");
      ("outerplanar-5000", "e1d450c3463fdb1e71914f0581d01363");
    ]
  in
  List.iter
    (fun (name, g) ->
      check_string (name ^ " digest") (List.assoc name want)
        (golden_digest g (golden_pairs ~seed:25 (Gr.n g) 5000)))
    pipeline_instances

let test_golden_families () =
  let want =
    [
      ("two-grids", "50a2c49f4214bbedeef4bdb8efe498f4");
      ("k4", "454b562801a352e291edefca1e1876af");
      ("path", "fc05ea155473fa719c594802afa8ddb3");
      ("cycle", "16d51888aad88ec19bf8f2283da3e28f");
      ("star", "581ccd764b02d2b6c2156a1dab7f5916");
      ("wheel", "220ba79347ee300253f1305e9a011b29");
      ("ladder", "34be2c10d83ec4639a3cb8a961c2554d");
      ("fan", "a10406fae7deb0e79530bea0499cfa06");
      ("grid", "cb9979bc4f20965488da36f1a62224c7");
      ("trigrid", "6158d81d5035e03411d61625933237cc");
      ("bintree", "51451263d1e4c149e3b6acca8fb88f97");
      ("k4subdiv", "36bedb592e8111230f51744f65dc5032");
      ("maxplanar", "3408fab2d861aed028d0425388940212");
      ("planar", "4e573639c44ba9d6cf0bd283d4276b32");
      ("outerplanar", "85ca4d729c23a099a113f6fce6327284");
      ("randtree", "a8b1047dd6abf62e387c9c0c57576510");
    ]
  in
  List.iter
    (fun (name, g) ->
      check_string (name ^ " digest") (List.assoc name want)
        (golden_digest g (all_pairs (Gr.n g))))
    (("two-grids", disconnected) :: families)

(* A routed batch allocates its path cells (3 words a hop, consed once
   from the end of a per-domain hop buffer) and a few records per query;
   nothing else per hop. [Route.make] is linear in the graph: its tables
   and the component ids. *)
let test_route_allocation () =
  List.iter
    (fun (name, g) ->
      let sch = Schnyder.draw (embed_exn g) in
      let e, make_words = Words.of_call (fun () -> Route.make sch) in
      let size = Gr.n g + Gr.m g in
      if make_words > 16. *. float_of_int size then
        Alcotest.failf "%s: Route.make allocated %.0f words for n + m = %d \
                        (gate: 16 per)" name make_words size;
      let pairs = golden_pairs ~seed:26 (Gr.n g) 2000 in
      let outs, words = Words.of_call (fun () -> Route.route_batch e pairs) in
      let hops =
        Array.fold_left
          (fun a -> function Route.Delivered { hops; _ } -> a + hops | _ -> a)
          0 outs
      in
      let budget = (4 * hops) + (64 * Array.length pairs) in
      if words > float_of_int budget then
        Alcotest.failf "%s: batch of %d queries, %d hops allocated %.0f words \
                        (gate: 4 per hop + 64 per query = %d)"
          name (Array.length pairs) hops words budget)
    pipeline_instances

(* The geometry build's bookkeeping is flat and linear. Words per input
   edge of [Bicon.decompose], [Triangulate.make] and
   [Schnyder.of_triangulation] are bounded (the arrays they return, the
   half-edge store, the canonical ordering's and the region counts'
   int arrays; a per-edge list, tuple or hashtable binding would break
   the bound), on the pipeline instances and on shapes no benchmark
   runs — star, path, wheel and fan at 5k and 20k — whose words and
   wall must grow about 4x from n to 4n (a quadratic pass would show
   16x). The wall is the best of 7 runs at each size, alternating sizes
   so that both see the same load. *)
let test_build_linear () =
  let words name g =
    let per_edge what w limit =
      if w /. float_of_int (Gr.m g) > limit then
        Alcotest.failf "%s: %s allocated %.1f words per input edge (gate: %.0f)"
          name what (w /. float_of_int (Gr.m g)) limit
    in
    let r = embed_exn g in
    let _, wb = Words.of_call (fun () -> Bicon.decompose g) in
    let tri, wt = Words.of_call (fun () -> Triangulate.make r) in
    let _, ws = Words.of_call (fun () -> Schnyder.of_triangulation tri) in
    per_edge "Bicon.decompose" wb 24.;
    per_edge "Triangulate.make" wt 128.;
    per_edge "Schnyder.of_triangulation" ws 48.;
    (r, wb, wt, ws)
  in
  List.iter (fun (name, g) -> ignore (words name g)) pipeline_instances;
  List.iter
    (fun (name, gen) ->
      let r1, b1, t1, s1 = words (name ^ "-5k") (gen 5000) in
      let r4, b4, t4, s4 = words (name ^ "-20k") (gen 20000) in
      let wall r =
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (Triangulate.make r));
        Unix.gettimeofday () -. t0
      in
      let w1 = ref infinity and w4 = ref infinity in
      for _ = 1 to 7 do
        w1 := Float.min !w1 (wall r1);
        w4 := Float.min !w4 (wall r4)
      done;
      let ratio what a b limit =
        if b > limit *. a then
          Alcotest.failf "%s: %s grew %.1fx from n = 5k to 20k (gate: %.0fx)"
            name what (b /. a) limit
      in
      ratio "Bicon.decompose words" b1 b4 4.5;
      ratio "Triangulate.make words" t1 t4 4.5;
      ratio "Schnyder.of_triangulation words" s1 s4 4.5;
      ratio "Triangulate.make wall" !w1 !w4 10.)
    [ ("star", Gen.star); ("path", Gen.path); ("wheel", Gen.wheel); ("fan", Gen.fan) ]

(* A maximal planar input is its own triangulation: the same graph (edge
   list and dart table) and the same rings, no fill edge, and no
   allocation beyond the input genus check's scratch (a byte per dart
   and a word per vertex) and the result record. *)
let test_triangulate_maximal () =
  List.iter
    (fun (name, g) ->
      let r = embed_exn g in
      let tri, words = Words.of_call (fun () -> Triangulate.make r) in
      let g' = Triangulate.graph tri and r' = Triangulate.rotation tri in
      check (name ^ ": no fill edge") 0 (Triangulate.virtual_count tri);
      check_bool (name ^ ": same edges") true (Gr.edges g' = Gr.edges g);
      check_bool (name ^ ": same dart table") true
        (Gr.dart_offsets g' = Gr.dart_offsets g
        && Gr.dart_sources g' = Gr.dart_sources g);
      for v = 0 to Gr.n g - 1 do
        check_bool
          (Printf.sprintf "%s: ring %d" name v)
          true
          (Rotation.rotation r' v = Rotation.rotation r v)
      done;
      if words > float_of_int (64 + Gr.m g) then
        Alcotest.failf "%s: a maximal planar input allocated %.0f words for \
                        m = %d (gate: 64 + 1 per edge)" name words (Gr.m g))
    [
      ("k4", Gen.complete 4);
      ("maxplanar-2000", Gen.random_maximal_planar ~seed:1 2000);
      ("maxplanar-30000", Gen.random_maximal_planar ~seed:9 30000);
    ]

let () =
  Alcotest.run "geometry"
    [
      ( "triangulate",
        [
          Alcotest.test_case "families" `Quick test_triangulate_families;
          Alcotest.test_case "tiny and isolated" `Quick test_triangulate_tiny;
          Alcotest.test_case "nonplanar refused" `Quick
            test_triangulate_rejects_nonplanar;
          Alcotest.test_case "golden digests" `Quick test_triangulate_golden;
          Alcotest.test_case "allocation per edge, linear in n" `Quick
            test_build_linear;
          Alcotest.test_case "maximal planar input is its own" `Quick
            test_triangulate_maximal;
        ] );
      ( "drawing",
        [
          Alcotest.test_case "families" `Quick test_drawing_families;
          Alcotest.test_case "schnyder trees" `Quick test_schnyder_trees;
          Alcotest.test_case "golden digests" `Quick test_schnyder_golden;
          Alcotest.test_case "validity checks reject" `Quick
            test_drawing_rejects;
        ] );
      ( "routing",
        [
          Alcotest.test_case "delivery on all families" `Quick
            test_routing_delivers;
          Alcotest.test_case "edge cases" `Quick test_routing_edge_cases;
          Alcotest.test_case "batch matches serial" `Quick
            test_batch_matches_serial;
          Alcotest.test_case "golden digests, pipeline instances" `Quick
            test_golden_pipeline;
          Alcotest.test_case "golden digests, families" `Quick
            test_golden_families;
          Alcotest.test_case "allocation per hop and per make" `Quick
            test_route_allocation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_drawing_plane ] );
    ]
