(* Reproducible edge-churn traces for the incremental maintainer.

   A trace is built against a planar "pool" graph: a held-out fraction of
   its edges starts absent, and each update either re-inserts a random
   absent pool edge or deletes a random present one. Because every subset
   of a planar edge set is planar, a pure within-pool trace never forces
   a rejection — which makes it the right workload for benchmarking the
   accept paths and a clean differential-testing substrate. A nonzero
   [fresh_prob] additionally proposes random non-pool pairs, exercising
   the rejection path. *)

type op = Insert of int * int | Delete of int * int

type trace = { n : int; initial : (int * int) list; ops : op array }

let initial_graph tr = Gr.of_edges ~n:tr.n tr.initial

let make ~seed ~updates ~insert_pct ?(fresh_prob = 0.0) ?(hold = 0.3) g =
  let n = Gr.n g in
  let m = Gr.m g in
  if m = 0 && fresh_prob = 0.0 then
    invalid_arg "Churn.make: empty pool and no fresh pairs";
  if insert_pct < 0 || insert_pct > 100 then
    invalid_arg "Churn.make: insert_pct out of [0, 100]";
  let rng = Random.State.make [| seed; 0x6368; 0x75726e |] in
  let pool = Array.init m (Gr.edge_of_index g) in
  for i = m - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- tmp
  done;
  let key u v = if u < v then (u * n) + v else (v * n) + u in
  let pool_tbl = Hashtbl.create (max 16 (2 * m)) in
  Array.iter (fun (u, v) -> Hashtbl.replace pool_tbl (key u v) ()) pool;
  let held =
    if m = 0 then 0
    else min (m - 1) (max 1 (int_of_float (float_of_int m *. hold)))
  in
  (* Shuffled, so the held-out prefix is a uniform sample. *)
  let absent = Array.init (max 1 m) (fun i -> i) in
  let present = Array.init (max 1 m) (fun i -> i) in
  let absent_n = ref held and present_n = ref (m - held) in
  for i = 0 to m - held - 1 do
    present.(i) <- held + i
  done;
  let initial = ref [] in
  for i = held to m - 1 do
    initial := pool.(i) :: !initial
  done;
  let fresh_pair () =
    (* A uniform non-edge proposal; falls back to whatever pair comes up
       (a duplicate insert is a harmless no-op for the maintainer). *)
    let u = ref 0 and v = ref 0 and tries = ref 0 in
    let ok = ref false in
    while not !ok do
      u := Random.State.int rng n;
      v := Random.State.int rng n;
      incr tries;
      if !u <> !v && (!tries > 64 || not (Hashtbl.mem pool_tbl (key !u !v)))
      then ok := true
    done;
    (!u, !v)
  in
  let ops =
    Array.init updates (fun _ ->
        let want_insert =
          if !present_n = 0 then true
          else if !absent_n = 0 && fresh_prob = 0.0 then false
          else Random.State.int rng 100 < insert_pct
        in
        if want_insert then begin
          let use_fresh =
            n >= 2
            && fresh_prob > 0.0
            && (!absent_n = 0 || Random.State.float rng 1.0 < fresh_prob)
          in
          if use_fresh then begin
            let u, v = fresh_pair () in
            Insert (u, v)
          end
          else begin
            let j = Random.State.int rng !absent_n in
            let idx = absent.(j) in
            decr absent_n;
            absent.(j) <- absent.(!absent_n);
            present.(!present_n) <- idx;
            incr present_n;
            let u, v = pool.(idx) in
            Insert (u, v)
          end
        end
        else begin
          let j = Random.State.int rng !present_n in
          let idx = present.(j) in
          decr present_n;
          present.(j) <- present.(!present_n);
          absent.(!absent_n) <- idx;
          incr absent_n;
          let u, v = pool.(idx) in
          Delete (u, v)
        end)
  in
  { n; initial = !initial; ops }

let apply inc = function
  | Insert (u, v) -> ignore (Incremental.insert inc u v)
  | Delete (u, v) -> ignore (Incremental.delete inc u v)

let replay inc tr = Array.iter (apply inc) tr.ops
