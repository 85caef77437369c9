(* Unit tests for the inter-run domain pool: deterministic ordering,
   lowest-index error propagation, nested-use rejection, and the edge
   cases of the chunked scheduler. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_ordering () =
  (* Results must land in task order for any job count, including more
     jobs than tasks. *)
  List.iter
    (fun jobs ->
      let r = Pool.map ~jobs 100 (fun i -> (i * i) + 1) in
      check (Printf.sprintf "length [jobs=%d]" jobs) 100 (Array.length r);
      Array.iteri
        (fun i x -> check (Printf.sprintf "slot %d [jobs=%d]" i jobs) ((i * i) + 1) x)
        r)
    [ 1; 2; 4; 7; 100; 200 ]

let test_empty_and_tiny () =
  check "n=0" 0 (Array.length (Pool.map ~jobs:4 0 (fun _ -> assert false)));
  check_bool "n=1" true (Pool.map ~jobs:4 1 (fun i -> i + 41) = [| 41 |]);
  (try
     ignore (Pool.map ~jobs:4 (-1) (fun i -> i));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_exception_propagation () =
  (* Two failing tasks; the lower index must win regardless of which
     chunk finishes first — and the same holds sequentially. *)
  let boom i = if i = 13 || i = 77 then failwith (string_of_int i) else i in
  List.iter
    (fun jobs ->
      try
        ignore (Pool.map ~jobs 100 boom);
        Alcotest.fail "expected Task_failed"
      with Pool.Task_failed { index; exn } ->
        check (Printf.sprintf "failing index [jobs=%d]" jobs) 13 index;
        check_bool "inner exception" true (exn = Failure "13"))
    [ 1; 4 ]

let test_nested_rejection () =
  (* On a single-core host the jobs cap collapses both maps to the
     sequential path, which never trips the nesting guard — nesting
     sequential maps is documented as harmless. *)
  if Pool.default_jobs () <= 1 then
    check_bool "sequential nesting is harmless" true
      (Pool.map ~jobs:2 4 (fun i ->
           if i = 0 then ignore (Pool.map ~jobs:2 4 (fun j -> j));
           i)
      = [| 0; 1; 2; 3 |])
  else
    try
      ignore
        (Pool.map ~jobs:2 4 (fun i ->
             if i = 0 then ignore (Pool.map ~jobs:2 4 (fun j -> j));
             i));
      Alcotest.fail "expected Task_failed wrapping Invalid_argument"
    with Pool.Task_failed { exn; _ } -> (
      match exn with
      | Pool.Task_failed { exn = Invalid_argument _; _ } | Invalid_argument _
        ->
          ()
      | e -> raise e)

let test_reuse_after_failure () =
  (* A failed sweep must release the pool for the next one. *)
  (try ignore (Pool.map ~jobs:2 4 (fun _ -> failwith "x")) with
  | Pool.Task_failed _ -> ());
  check_bool "pool usable again" true
    (Pool.map ~jobs:2 4 (fun i -> i) = [| 0; 1; 2; 3 |])

let test_runs_in_pool () =
  (* The advertised use: independent simulations in pool tasks, each
     with its own sinks — results identical to the serial sweep. *)
  let flood g =
    List_shape.of_lists {
      List_shape.init =
        (fun g v ->
          (v, Gr.fold_neighbors g v ~init:[] ~f:(fun acc w -> (w, v) :: acc)));
      round =
        (fun g v best inbox ->
          let best' = List.fold_left (fun acc (_, x) -> max acc x) best inbox in
          if best' = best then (best, [])
          else
            ( best',
              Gr.fold_neighbors g v ~init:[] ~f:(fun acc w ->
                  (w, best') :: acc) ));
      msg_bits = (fun _ -> 12);
    }
    |> fun p -> Network.exec g p
  in
  let run i =
    let g = Gen.random_connected_graph ~seed:i ~n:40 ~m:80 in
    let r = flood g in
    (r.Network.states, r.Network.rounds, r.Network.report.Network.messages)
  in
  let serial = Array.init 8 run in
  let pooled = Pool.map ~jobs:4 8 run in
  check_bool "pooled sweep = serial sweep" true (serial = pooled)

(* ------------------------------------------------------------------ *)
(* Persistent pool (Pool.create / Pool.run / Pool.shutdown)            *)
(* ------------------------------------------------------------------ *)

let test_persistent_completes_all_tasks () =
  (* Work stealing may hand any task to any domain; every slot must be
     written exactly once per run, over many reuses of one pool. *)
  List.iter
    (fun domains ->
      let p = Pool.create ~domains () in
      check (Printf.sprintf "size [domains=%d]" domains) domains (Pool.size p);
      for round = 1 to 5 do
        let n = 1 + (round * 17) in
        let hits = Array.make n 0 in
        Pool.run p ~tasks:n (fun i -> hits.(i) <- hits.(i) + (i * round));
        Array.iteri
          (fun i x ->
            check
              (Printf.sprintf "slot %d [domains=%d round=%d]" i domains round)
              (i * round) x)
          hits
      done;
      Pool.shutdown p)
    [ 1; 2; 4; 7 ]

let test_persistent_zero_tasks_and_validation () =
  let p = Pool.create ~domains:2 () in
  Pool.run p ~tasks:0 (fun _ -> assert false);
  (try
     Pool.run p ~tasks:(-1) (fun _ -> ());
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  Pool.shutdown p;
  (try
     Pool.run p ~tasks:1 (fun _ -> ());
     Alcotest.fail "expected Invalid_argument after shutdown"
   with Invalid_argument _ -> ());
  (* Shutdown is idempotent. *)
  Pool.shutdown p;
  try ignore (Pool.create ~domains:0 ()); Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_persistent_lowest_error_wins () =
  let p = Pool.create ~domains:4 () in
  (try
     Pool.run p ~tasks:100 (fun i ->
         if i = 13 || i = 77 then failwith (string_of_int i));
     Alcotest.fail "expected Task_failed"
   with Pool.Task_failed { index; exn } ->
     check "failing index" 13 index;
     check_bool "inner exception" true (exn = Failure "13"));
  (* A failed run must leave the pool usable. *)
  let hits = Array.make 8 false in
  Pool.run p ~tasks:8 (fun i -> hits.(i) <- true);
  check_bool "usable after failure" true (Array.for_all Fun.id hits);
  Pool.shutdown p

let test_persistent_matches_map () =
  (* The engine's usage shape: slot-indexed buffers merged in index
     order must equal the one-shot Pool.map of the same function. *)
  let f i = (i * 7919) mod 1000 in
  let expected = Pool.map ~jobs:1 64 f in
  let p = Pool.create ~domains:3 () in
  let got = Array.make 64 (-1) in
  Pool.run p ~tasks:64 (fun i -> got.(i) <- f i);
  Pool.shutdown p;
  check_bool "persistent run = map" true (got = expected)

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "deterministic ordering" `Quick test_ordering;
          Alcotest.test_case "empty and tiny sweeps" `Quick test_empty_and_tiny;
          Alcotest.test_case "lowest-index error propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested use rejected" `Quick test_nested_rejection;
          Alcotest.test_case "reuse after failure" `Quick
            test_reuse_after_failure;
          Alcotest.test_case "simulation sweep" `Quick test_runs_in_pool;
        ] );
      ( "persistent",
        [
          Alcotest.test_case "completes all tasks across reuses" `Quick
            test_persistent_completes_all_tasks;
          Alcotest.test_case "zero tasks and validation" `Quick
            test_persistent_zero_tasks_and_validation;
          Alcotest.test_case "lowest error wins, pool survives" `Quick
            test_persistent_lowest_error_wins;
          Alcotest.test_case "slot merge matches Pool.map" `Quick
            test_persistent_matches_map;
        ] );
    ]
