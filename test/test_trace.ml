(* Tests for the observability layer: the Bounds checker asserts the
   paper's Theorem 1.1 round bound and the O(log n) message budget on
   families with known diameter; the Trace journal is checked for span
   well-formedness and for emitting valid JSON (parsed by the minimal
   JSON reader below, mirroring the `python -m json.tool` acceptance
   gate); the Metrics round log is checked for internal consistency. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* A minimal JSON reader (well-formedness oracle for the journal)      *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    String.iter (fun c -> expect c) word;
    value
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance ()
          | Some '\\' -> Buffer.add_char b '\\'; advance ()
          | Some '/' -> Buffer.add_char b '/'; advance ()
          | Some 'b' -> Buffer.add_char b '\b'; advance ()
          | Some 'f' -> Buffer.add_char b '\012'; advance ()
          | Some 'n' -> Buffer.add_char b '\n'; advance ()
          | Some 'r' -> Buffer.add_char b '\r'; advance ()
          | Some 't' -> Buffer.add_char b '\t'; advance ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              (try Buffer.add_char b (Char.chr (int_of_string ("0x" ^ hex) land 0xff))
               with _ -> fail "bad \\u escape");
              pos := !pos + 4
          | _ -> fail "bad escape");
          go ()
      | Some c ->
          if Char.code c < 0x20 then fail "control char in string";
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or }"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Arr [])
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ]"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field obj key =
  match obj with
  | Obj fields -> (
      match List.assoc_opt key fields with
      | Some v -> v
      | None -> Alcotest.failf "missing JSON field %S" key)
  | _ -> Alcotest.fail "expected a JSON object"

let arr_len = function
  | Arr xs -> List.length xs
  | _ -> Alcotest.fail "expected a JSON array"

(* ------------------------------------------------------------------ *)
(* Theorem 1.1 bound checks on families with known diameter            *)
(* ------------------------------------------------------------------ *)

(* Observed round constants on these families sit at 3-6 (see the TRACE
   experiment); c = 12 gives 2x headroom while still failing loudly if a
   regression costs an extra log factor. *)
let c_rounds = 12

let assert_bounds name g ~d =
  let o = Embedder.run g in
  let r = o.Embedder.report in
  check_bool (name ^ " planar") true (o.Embedder.rotation <> None);
  let v =
    Bounds.check ~c_rounds ~n:r.Embedder.n ~d ~bandwidth:r.Embedder.bandwidth
      r.Embedder.metrics
  in
  if not (Bounds.ok v) then
    Alcotest.failf "%s: %s" name (Format.asprintf "%a" Bounds.pp v)

let test_bounds_grid () =
  List.iter
    (fun (rows, cols) ->
      assert_bounds
        (Printf.sprintf "grid %dx%d" rows cols)
        (Gen.grid rows cols)
        ~d:(rows - 1 + cols - 1))
    [ (4, 4); (5, 8); (8, 8); (6, 10) ]

let test_bounds_cycle () =
  List.iter
    (fun n ->
      assert_bounds (Printf.sprintf "cycle %d" n) (Gen.cycle n) ~d:(n / 2))
    [ 8; 12; 20; 32; 64 ]

let test_bounds_negative () =
  (* A run that blows the round bound must be flagged, not excused. *)
  let g = Gen.cycle 8 in
  let m = Metrics.create g in
  Metrics.add_rounds m 1_000_000;
  let v = Bounds.check ~n:8 ~d:4 m in
  check_bool "rounds flagged" false v.Bounds.rounds_ok;
  check_bool "not ok" false (Bounds.ok v);
  (try
     Bounds.assert_ok v;
     Alcotest.fail "expected assert_ok to raise"
   with Failure _ -> ());
  let m2 = Metrics.create g in
  Metrics.add_message m2 ~u:0 ~v:1 ~bits:10_000;
  let v2 = Bounds.check ~n:8 ~d:4 m2 in
  check_bool "message flagged" false v2.Bounds.message_ok

(* ------------------------------------------------------------------ *)
(* Trace structure                                                     *)
(* ------------------------------------------------------------------ *)

let traced_run g =
  let tr = Trace.create () in
  let o =
    Embedder.run
      ~config:(Network.Config.make ~observe:(Observe.of_trace tr) ())
      g
  in
  (tr, o)

let test_spans_well_formed () =
  let (tr, o) = traced_run (Gen.grid 6 6) in
  check_bool "planar" true (o.Embedder.rotation <> None);
  check "no dangling spans" 0 (Trace.open_spans tr);
  check "no dropped events" 0 (Trace.dropped tr);
  let spans = Trace.spans tr in
  check_bool "spans recorded" true (List.length spans > 0);
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "span %s runs forward" s.Trace.name)
        true
        (s.Trace.end_round >= s.Trace.start_round);
      check_bool "non-negative depth" true (s.Trace.depth >= 0))
    spans;
  let names = List.map (fun (name, _, _, _) -> name) (Trace.summary tr) in
  List.iter
    (fun expected ->
      check_bool (expected ^ " present") true (List.mem expected names))
    [ "leader-election+bfs"; "recursive-embedding"; "recurse.d0";
      "schedule.merge" ]

let test_span_attrs () =
  let (tr, _) = traced_run (Gen.grid 5 5) in
  let merges =
    List.filter (fun s -> s.Trace.name = "schedule.merge") (Trace.spans tr)
  in
  check_bool "merge spans exist" true (merges <> []);
  List.iter
    (fun s ->
      List.iter
        (fun key ->
          check_bool (key ^ " attr present") true
            (List.mem_assoc key s.Trace.attrs))
        [ "p0_len"; "hanging"; "survivors"; "retired" ])
    merges

let test_event_cap () =
  let tr = Trace.create ~max_events:10 () in
  for i = 1 to 100 do
    Trace.note tr "x" i ~round:i
  done;
  check "kept" 10 (List.length (Trace.events tr));
  check "dropped" 90 (Trace.dropped tr)

(* ------------------------------------------------------------------ *)
(* Round log consistency                                               *)
(* ------------------------------------------------------------------ *)

let test_round_log_consistent () =
  (* One engine run: the max-id flood, a dense multi-round workload. *)
  let g = Gen.grid 6 6 in
  let m = Metrics.create g in
  let _ =
    Network.exec
      ~config:(Network.Config.make ~observe:(Observe.of_metrics m) ())
      g (List_oracles.max_id_flood g)
  in
  let log = Metrics.round_log m in
  check "one record per executed round" (Metrics.rounds m + 1)
    (List.length log);
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 log in
  check "messages add up" (Metrics.messages m) (sum (fun r -> r.Metrics.messages));
  check "bits add up" (Metrics.total_bits m) (sum (fun r -> r.Metrics.bits));
  List.iteri
    (fun i r -> check "rounds are contiguous" i r.Metrics.round)
    log;
  check_bool "active peak sane" true
    (Metrics.active_peak m > 0 && Metrics.active_peak m <= Gr.n g);
  check_bool "bursts respect the bandwidth" true
    (Metrics.max_round_edge_bits m <= Network.default_bandwidth g);
  check_bool "some message recorded" true (Metrics.max_message_bits m > 0)

let test_round_log_continues_across_runs () =
  (* Two protocol runs on one metrics object share a timeline. *)
  let g = Gen.binary_tree 15 in
  let m = Metrics.create g in
  let states =
    Proto.leader_bfs
      ~config:(Network.Config.make ~observe:(Observe.of_metrics m) ())
      g
  in
  let rounds_after_first = Metrics.rounds m in
  let parent = Array.map (fun s -> s.Proto.parent) states in
  let root = states.(0).Proto.leader in
  let _ =
    Proto.convergecast
      ~config:(Network.Config.make ~observe:(Observe.of_metrics m) ())
      g ~parent ~root
      ~values:(Array.make 15 1) ~op:( + ) ~value_bits:4
  in
  let log = Metrics.round_log m in
  check_bool "second run offset past the first" true
    (List.exists (fun r -> r.Metrics.round >= rounds_after_first) log);
  (* The second run's round 0 lands on the first run's final round number
     (one shared timeline), so the log is non-decreasing, not strict. *)
  let rs = List.map (fun r -> r.Metrics.round) log in
  check_bool "the timeline never goes backwards" true
    (List.sort compare rs = rs)

(* ------------------------------------------------------------------ *)
(* JSON journal                                                        *)
(* ------------------------------------------------------------------ *)

let test_json_well_formed () =
  let g = Gen.grid 6 6 in
  let tr = Trace.create () in
  let o =
    Embedder.run
      ~config:(Network.Config.make ~observe:(Observe.of_trace tr) ())
      g
  in
  let r = o.Embedder.report in
  let s =
    Trace.to_json_string ~name:"grid-6x6"
      ~meta:[ ("n", r.Embedder.n); ("m", r.Embedder.m) ]
      ~metrics:r.Embedder.metrics tr
  in
  let j = parse_json s in
  (match field j "schema" with
  | Str "distplanar-trace/1" -> ()
  | _ -> Alcotest.fail "bad schema");
  (match field (field j "meta") "n" with
  | Num f -> check "meta n" (Gr.n g) (int_of_float f)
  | _ -> Alcotest.fail "meta.n not a number");
  check_bool "spans present" true (arr_len (field j "spans") > 0);
  check_bool "round histogram present" true (arr_len (field j "rounds") > 0);
  check_bool "edge table present" true (arr_len (field j "edges") > 0);
  (match field j "open_spans" with
  | Num 0.0 -> ()
  | _ -> Alcotest.fail "open_spans should be 0");
  (* Spot-check one span record's fields. *)
  match field j "spans" with
  | Arr (span :: _) ->
      List.iter
        (fun key -> ignore (field span key))
        [ "name"; "depth"; "start"; "end"; "rounds"; "attrs" ]
  | _ -> Alcotest.fail "no spans"

let test_json_messages_kept () =
  let g = Gen.cycle 6 in
  let m = Metrics.create g in
  let tr = Trace.create ~keep_messages:true () in
  let _ =
    Proto.leader_bfs
      ~config:
        (Network.Config.make ~observe:(Observe.make ~metrics:m ~trace:tr ()) ())
      g
  in
  let j = parse_json (Trace.to_json_string ~metrics:m tr) in
  check "every message in the journal" (Metrics.messages m)
    (arr_len (field j "messages"))

let test_json_escaping () =
  let tr = Trace.create () in
  Trace.span_open tr "quote\"back\\slash\ttab" ~round:0;
  Trace.span_close tr ~round:1 ();
  let j = parse_json (Trace.to_json_string ~name:"we\"ird" tr) in
  match field j "spans" with
  | Arr [ span ] -> (
      match field span "name" with
      | Str s -> Alcotest.(check string) "escaped name" "quote\"back\\slash\ttab" s
      | _ -> Alcotest.fail "span name not a string")
  | _ -> Alcotest.fail "expected one span"

let () =
  Alcotest.run "trace"
    [
      ( "bounds",
        [
          Alcotest.test_case "Theorem 1.1 on grids" `Quick test_bounds_grid;
          Alcotest.test_case "Theorem 1.1 on cycles" `Quick test_bounds_cycle;
          Alcotest.test_case "violations flagged" `Quick test_bounds_negative;
        ] );
      ( "spans",
        [
          Alcotest.test_case "well-formed" `Quick test_spans_well_formed;
          Alcotest.test_case "merge attrs" `Quick test_span_attrs;
          Alcotest.test_case "event cap" `Quick test_event_cap;
        ] );
      ( "round log",
        [
          Alcotest.test_case "consistent" `Quick test_round_log_consistent;
          Alcotest.test_case "continues across runs" `Quick
            test_round_log_continues_across_runs;
        ] );
      ( "json",
        [
          Alcotest.test_case "well-formed" `Quick test_json_well_formed;
          Alcotest.test_case "messages kept" `Quick test_json_messages_kept;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
        ] );
    ]
