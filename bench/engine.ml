(* Microbenchmark: the flat-array round engine (Network.exec) on its
   own — wall time, allocated words and words per message of a bare run
   per protocol shape. Each protocol runs twice: natively on the push
   interface, and in its list-shaped original through the test-only
   List_shape.of_lists adapter, which is the shape every protocol had
   before the push interface (the "list" columns). Two identity gates cost nothing to keep honest:

     - observation must be free of behavior: a run observed through a
       metrics sink must end in the same states after the same rounds as
       a bare run;
     - the native port must be the list original: same states, rounds
       and report.

   One allocation gate rides along: a native flood case must allocate
   at most [max_words_per_msg] words per message, both on one domain and
   on the two-domain sharded loop (the "d2" columns, whose run must also
   match the one-domain run; its time is process CPU time, both domains
   together).
   A phase-1 section compares Proto.leader_bfs (a scaffold election by
   a fixed mix of the id, then one BFS wave from the maximum id) with the
   max-id flood it replaced (the test-only oracle) on the same inputs,
   in the generators' numbering and under a random relabelling: messages,
   rounds, time and allocated words per message of each, plus one
   Embedder.run row on a long path. Its gate: every row's election
   states equal the flood's, its messages stay within 3 · m · ⌈log₂ n⌉,
   and the path embeds.

   Every time is monotonic wall-clock seconds except the d2 column's,
   which is process CPU time ("d2_cpu_s"). Results go to
   BENCH_engine.json (with the core count and OCaml version) and
   stdout.

     dune exec bench/engine.exe              # full sweep, grids to n=100k
     dune exec bench/engine.exe -- --quick   # CI smoke: small cases only,
                                             # exit 1 on any gate
     dune exec bench/engine.exe -- --out F   # write the JSON to F *)

(* Send [x] to every neighbor of [v], in descending neighbor order (the
   order the list-shaped versions of these protocols used), reading the
   CSR slice directly so the announce allocates nothing. *)
let to_all g v x send =
  let offs = Gr.dart_offsets g and nbr = Gr.dart_sources g in
  for d = offs.(v + 1) - 1 downto offs.(v) do
    send nbr.(d) x
  done

(* Dense activity: max-id flood, every node re-announces on improvement. *)
let flood =
  {
    Network.init =
      (fun g v send ->
        to_all g v v send;
        v);
    round =
      (fun g v best inbox send ->
        let best' = ref best in
        for i = 0 to Network.Inbox.length inbox - 1 do
          best' := max !best' (Network.Inbox.msg inbox i)
        done;
        if !best' <> best then to_all g v !best' send;
        !best');
    msg_bits = (fun _ -> 12);
  }

(* Wavefront activity: single-source reachability, every node announces
   exactly once, so most rounds touch only the frontier. *)
let bfs_wave =
  {
    Network.init =
      (fun g v send ->
        if v = 0 then to_all g v 1 send;
        v = 0);
    round =
      (fun g v reached inbox send ->
        if reached || Network.Inbox.length inbox = 0 then reached
        else begin
          to_all g v 1 send;
          true
        end);
    msg_bits = (fun _ -> 8);
  }

(* Point activity: one token circling a ring — one active node and one
   message per round, the worst case for an O(n)-per-round loop. *)
let token_ring n ttl =
  {
    Network.init =
      (fun _g v send -> if v = 0 then send 1 ttl);
    round =
      (fun _g v () inbox send ->
        if Network.Inbox.length inbox = 1 then begin
          let src = Network.Inbox.src inbox 0 and t = Network.Inbox.msg inbox 0 in
          if t > 0 then
            send
              (if (v + 1) mod n = src then (v + n - 1) mod n else (v + 1) mod n)
              (t - 1)
        end);
    msg_bits = (fun _ -> 16);
  }

(* The list-shaped originals, run through [List_shape.of_lists]. *)
let to_all_list g v msg =
  Gr.fold_neighbors g v ~init:[] ~f:(fun acc w -> (w, msg) :: acc)

let flood_lists =
  List_shape.of_lists
    {
      List_shape.init = (fun g v -> (v, to_all_list g v v));
      round =
        (fun g v best inbox ->
          let best' = List.fold_left (fun acc (_, x) -> max acc x) best inbox in
          if best' = best then (best, []) else (best', to_all_list g v best'));
      msg_bits = (fun _ -> 12);
    }

let bfs_wave_lists =
  List_shape.of_lists
    {
      List_shape.init =
        (fun g v -> if v = 0 then (true, to_all_list g v 1) else (false, []));
      round =
        (fun g v reached inbox ->
          if reached || inbox = [] then (reached, [])
          else (true, to_all_list g v 1));
      msg_bits = (fun _ -> 8);
    }

let token_ring_lists n ttl =
  List_shape.of_lists
    {
      List_shape.init = (fun _g v -> ((), if v = 0 then [ (1, ttl) ] else []));
      round =
        (fun _g v st inbox ->
          match inbox with
          | [ (src, t) ] when t > 0 ->
              let w =
                if (v + 1) mod n = src then (v + n - 1) mod n
                else (v + 1) mod n
              in
              (st, [ (w, t - 1) ])
          | _ -> (st, []));
      msg_bits = (fun _ -> 16);
    }

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type shape = { wall : float; words : float; wpm : float }

type case = {
  name : string;
  n : int;
  m : int;
  rounds : int;
  messages : int;
  native : shape;
  lists : shape;
  d2 : shape option;  (* the native run on two domains; flood cases *)
  identical : bool;
}

(* A case is split into two closures so the driver can schedule them
   differently: the identity pass (observed run and list run, results
   compared — CPU-bound and independent across cases, so it fans out
   over the Pool when --jobs asks) and the timing pass (bare
   runs whose wall-clock numbers are the product, so it always runs
   serially on an otherwise idle process). The closures hide the
   per-case state type, which lets heterogeneous protocols share one
   case list. *)
type prepared = {
  p_name : string;
  p_n : int;
  p_m : int;
  p_identity : unit -> bool * int * int;  (* identical?, rounds, messages *)
  p_timing : unit -> shape * shape * shape option * bool;
}

let config = Network.Config.make ~bandwidth:4096 ()

(* The allocation gate: the engine allocates nothing per message, so a
   native flood's whole run (states, announces, the engine's arrays, the
   domain pool at d=2) stays well under one word per message. *)
let max_words_per_msg = 1.

let is_flood name = String.ends_with ~suffix:"/flood" name

let prep name g proto proto_lists =
  let identity () =
    let bare = Network.exec ~config g proto in
    let m = Metrics.create g in
    let observed =
      Network.exec
        ~config:(Network.Config.with_observe (Observe.of_metrics m) config)
        g proto
    in
    let listed = Network.exec ~config g proto_lists in
    ( bare.Network.states = observed.Network.states
      && bare.Network.rounds = observed.Network.rounds
      && Metrics.rounds m = bare.Network.rounds
      && listed.Network.states = bare.Network.states
      && listed.Network.rounds = bare.Network.rounds
      && listed.Network.report = bare.Network.report,
      bare.Network.rounds,
      bare.Network.report.Network.messages )
  in
  let time ?(config = config) ?clock p =
    let r, wall, words =
      Harness.counted ?clock (fun () -> Network.exec ~config g p)
    in
    let msgs = max 1 r.Network.report.Network.messages in
    ({ wall; words; wpm = words /. float msgs }, r)
  in
  let timing () =
    let (native, r_n) = time proto in
    let (lists, r_l) = time proto_lists in
    let sized r = Array.length r.Network.states = Gr.n g in
    let (d2, ok_d2) =
      if is_flood name then begin
        let d2, r_2 =
          time ~config:(Network.Config.with_domains 2 config) ~clock:Sys.time
            proto
        in
        ( Some d2,
          r_2.Network.states = r_n.Network.states
          && r_2.Network.rounds = r_n.Network.rounds
          && r_2.Network.report = r_n.Network.report )
      end
      else (None, true)
    in
    (native, lists, d2, sized r_n && sized r_l && ok_d2)
  in
  {
    p_name = name;
    p_n = Gr.n g;
    p_m = Gr.m g;
    p_identity = identity;
    p_timing = timing;
  }

let run_cases ~jobs prepped =
  let arr = Array.of_list prepped in
  let identities =
    Pool.map ~jobs (Array.length arr) (fun i -> arr.(i).p_identity ())
  in
  Printf.printf "%-24s %7s %6s %10s | %9s %7s | %9s %7s | %9s %7s\n" "case" "n"
    "rounds" "messages" "native s" "w/msg" "list s" "w/msg" "d2 cpu s" "w/msg";
  List.mapi
    (fun i p ->
      let (id_ok, rounds, messages) = identities.(i) in
      let (native, lists, d2, timed_ok) = p.p_timing () in
      let c =
        {
          name = p.p_name;
          n = p.p_n;
          m = p.p_m;
          rounds;
          messages;
          native;
          lists;
          d2;
          identical = id_ok && timed_ok;
        }
      in
      let d2_cols =
        match d2 with
        | Some s -> Printf.sprintf "%9.3f %7.2f" s.wall s.wpm
        | None -> Printf.sprintf "%9s %7s" "-" "-"
      in
      Printf.printf "%-24s %7d %6d %10d | %9.3f %7.2f | %9.3f %7.2f | %s  %s\n%!"
        c.name c.n c.rounds c.messages native.wall native.wpm lists.wall
        lists.wpm d2_cols
        (if c.identical then "identical" else "MISMATCH");
      c)
    prepped

(* ------------------------------------------------------------------ *)
(* Phase 1: the election against the max-id flood                      *)
(* ------------------------------------------------------------------ *)

(* The same constant the message-bound property of the test suite pins. *)
let phase1_c = 3

type p1_side = { msgs : int; p1_rounds : int; time : shape (* wall clock *) }

type p1_row = {
  p1_name : string;
  p1_n : int;
  p1_m : int;
  flood_side : p1_side;
  election : p1_side;
  same_states : bool;
  bound : int;  (* phase1_c · m · ⌈log₂ n⌉, the last as [Gr.id_bits] *)
}

(* One side: an observed run for messages and rounds, then a bare run
   timed on the wall clock. *)
let p1_side g run =
  let m = Metrics.create g in
  let states =
    run (Network.Config.make ~observe:(Observe.of_metrics m) ()) g
  in
  let _, wall, words =
    Harness.counted (fun () -> run Network.Config.default g)
  in
  let msgs = Metrics.messages m in
  ( states,
    {
      msgs;
      p1_rounds = Metrics.rounds m;
      time = { wall; words; wpm = words /. float (max 1 msgs) };
    } )

let p1_row name g =
  let (want, flood_side) =
    p1_side g (fun config g -> List_oracles.max_id_leader_bfs ~config g)
  in
  let (got, election) =
    p1_side g (fun config g -> Proto.leader_bfs ~config g)
  in
  let row =
    {
      p1_name = name;
      p1_n = Gr.n g;
      p1_m = Gr.m g;
      flood_side;
      election;
      same_states = got = want;
      bound = phase1_c * Gr.m g * Gr.id_bits g;
    }
  in
  Printf.printf
    "%-26s %6d %7d | %10d %6d %8.3f %6.2f | %8d %6d %7.3f %6.2f | %s%s\n%!"
    name row.p1_n row.p1_m flood_side.msgs flood_side.p1_rounds
    flood_side.time.wall flood_side.time.wpm election.msgs election.p1_rounds
    election.time.wall election.time.wpm
    (if row.same_states then "same states" else "STATES DIFFER")
    (if election.msgs <= row.bound then "" else "  OVER BOUND");
  row

let p1_rows ~quick =
  let layouts name g =
    let generated = p1_row name g in
    let relabelled = Gr.relabel g (Gen.random_permutation ~seed:1 (Gr.n g)) in
    [ generated; p1_row (name ^ "/random") relabelled ]
  in
  Printf.printf "\n%-26s %6s %7s | %10s %6s %8s %6s | %8s %6s %7s %6s\n"
    "phase 1" "n" "m" "flood msgs" "rounds" "s" "w/msg" "elect" "rounds" "s"
    "w/msg";
  List.concat_map
    (fun (name, g) -> layouts name g)
    (if quick then
       [
         ("path-2k", Gen.path 2_000);
         ("cycle-1k", Gen.cycle 1_000);
         ("grid-40x40", Gen.grid 40 40);
         ("maxplanar-500", Gen.random_maximal_planar ~seed:1 500);
         ( "outerplanar-1000",
           Gen.random_outerplanar ~seed:1 ~n:1_000 ~chord_prob:0.5 );
       ]
     else
       [
         ("path-20k", Gen.path 20_000);
         ("cycle-10k", Gen.cycle 10_000);
         ("grid-100x100", Gen.grid 100 100);
         ("maxplanar-2000", Gen.random_maximal_planar ~seed:1 2_000);
         ( "outerplanar-5000",
           Gen.random_outerplanar ~seed:1 ~n:5_000 ~chord_prob:0.5 );
       ])

(* The scaling probe's worst case under the flood: Embedder.run on a long
   path, whose gate in the roadmap is 0.5 s at n = 20,000. Recorded, not
   enforced: a wall-time gate would fail on a slow shared runner. *)
let embedder_gate_s = 0.5

let embedder_row ~quick =
  let n = if quick then 5_000 else 20_000 in
  let g = Gen.path n in
  let o, wall = Harness.time (fun () -> Embedder.run g) in
  Printf.printf "\nEmbedder.run path-%dk: %.3f s wall (gate %.1f s at 20k), %s\n%!"
    (n / 1000) wall embedder_gate_s
    (if o.Embedder.rotation <> None then "planar" else "REJECTED");
  (Printf.sprintf "path-%dk" (n / 1000), n, wall, o.Embedder.rotation <> None)

(* ------------------------------------------------------------------ *)
(* JSON and driver                                                     *)
(* ------------------------------------------------------------------ *)

let json_of_case (c : case) =
  let shape prefix time_key s =
    Harness.
      [
        (prefix ^ time_key, secs s.wall);
        (prefix ^ "alloc_words", Num (0, s.words));
        (prefix ^ "words_per_msg", Num (3, s.wpm));
      ]
  in
  Harness.(
    Obj
      ([
         ("name", Str c.name); ("n", Int c.n); ("m", Int c.m);
         ("rounds", Int c.rounds); ("messages", Int c.messages);
       ]
      @ shape "" "wall_s" c.native
      @ shape "list_" "wall_s" c.lists
      @ (match c.d2 with Some s -> shape "d2_" "cpu_s" s | None -> [])
      @ [ ("identical", Bool c.identical) ]))

let json_of_p1_side s =
  Harness.(
    Obj
      [
        ("messages", Int s.msgs); ("rounds", Int s.p1_rounds);
        ("wall_s", secs s.time.wall); ("alloc_words", Num (0, s.time.words));
        ("words_per_msg", Num (3, s.time.wpm));
      ])

let json_of_p1_row r =
  Harness.(
    Obj
      [
        ("name", Str r.p1_name); ("n", Int r.p1_n); ("m", Int r.p1_m);
        ("bound", Int r.bound); ("same_states", Bool r.same_states);
        ("flood", json_of_p1_side r.flood_side);
        ("election", json_of_p1_side r.election);
      ])

let () =
  let cli = Harness.args ~jobs:true "engine" ~out:"BENCH_engine.json" in
  let ring n ttl = prep (Printf.sprintf "cycle-%dk/token-ring" (n / 1000))
      (Gen.cycle n) (token_ring n ttl) (token_ring_lists n ttl) in
  let prepped =
    if cli.quick then
      [
        prep "grid-100x100/flood" (Gen.grid 100 100) flood flood_lists;
        prep "grid-100x100/bfs-wave" (Gen.grid 100 100) bfs_wave bfs_wave_lists;
        ring 10_000 2_000;
      ]
    else
      [
        prep "grid-100x100/flood" (Gen.grid 100 100) flood flood_lists;
        prep "grid-100x100/bfs-wave" (Gen.grid 100 100) bfs_wave bfs_wave_lists;
        prep "grid-250x400/flood" (Gen.grid 250 400) flood flood_lists;
        prep "grid-250x400/bfs-wave" (Gen.grid 250 400) bfs_wave bfs_wave_lists;
        prep "cycle-10k/flood" (Gen.cycle 10_000) flood flood_lists;
        ring 100_000 5_000;
      ]
  in
  let cases = run_cases ~jobs:cli.jobs prepped in
  let phase1 = p1_rows ~quick:cli.quick in
  let (e_name, e_n, e_wall, planar) = embedder_row ~quick:cli.quick in
  let identity =
    List.filter_map
      (fun c ->
        if c.identical then None
        else Some (Printf.sprintf "identity gate failed on %s" c.name))
      cases
  in
  let heavy =
    List.concat_map
      (fun c ->
        if not (is_flood c.name) then []
        else
          List.filter_map
            (fun (label, s) ->
              if s.wpm > max_words_per_msg then
                Some
                  (Printf.sprintf
                     "%s at %s allocates %.3f words/message (gate %.0f)"
                     c.name label s.wpm max_words_per_msg)
              else None)
            (("d=1", c.native)
            :: (match c.d2 with Some s -> [ ("d=2", s) ] | None -> [])))
      cases
  in
  let p1_bad =
    List.filter_map
      (fun r ->
        if r.same_states && r.election.msgs <= r.bound then None
        else
          Some
            (Printf.sprintf
               "phase-1 gate failed on %s (states %s, %d messages, bound %d)"
               r.p1_name
               (if r.same_states then "equal" else "differ")
               r.election.msgs r.bound))
      phase1
  in
  Harness.(
    finish cli
      (document "congest-engine-exec"
         [
           ("unit", Obj [ ("wall", Str "seconds"); ("alloc", Str "words") ]);
           ( "shapes",
             Obj
               [
                 ("native", Str "push send + inbox view");
                 ("list", Str "list original via List_shape.of_lists");
               ] );
           ("cases", List (List.map json_of_case cases));
           ( "phase1_bound",
             Str
               (Printf.sprintf "messages <= %d * m * ceil(log2 n)" phase1_c) );
           ("phase1", List (List.map json_of_p1_row phase1));
           ( "embedder",
             Obj
               [
                 ("name", Str e_name); ("n", Int e_n); ("wall_s", secs e_wall);
                 ("gate_s", Num (1, embedder_gate_s)); ("planar", Bool planar);
               ] );
         ])
      (identity @ heavy @ p1_bad
      @ if planar then [] else [ "Embedder.run rejected a path" ]))
