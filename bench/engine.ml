(* Microbenchmark: the flat-array round engine (Network.exec) on its
   own — wall time, allocated words and words per message of a bare run
   per protocol shape. Each protocol runs twice: natively on the push
   interface, and in its list-shaped original through Network.of_lists,
   which is the shape every protocol had before the push interface (the
   "list" columns). Two identity gates cost nothing to keep honest:

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
   Results go to BENCH_engine.json (with the core count and OCaml
   version) and stdout.

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

(* The list-shaped originals, run through [Network.of_lists]. *)
let to_all_list g v msg =
  Gr.fold_neighbors g v ~init:[] ~f:(fun acc w -> (w, msg) :: acc)

let flood_lists =
  Network.of_lists
    {
      Network.init = (fun g v -> (v, to_all_list g v v));
      round =
        (fun g v best inbox ->
          let best' = List.fold_left (fun acc (_, x) -> max acc x) best inbox in
          if best' = best then (best, []) else (best', to_all_list g v best'));
      msg_bits = (fun _ -> 12);
    }

let bfs_wave_lists =
  Network.of_lists
    {
      Network.init =
        (fun g v -> if v = 0 then (true, to_all_list g v 1) else (false, []));
      round =
        (fun g v reached inbox ->
          if reached || inbox = [] then (reached, [])
          else (true, to_all_list g v 1));
      msg_bits = (fun _ -> 8);
    }

let token_ring_lists n ttl =
  Network.of_lists
    {
      Network.init = (fun _g v -> ((), if v = 0 then [ (1, ttl) ] else []));
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

(* OCaml 5 folds minor-heap allocation into [quick_stat] only at a minor
   collection, so one is forced first; otherwise a reading lags by up to
   a whole minor heap. *)
let words_now () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let measure f =
  Gc.full_major ();
  let w0 = words_now () in
  let t0 = Sys.time () in
  let x = f () in
  let t1 = Sys.time () in
  let w1 = words_now () in
  (x, t1 -. t0, w1 -. w0)

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
  let time ?(config = config) p =
    let (r, wall, words) = measure (fun () -> Network.exec ~config g p) in
    let msgs = max 1 r.Network.report.Network.messages in
    ({ wall; words; wpm = words /. float msgs }, r)
  in
  let timing () =
    let (native, r_n) = time proto in
    let (lists, r_l) = time proto_lists in
    let sized r = Array.length r.Network.states = Gr.n g in
    let (d2, ok_d2) =
      if is_flood name then begin
        let (d2, r_2) =
          time ~config:(Network.Config.with_domains 2 config) proto
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

let json_of_cases ~cores cases =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmark\": \"congest-engine-exec\",\n";
  Buffer.add_string b (Printf.sprintf "  \"cores\": %d,\n" cores);
  Buffer.add_string b
    (Printf.sprintf "  \"ocaml_version\": %S,\n" Sys.ocaml_version);
  Buffer.add_string b
    "  \"unit\": { \"wall\": \"seconds\", \"alloc\": \"words\" },\n";
  Buffer.add_string b
    "  \"shapes\": { \"native\": \"push send + inbox view\", \"list\": \
     \"list original via Network.of_lists\" },\n";
  Buffer.add_string b "  \"cases\": [\n";
  List.iteri
    (fun i c ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"name\": %S, \"n\": %d, \"m\": %d, \"rounds\": %d, \
            \"messages\": %d,\n\
           \      \"wall_s\": %.6f, \"alloc_words\": %.0f, \
            \"words_per_msg\": %.3f,\n\
           \      \"list_wall_s\": %.6f, \"list_alloc_words\": %.0f, \
            \"list_words_per_msg\": %.3f,%s \"identical\": %b }%s\n"
           c.name c.n c.m c.rounds c.messages c.native.wall c.native.words
           c.native.wpm c.lists.wall c.lists.words c.lists.wpm
           (match c.d2 with
           | Some s ->
               Printf.sprintf
                 "\n      \"d2_cpu_s\": %.6f, \"d2_alloc_words\": %.0f, \
                  \"d2_words_per_msg\": %.3f,"
                 s.wall s.words s.wpm
           | None -> "")
           c.identical
           (if i = List.length cases - 1 then "" else ",")))
    cases;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let () =
  let quick = ref false in
  let out = ref "BENCH_engine.json" in
  let jobs = ref 1 in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--out" :: file :: rest ->
        out := file;
        parse rest
    | "--jobs" :: k :: rest -> (
        match int_of_string_opt k with
        | Some k when k >= 1 ->
            jobs := k;
            parse rest
        | _ ->
            Printf.eprintf "engine: --jobs expects a positive integer\n";
            exit 2)
    | arg :: _ ->
        Printf.eprintf "engine: unknown argument %s\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let ring n ttl = prep (Printf.sprintf "cycle-%dk/token-ring" (n / 1000))
      (Gen.cycle n) (token_ring n ttl) (token_ring_lists n ttl) in
  let prepped =
    if !quick then
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
  let cases = run_cases ~jobs:!jobs prepped in
  let oc = open_out !out in
  output_string oc
    (json_of_cases ~cores:(Domain.recommended_domain_count ()) cases);
  close_out oc;
  Printf.printf "\nwrote %s\n" !out;
  let broken = List.filter (fun c -> not c.identical) cases in
  List.iter
    (fun c -> Printf.eprintf "engine: identity gate failed on %s\n" c.name)
    broken;
  let heavy =
    List.concat_map
      (fun c ->
        if not (is_flood c.name) then []
        else
          List.filter_map
            (fun (label, s) ->
              if s.wpm > max_words_per_msg then Some (c.name, label, s.wpm)
              else None)
            (("d=1", c.native)
            :: (match c.d2 with Some s -> [ ("d=2", s) ] | None -> [])))
      cases
  in
  List.iter
    (fun (name, label, wpm) ->
      Printf.eprintf "engine: %s at %s allocates %.3f words/message (gate %.0f)\n"
        name label wpm max_words_per_msg)
    heavy;
  if broken <> [] || heavy <> [] then exit 1
