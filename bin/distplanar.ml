(* distplanar — command-line front end.

   Subcommands:
     embed    run the distributed embedding algorithm on a generated graph
              and print the per-node rotations plus the round/congestion
              report
     baseline run the trivial gather-everything algorithm for comparison
     check    centralized planarity test only (left-right kernel)
     families list the available graph families

   Example:
     distplanar embed --family grid --rows 4 --cols 5 --rotations
     distplanar embed --family maxplanar -n 2000 --mode economy
     distplanar baseline --family k4subdiv --seglen 64 *)

open Cmdliner

let make_graph family n rows cols seglen seed m chord_prob =
  match family with
  | "path" -> Gen.path n
  | "cycle" -> Gen.cycle n
  | "star" -> Gen.star n
  | "tree" -> Gen.random_tree ~seed n
  | "binary-tree" -> Gen.binary_tree n
  | "grid" -> Gen.grid rows cols
  | "trigrid" -> Gen.triangular_grid rows cols
  | "wheel" -> Gen.wheel n
  | "maxplanar" -> Gen.random_maximal_planar ~seed n
  | "planar" ->
      let m = if m > 0 then m else min ((3 * n) - 6) (2 * n) in
      Gen.random_planar ~seed ~n ~m
  | "outerplanar" -> Gen.random_outerplanar ~seed ~n ~chord_prob
  | "k4subdiv" -> Gen.k4_subdivision seglen
  | "k4" -> Gen.complete 4
  | "k5" -> Gen.k5 ()
  | "k33" -> Gen.k33 ()
  | "petersen" -> Gen.petersen ()
  | "toroidal" -> Gen.toroidal_grid rows cols
  | other ->
      Printf.eprintf "unknown family %S; try `distplanar families'\n" other;
      exit 2

let family_doc =
  "Graph family: path, cycle, star, tree, binary-tree, grid, trigrid, \
   wheel, maxplanar, planar, outerplanar, k4subdiv, k4, k5, k33, petersen, \
   toroidal."

let family_t =
  Arg.(value & opt string "maxplanar" & info [ "family"; "f" ] ~doc:family_doc)

let n_t = Arg.(value & opt int 100 & info [ "n" ] ~doc:"Number of vertices.")
let rows_t = Arg.(value & opt int 8 & info [ "rows" ] ~doc:"Grid rows.")
let cols_t = Arg.(value & opt int 8 & info [ "cols" ] ~doc:"Grid columns.")

let seglen_t =
  Arg.(value & opt int 16 & info [ "seglen" ] ~doc:"K4-subdivision segment length.")

let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

(* Domain and job counts: anything below 1 is a usage error, reported
   by Cmdliner before a subcommand prints anything. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= 1 -> Ok k
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let m_t =
  Arg.(value & opt int 0 & info [ "m" ] ~doc:"Edge count for --family planar (0 = default).")

let chord_t =
  Arg.(value & opt float 0.5 & info [ "chord-prob" ] ~doc:"Outerplanar chord probability.")

let mode_t =
  let mode_conv =
    Arg.enum [ ("faithful", Part.Faithful); ("economy", Part.Economy) ]
  in
  Arg.(value & opt mode_conv Part.Faithful & info [ "mode" ] ~doc:"faithful | economy.")

let checks_t =
  Arg.(value & flag & info [ "checks" ] ~doc:"Validate safety invariants at every merge.")

let rotations_t =
  Arg.(value & flag & info [ "rotations" ] ~doc:"Print the per-node clockwise orders.")

let print_report_common ~phases ~rounds ~total_bits ~max_edge_bits =
  Printf.printf "rounds           : %d\n" rounds;
  List.iter (fun (name, r) -> Printf.printf "  %-28s %6d\n" name r) phases;
  Printf.printf "total bits       : %d\n" total_bits;
  Printf.printf "max bits per edge: %d\n" max_edge_bits

let print_rotation r =
  let g = Rotation.graph r in
  for v = 0 to Gr.n g - 1 do
    let order =
      String.concat " "
        (List.map string_of_int (Array.to_list (Rotation.rotation r v)))
    in
    Printf.printf "  %4d : (%s)\n" v order
  done

let graph_summary g =
  Printf.printf "graph            : n=%d m=%d%s\n" (Gr.n g) (Gr.m g)
    (if Traverse.is_connected g then
       Printf.sprintf " diameter=%d" (Traverse.diameter g)
     else " (disconnected)")

let embed_cmd =
  let run family n rows cols seglen seed m chord mode checks rotations =
    let g = make_graph family n rows cols seglen seed m chord in
    graph_summary g;
    let o = Embedder.run ~mode ~checks g in
    let r = o.Embedder.report in
    Printf.printf "algorithm        : distributed recursive embedding (Theorem 1.1)\n";
    Printf.printf "bandwidth        : %d bits/edge/round\n" r.Embedder.bandwidth;
    Printf.printf "leader           : %d (BFS depth %d)\n" r.Embedder.leader
      r.Embedder.bfs_depth;
    Printf.printf "recursion        : depth %d, %d calls, max %d parts at a \
                   restricted merge\n"
      r.Embedder.recursion_depth r.Embedder.recursion_calls
      r.Embedder.max_parts_at_restricted_merge;
    Printf.printf "merges           : %d pairwise, %d star, %d \
                   vertex-coordinated, %d path-coordinated, %d retired\n"
      r.Embedder.merges_pairwise r.Embedder.merges_star r.Embedder.merges_vertex
      r.Embedder.merges_path r.Embedder.retired_parts;
    if checks then
      Printf.printf "safety checks    : %d merges validated\n" r.Embedder.safety_checks;
    print_report_common ~phases:r.Embedder.phases ~rounds:r.Embedder.rounds
      ~total_bits:r.Embedder.total_bits ~max_edge_bits:r.Embedder.max_edge_bits;
    match o.Embedder.rotation with
    | None ->
        Printf.printf "verdict          : NOT PLANAR\n";
        exit 1
    | Some rot ->
        Printf.printf "verdict          : planar (independent Euler check: %s, %d faces)\n"
          (if Rotation.is_planar_embedding rot then "passed" else "FAILED")
          (Rotation.face_count rot);
        if rotations then print_rotation rot
  in
  let term =
    Term.(
      const run $ family_t $ n_t $ rows_t $ cols_t $ seglen_t $ seed_t $ m_t
      $ chord_t $ mode_t $ checks_t $ rotations_t)
  in
  Cmd.v (Cmd.info "embed" ~doc:"Run the distributed planar embedding algorithm.") term

let baseline_cmd =
  let run family n rows cols seglen seed m chord rotations =
    let g = make_graph family n rows cols seglen seed m chord in
    graph_summary g;
    let o = Baseline.run g in
    let r = o.Baseline.report in
    Printf.printf "algorithm        : trivial gather-everything baseline (footnote 2)\n";
    print_report_common ~phases:r.Baseline.phases ~rounds:r.Baseline.rounds
      ~total_bits:r.Baseline.total_bits ~max_edge_bits:r.Baseline.max_edge_bits;
    match o.Baseline.rotation with
    | None ->
        Printf.printf "verdict          : NOT PLANAR\n";
        exit 1
    | Some rot ->
        Printf.printf "verdict          : planar (Euler check: %s)\n"
          (if Rotation.is_planar_embedding rot then "passed" else "FAILED");
        if rotations then print_rotation rot
  in
  let term =
    Term.(
      const run $ family_t $ n_t $ rows_t $ cols_t $ seglen_t $ seed_t $ m_t
      $ chord_t $ rotations_t)
  in
  Cmd.v (Cmd.info "baseline" ~doc:"Run the O(n) gather-everything baseline.") term

let check_cmd =
  let run family n rows cols seglen seed m chord =
    let g = make_graph family n rows cols seglen seed m chord in
    graph_summary g;
    match Planarity.embed g with
    | Planarity.Planar r ->
        Printf.printf "planar: yes (%d faces, genus %d)\n" (Rotation.face_count r)
          (Rotation.genus r)
    | Planarity.Nonplanar ->
        Printf.printf "planar: no\n";
        exit 1
  in
  let term =
    Term.(
      const run $ family_t $ n_t $ rows_t $ cols_t $ seglen_t $ seed_t $ m_t
      $ chord_t)
  in
  Cmd.v (Cmd.info "check" ~doc:"Centralized planarity test.") term

let witness_cmd =
  let run family n rows cols seglen seed m chord =
    let g = make_graph family n rows cols seglen seed m chord in
    graph_summary g;
    match Kuratowski.witness g with
    | None -> Printf.printf "planar: no Kuratowski witness exists\n"
    | Some edges ->
        let kind = Kuratowski.classify g edges in
        Printf.printf "non-planar; edge-minimal witness (%d edges, %s):\n"
          (List.length edges)
          (match kind with
          | Some Kuratowski.K5 -> "a K5 subdivision"
          | Some Kuratowski.K33 -> "a K3,3 subdivision"
          | None -> "UNCLASSIFIED (bug)");
        List.iter (fun (u, v) -> Printf.printf "  %d -- %d\n" u v) edges;
        exit 1
  in
  let term =
    Term.(
      const run $ family_t $ n_t $ rows_t $ cols_t $ seglen_t $ seed_t $ m_t
      $ chord_t)
  in
  Cmd.v
    (Cmd.info "witness" ~doc:"Extract a Kuratowski non-planarity certificate.")
    term

let separator_cmd =
  let run family n rows cols seglen seed m chord =
    let g = make_graph family n rows cols seglen seed m chord in
    graph_summary g;
    let s = Separator.separate g in
    Printf.printf "separator (%d vertices, balance %.2f): %s\n"
      (List.length s.Separator.separator)
      s.Separator.balance
      (String.concat " " (List.map string_of_int s.Separator.separator));
    Printf.printf "components: %s\n"
      (String.concat " "
         (List.map
            (fun c -> string_of_int (List.length c))
            s.Separator.components));
    assert (Separator.check g s)
  in
  let term =
    Term.(
      const run $ family_t $ n_t $ rows_t $ cols_t $ seglen_t $ seed_t $ m_t
      $ chord_t)
  in
  Cmd.v
    (Cmd.info "separator"
       ~doc:"Compute a balanced Lipton-Tarjan separator of a planar graph.")
    term

let trace_cmd =
  let json_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~doc:"Write the machine-readable JSON journal to $(docv).")
  in
  let keep_messages_t =
    Arg.(
      value & flag
      & info [ "keep-messages" ]
          ~doc:"Record every individual message in the journal (heavy).")
  in
  let run family n rows cols seglen seed m chord mode json keep_messages =
    let g = make_graph family n rows cols seglen seed m chord in
    graph_summary g;
    let d = Traverse.diameter g in
    let tr = Trace.create ~keep_messages () in
    let o =
      try
        Embedder.run
          ~config:(Network.Config.make ~observe:(Observe.of_trace tr) ())
          ~mode g
      with Network.No_quiescence { round; active; messages } ->
        (* A protocol that never goes quiet: say where it was stuck, not
           just that it was — the innermost still-open span is the
           protocol phase that was executing when the guard tripped. *)
        let stalled_in =
          match Trace.open_span_names tr with
          | [] -> "(no protocol phase was open)"
          | phase :: _ -> Printf.sprintf "protocol phase %S" phase
        in
        Printf.eprintf
          "trace: no quiescence after %d rounds — %d nodes still had \
           undelivered mail, the last round sent %d messages, and the run \
           stalled inside %s.\n"
          round active messages stalled_in;
        Printf.eprintf
          "trace: the last rounds of the journal show who kept talking:\n";
        Format.eprintf "%a@." Trace.pp_summary tr;
        exit 3
    in
    let r = o.Embedder.report in
    let metrics = r.Embedder.metrics in
    Printf.printf "algorithm        : distributed recursive embedding, traced\n";
    Printf.printf "bandwidth        : %d bits/edge/round\n" r.Embedder.bandwidth;
    Printf.printf "rounds           : %d (recursion depth %d, %d calls)\n"
      r.Embedder.rounds r.Embedder.recursion_depth r.Embedder.recursion_calls;
    Format.printf "@.%a@.@." Trace.pp_summary tr;
    (* The five busiest directed edges: where the congestion lives. *)
    let rows = ref [] in
    Metrics.iter_dir metrics (fun ~src ~dst ~bits ~messages ~burst ->
        rows := (bits, src, dst, messages, burst) :: !rows);
    let busiest =
      List.filteri
        (fun i _ -> i < 5)
        (List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare b a) !rows)
    in
    Printf.printf "busiest directed edges (bits, src->dst, messages, max round \
                   burst):\n";
    List.iter
      (fun (bits, src, dst, msgs, burst) ->
        Printf.printf "  %8d  %5d -> %-5d %6d %6d\n" bits src dst msgs burst)
      busiest;
    let log = Metrics.round_log metrics in
    Printf.printf "round histogram  : %d simulator rounds recorded, peak %d \
                   active nodes, %d total messages\n"
      (List.length log)
      (Metrics.active_peak metrics)
      (Metrics.messages metrics);
    Format.printf "@.%a@.@." Bounds.pp
      (Bounds.check ~n:r.Embedder.n ~d ~bandwidth:r.Embedder.bandwidth metrics);
    (match json with
    | None -> ()
    | Some file ->
        let meta =
          [
            ("n", r.Embedder.n);
            ("m", r.Embedder.m);
            ("diameter", d);
            ("bandwidth", r.Embedder.bandwidth);
            ("rounds", r.Embedder.rounds);
            ("recursion_depth", r.Embedder.recursion_depth);
            ("recursion_calls", r.Embedder.recursion_calls);
          ]
        in
        let oc =
          try open_out file
          with Sys_error msg ->
            Printf.eprintf "trace: cannot write JSON journal: %s\n" msg;
            exit 2
        in
        Trace.write_json ~name:family ~meta ~metrics oc tr;
        close_out oc;
        Printf.printf "JSON journal     : written to %s\n" file);
    match o.Embedder.rotation with
    | None ->
        Printf.printf "verdict          : NOT PLANAR\n";
        exit 1
    | Some rot ->
        Printf.printf "verdict          : planar (independent Euler check: %s)\n"
          (if Rotation.is_planar_embedding rot then "passed" else "FAILED")
  in
  let term =
    Term.(
      const run $ family_t $ n_t $ rows_t $ cols_t $ seglen_t $ seed_t $ m_t
      $ chord_t $ mode_t $ json_t $ keep_messages_t)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the embedder with structured tracing: per-phase profile, \
          congestion hot spots, bound checks, optional JSON journal.")
    term

let chaos_cmd =
  let drop_t =
    Arg.(value & opt float 0.0 & info [ "drop" ] ~doc:"Per-message drop probability.")
  in
  let dup_t =
    Arg.(value & opt float 0.0 & info [ "dup-prob" ] ~doc:"Per-message duplication probability.")
  in
  let reorder_t =
    Arg.(value & opt float 0.0 & info [ "reorder-prob" ] ~doc:"Per-copy reordering probability.")
  in
  let delay_t =
    Arg.(value & opt float 0.0 & info [ "delay-prob" ] ~doc:"Per-copy late-delivery probability.")
  in
  let max_delay_t =
    Arg.(value & opt int 3 & info [ "max-delay" ] ~doc:"Maximum extra delivery delay in rounds.")
  in
  let adversarial_t =
    Arg.(value & flag & info [ "adversarial" ] ~doc:"Permute every delivered inbox (seeded).")
  in
  let crash_t =
    Arg.(
      value
      & opt_all string []
      & info [ "crash" ] ~docv:"NODE@AT[:RESTART]"
          ~doc:
            "Crash $(i,NODE) at round $(i,AT); with $(i,:RESTART), bring it \
             back at that round. Repeatable.")
  in
  let grace_t =
    Arg.(
      value & opt int 8
      & info [ "grace" ]
          ~doc:"Quiet rounds required before the clocked loop declares quiescence.")
  in
  let runs_t =
    Arg.(
      value & opt int 1
      & info [ "runs" ] ~doc:"Sweep this many consecutive seeds (seed, seed+1, ...).")
  in
  let jobs_t =
    Arg.(
      value & opt positive_int 1
      & info [ "jobs" ]
          ~doc:
            "Run the seed sweep on this many domains (Pool.map): results and \
             output are identical to the serial sweep, only wall time \
             changes.")
  in
  let domains_t =
    Arg.(
      value & opt positive_int 1
      & info [ "domains" ]
          ~doc:
            "Run each faulty simulation on this many domains (the sharded \
             clocked engine); composes with --jobs. Results and output are \
             identical at every domain count, only wall time changes.")
  in
  let parse_crash s =
    let fail () =
      Printf.eprintf "chaos: cannot parse --crash %S (want NODE@AT[:RESTART])\n" s;
      exit 2
    in
    match String.split_on_char '@' s with
    | [ node; rest ] -> (
        let node = try int_of_string node with Failure _ -> fail () in
        match String.split_on_char ':' rest with
        | [ at ] -> (
            try { Fault.node; at = int_of_string at; restart = None }
            with Failure _ -> fail ())
        | [ at; restart ] -> (
            try
              {
                Fault.node;
                at = int_of_string at;
                restart = Some (int_of_string restart);
              }
            with Failure _ -> fail ())
        | _ -> fail ())
    | _ -> fail ()
  in
  let run family n rows cols seglen seed m chord mode drop dup reorder delay
      max_delay adversarial crash_specs grace runs jobs domains =
    (* The quickstart says `--family grid --n 1024`: for the grid families,
       an explicit --n with the rows/cols left at their defaults means a
       square sqrt(n) x sqrt(n) grid. *)
    let rows, cols =
      if
        (family = "grid" || family = "trigrid" || family = "toroidal")
        && rows = 8 && cols = 8 && n <> 100
      then
        let side = max 2 (int_of_float (sqrt (float_of_int n) +. 0.5)) in
        (side, side)
      else (rows, cols)
    in
    let g = make_graph family n rows cols seglen seed m chord in
    graph_summary g;
    let crashes = List.map parse_crash crash_specs in
    let spec =
      {
        Fault.drop;
        duplicate = dup;
        reorder;
        delay;
        max_delay;
        adversarial;
        crashes;
        grace;
      }
    in
    let plan =
      try Fault.make ~spec ~seed ()
      with Invalid_argument msg ->
        Printf.eprintf "chaos: invalid fault spec: %s\n" msg;
        exit 2
    in
    Printf.printf
      "fault spec       : drop=%.3f dup=%.3f reorder=%.3f delay=%.3f (max %d \
       rounds) adversarial=%s crashes=%d grace=%d\n"
      drop dup reorder delay max_delay
      (if adversarial then "yes" else "no")
      (List.length crashes) grace;
    ignore plan;
    let clean = Embedder.run ~mode g in
    let clean_rounds = clean.Embedder.report.Embedder.rounds in
    Printf.printf "clean baseline   : %d rounds\n" clean_rounds;
    (* Each seed's run builds its own plan, runs, and returns a record;
       with --jobs the sweep fans out over the domain pool and the
       records come back in seed order, so the printed report is
       byte-identical to the serial one. *)
    let one i =
      let seed = seed + i in
      let plan = Fault.make ~spec ~seed () in
      let ok, verdict, rounds =
        match
          Embedder.run
            ~config:(Network.Config.make ~faults:plan ~domains ())
            ~mode g
        with
        | o -> (
            let r = o.Embedder.report.Embedder.rounds in
            match o.Embedder.rotation with
            | None -> (false, "NOT PLANAR", r)
            | Some rot ->
                if Rotation.is_planar_embedding rot then
                  (true, "planar, Euler ok", r)
                else (false, "EULER CHECK FAILED", r))
        | exception Network.No_quiescence { round; active; _ } ->
            ( false,
              Printf.sprintf "NO QUIESCENCE (%d nodes still active)" active,
              round )
      in
      (seed, ok, verdict, rounds, Fault.stats plan)
    in
    let rows =
      try Pool.map ~jobs runs one
      with Pool.Task_failed { exn; _ } -> raise exn
    in
    let failures = ref 0 in
    Array.iter
      (fun (seed, ok, verdict, rounds, s) ->
        if not ok then incr failures;
        Printf.printf
          "run seed=%-6d : rounds=%-6d (%+.1f%%)  drops=%d dups=%d reorders=%d \
           delays=%d crash-lost=%d crashes=%d restarts=%d  verdict=%s\n"
          seed rounds
          (100.0
          *. (float_of_int rounds -. float_of_int clean_rounds)
          /. float_of_int (max 1 clean_rounds))
          s.Fault.dropped s.Fault.duplicated s.Fault.reordered s.Fault.delayed
          s.Fault.crash_lost s.Fault.crashes s.Fault.restarts verdict)
      rows;
    Printf.printf "chaos verdict    : %d/%d runs embedded correctly\n"
      (runs - !failures) runs;
    if !failures > 0 then exit 1
  in
  let term =
    Term.(
      const run $ family_t $ n_t $ rows_t $ cols_t $ seglen_t $ seed_t $ m_t
      $ chord_t $ mode_t $ drop_t $ dup_t $ reorder_t $ delay_t $ max_delay_t
      $ adversarial_t $ crash_t $ grace_t $ runs_t $ jobs_t $ domains_t)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the embedder under a deterministic fault plan (drops, \
          duplicates, reordering, delays, crashes, adversarial delivery) \
          with the protocols Reliable-wrapped, and report per-run fault \
          counts and embedding verdicts.")
    term

let certify_cmd =
  let corrupt_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "corrupt" ] ~docv:"K@SEED"
          ~doc:
            "Flip one random certificate bit at each of $(i,K) distinct \
             nodes (chosen by $(i,SEED)) and assert the verifier rejects.")
  in
  let via_t =
    Arg.(
      value
      & opt (enum [ ("kernel", `Kernel); ("embedder", `Embedder) ]) `Kernel
      & info [ "via" ]
          ~doc:
            "Where the rotation comes from: the centralized planarity \
             $(b,kernel) or the full distributed $(b,embedder).")
  in
  let domains_t =
    Arg.(
      value & opt positive_int 1
      & info [ "domains" ] ~doc:"Run the verification round on this many domains.")
  in
  let parse_corrupt s =
    match String.split_on_char '@' s with
    | [ k; seed ] -> (
        match (int_of_string_opt k, int_of_string_opt seed) with
        | (Some k, Some seed) when k >= 0 -> (k, seed)
        | _ ->
            Printf.eprintf "certify: cannot parse --corrupt %S (want K@SEED)\n" s;
            exit 2)
    | _ ->
        Printf.eprintf "certify: cannot parse --corrupt %S (want K@SEED)\n" s;
        exit 2
  in
  let run family n rows cols seglen seed m chord via corrupt domains =
    let g = make_graph family n rows cols seglen seed m chord in
    graph_summary g;
    let rotation =
      match via with
      | `Kernel -> (
          Printf.printf "rotation from    : lr kernel\n";
          match Planarity.embed g with
          | Planarity.Planar r -> r
          | Planarity.Nonplanar ->
              Printf.printf "verdict          : not planar — nothing to certify\n";
              exit 1)
      | `Embedder -> (
          Printf.printf "rotation from    : distributed embedder\n";
          match (Embedder.run g).Embedder.rotation with
          | Some r -> r
          | None ->
              Printf.printf "verdict          : not planar — nothing to certify\n";
              exit 1)
    in
    let certs = Certify.prove rotation in
    let corrupted = Option.map parse_corrupt corrupt in
    let certs =
      match corrupted with
      | None -> certs
      | Some (k, cseed) ->
          Printf.printf "corruption       : 1 bit at each of %d nodes (seed %d)\n"
            k cseed;
          Certify.corrupt ~seed:cseed ~k certs
    in
    let m = Metrics.create g in
    let o =
      Certify.verify
        ~config:
          (Network.Config.make ~domains
             ~observe:(Observe.make ~metrics:m ()) ())
        rotation certs
    in
    let sz = o.Certify.size in
    Printf.printf "certificates     : mean %.1f bits/node (%.1f words), max \
                   %d bits, word %d bits\n"
      sz.Certify.mean_bits
      (sz.Certify.mean_bits /. float_of_int sz.Certify.word)
      sz.Certify.max_bits sz.Certify.word;
    Printf.printf "verification     : %d round(s), %d messages, %d bits on \
                   the wire\n"
      o.Certify.rounds (Metrics.messages m) (Metrics.total_bits m);
    (match o.Certify.report.Network.verdict with
    | Some v ->
        Printf.printf "one-round bound  : %s (rounds %d <= %d, max message \
                       %d <= %d bits)\n"
          (if v.Bounds.rounds_ok && v.Bounds.message_ok then "ok" else "VIOLATED")
          v.Bounds.rounds v.Bounds.round_bound v.Bounds.max_message_bits
          v.Bounds.message_bound
    | None -> ());
    let rejecting =
      Array.to_seq o.Certify.reasons
      |> Seq.mapi (fun v r -> (v, r))
      |> Seq.filter (fun (_, r) -> r <> 0)
      |> List.of_seq
    in
    (match rejecting with
    | [] -> ()
    | (v, r) :: _ ->
        Printf.printf "first rejection  : node %d (%s); %d node(s) reject\n" v
          (Certify.reason_name r) (List.length rejecting));
    match corrupted with
    | None ->
        Printf.printf "verdict          : %s\n"
          (if o.Certify.all_accept then "all nodes accept" else "REJECTED");
        if not o.Certify.all_accept then exit 1
    | Some _ ->
        Printf.printf "verdict          : %s\n"
          (if o.Certify.all_accept then "CORRUPTION NOT DETECTED"
           else "corruption detected, as demanded");
        if o.Certify.all_accept then exit 1
  in
  let term =
    Term.(
      const run $ family_t $ n_t $ rows_t $ cols_t $ seglen_t $ seed_t $ m_t
      $ chord_t $ via_t $ corrupt_t $ domains_t)
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Assign every node an O(log n)-bit planarity certificate (the \
          proof-labeling prover) and re-verify the embedding in one CONGEST \
          round; with --corrupt, flip certificate bits and assert the \
          network rejects.")
    term

let route_cmd =
  let src_t =
    Arg.(value & opt int 0 & info [ "src" ] ~doc:"Source vertex of a single query.")
  in
  let dst_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "dst" ] ~doc:"Destination vertex of a single query.")
  in
  let batch_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "batch" ] ~docv:"FILE"
          ~doc:"Read queries from $(docv): one `src dst' pair per line.")
  in
  let random_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "random" ] ~docv:"K@SEED"
          ~doc:"Route $(i,K) random vertex pairs drawn with $(i,SEED).")
  in
  let jobs_t =
    Arg.(
      value & opt positive_int 1
      & info [ "jobs" ] ~doc:"Answer batched queries on this many domains.")
  in
  let path_t =
    Arg.(value & flag & info [ "path" ] ~doc:"Print the full route of each query.")
  in
  let parse_random s =
    match String.split_on_char '@' s with
    | [ k; seed ] -> (
        match (int_of_string_opt k, int_of_string_opt seed) with
        | (Some k, Some seed) when k > 0 -> (k, seed)
        | _ ->
            Printf.eprintf "route: cannot parse --random %S (want K@SEED)\n" s;
            exit 2)
    | _ ->
        Printf.eprintf "route: cannot parse --random %S (want K@SEED)\n" s;
        exit 2
  in
  let parse_batch n file =
    let ic =
      try open_in file
      with Sys_error msg ->
        Printf.eprintf "route: cannot read batch file: %s\n" msg;
        exit 2
    in
    let pairs = ref [] and line_no = ref 0 in
    (try
       while true do
         let line = input_line ic in
         incr line_no;
         match
           String.split_on_char ' ' (String.trim line)
           |> List.filter (fun s -> s <> "")
         with
         | [] -> ()
         | [ a; b ] -> (
             match (int_of_string_opt a, int_of_string_opt b) with
             | (Some s, Some d) when s >= 0 && s < n && d >= 0 && d < n ->
                 pairs := (s, d) :: !pairs
             | _ ->
                 Printf.eprintf "route: %s:%d: bad query %S\n" file !line_no line;
                 exit 2)
         | _ ->
             Printf.eprintf "route: %s:%d: bad query %S\n" file !line_no line;
             exit 2
       done
     with End_of_file -> close_in ic);
    Array.of_list (List.rev !pairs)
  in
  let run family n rows cols seglen seed m chord src dst batch random jobs
      show_path =
    let g = make_graph family n rows cols seglen seed m chord in
    graph_summary g;
    let rot =
      match Planarity.embed g with
      | Planarity.Planar r -> r
      | Planarity.Nonplanar ->
          Printf.printf "verdict          : not planar — cannot draw\n";
          exit 1
    in
    let t0 = Unix.gettimeofday () in
    let sch = Schnyder.draw rot in
    let engine = Route.make sch in
    let build = Unix.gettimeofday () -. t0 in
    Printf.printf "drawing          : %dx%d grid, %d virtual edges, built in \
                   %.3f s\n"
      (Schnyder.grid_side sch) (Schnyder.grid_side sch)
      (Triangulate.virtual_count (Schnyder.triangulation sch))
      build;
    let nv = Gr.n g in
    let pairs =
      match (batch, random) with
      | Some file, _ -> parse_batch nv file
      | None, Some spec ->
          let k, rseed = parse_random spec in
          let rng = Random.State.make [| rseed; nv |] in
          Array.init k (fun _ ->
              (Random.State.int rng nv, Random.State.int rng nv))
      | None, None -> (
          match dst with
          | Some d when src >= 0 && src < nv && d >= 0 && d < nv ->
              [| (src, d) |]
          | Some _ ->
              Printf.eprintf "route: --src/--dst out of range (n=%d)\n" nv;
              exit 2
          | None ->
              Printf.eprintf
                "route: give --dst (with --src), --batch or --random\n";
              exit 2)
    in
    let pool = if jobs > 1 then Some (Pool.create ~domains:jobs ()) else None in
    let t1 = Unix.gettimeofday () in
    let outs = Route.route_batch ?pool engine pairs in
    let elapsed = Unix.gettimeofday () -. t1 in
    Option.iter Pool.shutdown pool;
    let delivered = ref 0 and unreachable = ref 0 and stuck = ref 0 in
    let hops_total = ref 0 and recov_total = ref 0 in
    Array.iteri
      (fun i o ->
        let s, d = pairs.(i) in
        match o with
        | Route.Delivered { path; hops; greedy_hops; face_hops; recoveries } ->
            incr delivered;
            hops_total := !hops_total + hops;
            recov_total := !recov_total + recoveries;
            if show_path || Array.length pairs = 1 then begin
              Printf.printf "%d -> %d: %d hops (%d greedy, %d face, %d \
                             recoveries)\n"
                s d hops greedy_hops face_hops recoveries;
              if show_path then
                Printf.printf "  %s\n"
                  (String.concat " " (List.map string_of_int path))
            end
        | Route.Unreachable ->
            incr unreachable;
            if show_path || Array.length pairs = 1 then
              Printf.printf "%d -> %d: unreachable\n" s d
        | Route.Stuck { at; hops } ->
            incr stuck;
            Printf.printf "%d -> %d: STUCK at %d after %d hops\n" s d at hops)
      outs;
    Printf.printf "queries          : %d total, %d delivered, %d unreachable, \
                   %d stuck\n"
      (Array.length pairs) !delivered !unreachable !stuck;
    if !delivered > 0 then
      Printf.printf "delivered        : %.1f hops/query mean, %d recoveries, \
                     %.0f queries/s (%d job%s)\n"
        (float_of_int !hops_total /. float_of_int !delivered)
        !recov_total
        (float_of_int (Array.length pairs) /. max 1e-9 elapsed)
        jobs
        (if jobs = 1 then "" else "s");
    if !stuck > 0 then exit 1
  in
  let term =
    Term.(
      const run $ family_t $ n_t $ rows_t $ cols_t $ seglen_t $ seed_t $ m_t
      $ chord_t $ src_t $ dst_t $ batch_t $ random_t $ jobs_t $ path_t)
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Draw the graph on the integer grid (Schnyder coordinates) and \
          answer point-to-point queries with greedy-face-greedy geographic \
          routing over real edges only.")
    term

let churn_cmd =
  let updates_t =
    Arg.(
      value & opt int 1000
      & info [ "updates" ] ~doc:"Number of churn updates to replay.")
  in
  let insert_pct_t =
    Arg.(
      value & opt int 60
      & info [ "insert-pct" ]
          ~doc:"Percentage of updates that are insertions (0-100).")
  in
  let fresh_t =
    Arg.(
      value & opt float 0.0
      & info [ "fresh-prob" ]
          ~doc:
            "Probability that an insert proposes a random non-pool pair \
             (exercises the non-planarity rejection path).")
  in
  let hold_t =
    Arg.(
      value & opt float 0.3
      & info [ "hold" ]
          ~doc:"Fraction of the pool edges held out of the initial graph.")
  in
  let trace_seed_t =
    Arg.(
      value & opt int 7
      & info [ "trace-seed" ] ~doc:"Seed of the churn trace generator.")
  in
  let verify_t =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Re-check the final embedding: Euler genus plus, when the \
             graph is connected, a full certificate round-trip.")
  in
  let run family n rows cols seglen seed m chord updates insert_pct fresh hold
      tseed verify =
    let g = make_graph family n rows cols seglen seed m chord in
    graph_summary g;
    let tr =
      try
        Churn.make ~seed:tseed ~updates ~insert_pct ~fresh_prob:fresh ~hold g
      with Invalid_argument msg ->
        Printf.eprintf "churn: %s\n" msg;
        exit 2
    in
    let g0 = Churn.initial_graph tr in
    let inc =
      try Incremental.create g0
      with Invalid_argument msg ->
        Printf.eprintf "churn: %s\n" msg;
        exit 2
    in
    let t0 = Unix.gettimeofday () in
    Churn.replay inc tr;
    let wall = Unix.gettimeofday () -. t0 in
    Printf.printf "trace            : %d updates (%d%% inserts, fresh %.2f, \
                   hold %.2f, seed %d)\n"
      updates insert_pct fresh hold tseed;
    Printf.printf "initial edges    : %d of %d pool edges\n"
      (List.length tr.Churn.initial)
      (Gr.m g);
    Printf.printf "replay           : %.3fs (%.0f updates/s)\n" wall
      (float_of_int updates /. max 1e-9 wall);
    Format.printf "%a@." Incremental.pp_stats (Incremental.stats inc);
    Printf.printf "final edges      : %d\n" (Incremental.m inc);
    if verify then begin
      let euler_ok = Incremental.validate inc in
      Printf.printf "euler check      : %s\n"
        (if euler_ok then "passed" else "FAILED");
      let r = Incremental.rotation inc in
      let cert_line =
        if Incremental.m inc = 0 then "skipped (no edges)"
        else if not (Traverse.is_connected (Rotation.graph r)) then
          "skipped (graph is disconnected)"
        else if (Certify.verify r (Certify.prove r)).Certify.all_accept then
          "accepted"
        else "REJECTED"
      in
      Printf.printf "certificate      : %s\n" cert_line;
      if (not euler_ok) || cert_line = "REJECTED" then exit 1
    end
  in
  let term =
    Term.(
      const run $ family_t $ n_t $ rows_t $ cols_t $ seglen_t $ seed_t $ m_t
      $ chord_t $ updates_t $ insert_pct_t $ fresh_t $ hold_t $ trace_seed_t
      $ verify_t)
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Maintain the embedding incrementally under a seeded \
          insert/delete trace (face-splice fast path, scoped kernel \
          re-runs) and report the update-path breakdown.")
    term

let families_cmd =
  let run () = print_endline family_doc in
  Cmd.v (Cmd.info "families" ~doc:"List graph families.") Term.(const run $ const ())

let () =
  let doc =
    "Distributed planar embedding in the CONGEST model (reproduction of \
     Ghaffari & Haeupler, PODC 2016)."
  in
  let info = Cmd.info "distplanar" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [ embed_cmd; baseline_cmd; check_cmd; witness_cmd; separator_cmd;
        trace_cmd; chaos_cmd; certify_cmd; route_cmd; churn_cmd; families_cmd ]
  in
  (* A library's [Invalid_argument] is a typed rejection of the input
     (an empty graph, a zero grid dimension), not a crash: one line on
     stderr and exit 2, like every other bad-input path here. *)
  exit
    (try Cmd.eval ~catch:false cmd with
    | Invalid_argument msg ->
        Printf.eprintf "distplanar: %s\n" msg;
        2
    | e ->
        Printf.eprintf "distplanar: internal error, uncaught exception:\n%s\n"
          (Printexc.to_string e);
        Cmd.Exit.internal_error)
