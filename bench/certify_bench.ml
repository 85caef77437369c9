(* Certification-tier benchmark: certificate bits versus n and
   prover / verifier wall time across the generator families.

   Every case is verified before it is timed: the honest certificates
   must be accepted by every node in at most one round, a handful of
   seeded one-bit corruptions must all be rejected, and the mean
   certificate must stay within 32 words (32·⌈log₂ n⌉ bits — the
   O(log n) claim with its constant pinned). A case that fails any of
   these poisons the run (nonzero exit).

     dune exec bench/certify_bench.exe              # full sweep, up to n=30000
     dune exec bench/certify_bench.exe -- --quick   # CI smoke: small tier,
                                              # exit 1 on any gate
     dune exec bench/certify_bench.exe -- --out F   # write the JSON to F

   Results go to BENCH_certify.json and stdout, with the host's core
   count and OCaml version. *)

type case = {
  name : string;
  n : int;
  m : int;
  word : int;
  total_bits : int;
  mean_bits : float;
  max_bits : int;
  prove_wall : float;
  verify_wall : float;
  rounds : int;
  accept : bool;
  bounds_ok : bool;
  mutants_tried : int;
  mutants_rejected : int;
}

let mutant_seeds = [ 1; 2; 3; 4; 5 ]

let run_case ~reps name g =
  let n = Gr.n g and m = Gr.m g in
  let r =
    match Planarity.embed g with
    | Planarity.Planar r -> r
    | Planarity.Nonplanar ->
        Printf.eprintf "certify bench: %s is not planar\n" name;
        exit 2
  in
  (* Verification pass before any timing. *)
  let certs = Certify.prove r in
  let o = Certify.verify r certs in
  let sz = o.Certify.size in
  let bounds_ok =
    match o.Certify.report.Network.verdict with
    | Some v -> v.Bounds.rounds_ok && v.Bounds.message_ok && v.Bounds.burst_ok
    | None -> false
  in
  let rejected =
    List.fold_left
      (fun acc seed ->
        let bad = Certify.corrupt ~seed ~k:1 certs in
        if (Certify.verify r bad).Certify.all_accept then acc else acc + 1)
      0 mutant_seeds
  in
  let prove_wall, _ = Harness.best_of ~reps (fun () -> Certify.prove r) in
  let verify_wall, _ =
    Harness.best_of ~reps (fun () -> Certify.verify r certs)
  in
  let c =
    {
      name;
      n;
      m;
      word = sz.Certify.word;
      total_bits = sz.Certify.total_bits;
      mean_bits = sz.Certify.mean_bits;
      max_bits = sz.Certify.max_bits;
      prove_wall;
      verify_wall;
      rounds = o.Certify.rounds;
      accept = o.Certify.all_accept;
      bounds_ok;
      mutants_tried = List.length mutant_seeds;
      mutants_rejected = rejected;
    }
  in
  Printf.printf
    "%-18s n=%-6d m=%-6d word=%-2d mean=%7.1fb (%4.1fw) max=%6db  prove \
     %8.4fs  verify %8.4fs  rounds=%d  %s\n\
     %!"
    c.name c.n c.m c.word c.mean_bits
    (c.mean_bits /. float_of_int c.word)
    c.max_bits c.prove_wall c.verify_wall c.rounds
    (if c.accept && c.bounds_ok && c.mutants_rejected = c.mutants_tried then
       "ok"
     else "FAIL");
  c

(* JSON and driver ------------------------------------------------------ *)

let json_of_case (c : case) =
  Harness.(
    Obj
      [
        ("name", Str c.name); ("n", Int c.n); ("m", Int c.m);
        ("word_bits", Int c.word); ("total_bits", Int c.total_bits);
        ("mean_bits", Num (1, c.mean_bits));
        ("mean_words", Num (2, c.mean_bits /. float_of_int c.word));
        ("max_bits", Int c.max_bits); ("prove_wall_s", secs c.prove_wall);
        ("verify_wall_s", secs c.verify_wall); ("rounds", Int c.rounds);
        ("accept", Bool c.accept); ("bounds_ok", Bool c.bounds_ok);
        ( "mutants_rejected",
          Str (Printf.sprintf "%d/%d" c.mutants_rejected c.mutants_tried) );
      ])

let () =
  let cli = Harness.args "certify" ~out:"BENCH_certify.json" in
  let reps = if cli.quick then 2 else 3 in
  Printf.printf "certification tier: prover and one-round verifier%s\n\n"
    (if cli.quick then " [--quick]" else "");
  let results =
    List.map
      (fun (name, g) -> run_case ~reps name g)
      (Harness.planar_families cli.quick)
  in
  (* Gates: any clean family rejecting, any surviving mutant, more than
     one verification round, a failed Bounds verdict, or a mean
     certificate above 32 words poisons the run. *)
  let failures =
    List.filter_map
      (fun c ->
        if
          (not c.accept) || (not c.bounds_ok) || c.rounds > 1
          || c.mutants_rejected < c.mutants_tried
          || c.mean_bits > 32. *. float_of_int c.word
        then
          Some
            (Printf.sprintf
               "gate failed on %s (accept=%b bounds=%b rounds=%d \
                mutants=%d/%d mean=%.1fb word=%d)"
               c.name c.accept c.bounds_ok c.rounds c.mutants_rejected
               c.mutants_tried c.mean_bits c.word)
        else None)
      results
  in
  Harness.(
    finish cli
      (document "certify-prove-verify"
         [
           ("unit", Obj [ ("wall", Str "seconds"); ("size", Str "bits") ]);
           ("cases", List (List.map json_of_case results));
         ])
      failures)
