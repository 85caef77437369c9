(* The certification tier's adversarial suite (ISSUE 6).

   Completeness: honest certificates over every generator family are
   accepted by every node, in exactly one round, at every shard count.

   Soundness is attacked mechanically: a seeded mutation harness with
   eight operators — rotation-level (dart swaps) and certificate-level
   (re-rooted tree edges, off-by-one depths, spliced counts, merged and
   split face orbits, root lies, raw bit flips) — where every generated
   mutant must be rejected by at least one node. The harness prints a
   kill matrix (operator x family) and fails if any mutant survives.

   The fault bridge re-runs the verifier through Reliable over a lossy
   plan and pins the verdict (in fact the full per-node reason array)
   bit-identical to the clean run: the min-merge of violation codes is
   delivery-order independent by construction. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let embed_exn g =
  match Planarity.embed g with
  | Planarity.Planar r -> r
  | Planarity.Nonplanar -> Alcotest.fail "family is planar but embed refused"

(* ------------------------------------------------------------------ *)
(* Families under test                                                 *)
(* ------------------------------------------------------------------ *)

let families =
  [
    ("path", Gen.path 9);
    ("cycle", Gen.cycle 12);
    ("star", Gen.star 8);
    ("wheel", Gen.wheel 11);
    ("ladder", Gen.ladder 7);
    ("fan", Gen.fan 9);
    ("grid", Gen.grid 6 7);
    ("bintree", Gen.binary_tree 15);
    ("k4subdiv", Gen.k4_subdivision 3);
    ("maxplanar", Gen.random_maximal_planar ~seed:11 60);
    ("outerplanar", Gen.random_outerplanar ~seed:7 ~n:40 ~chord_prob:0.3);
    ("randtree", Gen.random_tree ~seed:5 40);
  ]

(* ------------------------------------------------------------------ *)
(* Completeness                                                        *)
(* ------------------------------------------------------------------ *)

let test_clean_families_accept () =
  List.iter
    (fun (name, g) ->
      let r = embed_exn g in
      let certs = Certify.prove r in
      List.iter
        (fun domains ->
          let o =
            Certify.verify ~config:(Network.Config.make ~domains ()) r certs
          in
          check_bool
            (Printf.sprintf "%s accepts (domains=%d)" name domains)
            true o.Certify.all_accept;
          check
            (Printf.sprintf "%s rounds (domains=%d)" name domains)
            1 o.Certify.rounds;
          Array.iteri
            (fun v rsn ->
              check (Printf.sprintf "%s reason at %d" name v) 0 rsn)
            o.Certify.reasons;
          match o.Certify.report.Network.verdict with
          | None -> Alcotest.fail (name ^ ": no bounds verdict on clean run")
          | Some v ->
              check_bool (name ^ " one-round bound") true v.Bounds.rounds_ok;
              check_bool (name ^ " message bound") true v.Bounds.message_ok;
              check_bool (name ^ " burst bound") true v.Bounds.burst_ok)
        [ 1; 4 ])
    families

let test_single_and_pair () =
  (* n = 1: nothing on the wire, zero rounds, still accepted (the
     dartless embedding has one face). n = 2: one exchange, one round. *)
  let r1 = embed_exn (Gen.path 1) in
  let o1 = Certify.verify r1 (Certify.prove r1) in
  check_bool "n=1 accepts" true o1.Certify.all_accept;
  check "n=1 rounds" 0 o1.Certify.rounds;
  let r2 = embed_exn (Gen.path 2) in
  let o2 = Certify.verify r2 (Certify.prove r2) in
  check_bool "n=2 accepts" true o2.Certify.all_accept;
  check "n=2 rounds" 1 o2.Certify.rounds

let test_prove_rejects_bad_graphs () =
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Certify.prove: disconnected graph") (fun () ->
      let g = Gr.of_edges ~n:4 [ (0, 1); (2, 3) ] in
      ignore (Certify.prove (Rotation.of_sorted_adjacency g)))

let test_determinism () =
  let g = Gen.random_maximal_planar ~seed:3 80 in
  let r = embed_exn g in
  let certs = Certify.prove r in
  let o1 = Certify.verify r certs and o2 = Certify.verify r certs in
  check_bool "accept arrays" true (o1.Certify.accept = o2.Certify.accept);
  check_bool "reasons" true (o1.Certify.reasons = o2.Certify.reasons);
  check "rounds" o1.Certify.rounds o2.Certify.rounds;
  let certs' = Certify.prove r in
  check_bool "prover deterministic" true
    (certs.Certify.parent = certs'.Certify.parent
    && certs.Certify.dist = certs'.Certify.dist
    && certs.Certify.nf = certs'.Certify.nf)

let test_observability () =
  let g = Gen.grid 5 6 in
  let r = embed_exn g in
  let certs = Certify.prove r in
  let m = Metrics.create g in
  let tr = Trace.create () in
  let o =
    Certify.verify
      ~config:
        (Network.Config.make ~observe:(Observe.make ~metrics:m ~trace:tr ()) ())
      r certs
  in
  check_bool "accepts" true o.Certify.all_accept;
  check_bool "bits on the wire counted" true (Metrics.total_bits m > 0);
  let has_span =
    List.exists
      (function
        | Trace.Span_open { name = "certify.verify"; _ } -> true
        | _ -> false)
      (Trace.events tr)
  in
  check_bool "certify.verify span" true has_span

(* ------------------------------------------------------------------ *)
(* The mutation harness                                                *)
(* ------------------------------------------------------------------ *)

type mutation =
  | Swap_darts  (** swap two entries in one vertex's rotation, re-prove *)
  | Reroot_edge  (** re-point a node's parent at another neighbor *)
  | Depth_off_by_one
  | Count_splice  (** inflate one subtree-vertex count *)
  | Face_merge  (** relabel one orbit with another's leader, fix counts *)
  | Face_split  (** cut one orbit into two leaders, fix counts *)
  | Root_lie  (** one node claims a different root id *)
  | Bit_flip  (** Certify.corrupt, one random bit at one node *)

let mutation_name = function
  | Swap_darts -> "swap-darts"
  | Reroot_edge -> "reroot-edge"
  | Depth_off_by_one -> "depth-off-by-one"
  | Count_splice -> "count-splice"
  | Face_merge -> "face-merge"
  | Face_split -> "face-split"
  | Root_lie -> "root-lie"
  | Bit_flip -> "bit-flip"

let all_mutations =
  [
    Swap_darts;
    Reroot_edge;
    Depth_off_by_one;
    Count_splice;
    Face_merge;
    Face_split;
    Root_lie;
    Bit_flip;
  ]

let copy_certs (c : Certify.t) =
  {
    c with
    Certify.root = Array.copy c.Certify.root;
    parent = Array.copy c.Certify.parent;
    depth = Array.copy c.Certify.depth;
    nv = Array.copy c.Certify.nv;
    ne = Array.copy c.Certify.ne;
    nf = Array.copy c.Certify.nf;
    leader_u = Array.copy c.Certify.leader_u;
    leader_v = Array.copy c.Certify.leader_v;
    dist = Array.copy c.Certify.dist;
  }

(* Walk the (honest) parent chain adjusting the face counts, so a face
   mutant's subtree sums and Euler check still balance — rejection must
   then come from the face machinery itself, not the bookkeeping. *)
let bump_nf (c : Certify.t) x delta =
  let v = ref x in
  let continue_ = ref true in
  while !continue_ do
    c.Certify.nf.(!v) <- c.Certify.nf.(!v) + delta;
    if c.Certify.parent.(!v) = !v then continue_ := false
    else v := c.Certify.parent.(!v)
  done

let dart_of r (u, v) = Gr.dart (Rotation.graph r) ~src:u ~dst:v

(* What the harness produced: certificates to run against the (possibly
   mutated) rotation, plus the expected verdict. [`Reject] mutants must
   be killed; [`Oracle planar] mutants (rotation-level) must match the
   centralized genus oracle. *)
type mutant = {
  m_rot : Rotation.t;
  m_certs : Certify.t;
  expected : [ `Reject | `Oracle of bool ];
}

let mutate ~seed r (certs : Certify.t) kind : mutant option =
  let g = Rotation.graph r in
  let n = Gr.n g in
  if n < 2 then None
  else
    let rng = Random.State.make [| 0xbadf00d; seed |] in
    let pick_node pred =
      let cands = List.filter pred (List.init n (fun i -> i)) in
      match cands with
      | [] -> None
      | _ ->
          Some (List.nth cands (Random.State.int rng (List.length cands)))
    in
    let root = certs.Certify.root.(0) in
    match kind with
    | Swap_darts -> (
        match pick_node (fun v -> Gr.degree g v >= 3) with
        | None -> None
        | Some v ->
            let rot = Array.init n (fun u -> Array.copy (Rotation.rotation r u)) in
            let deg = Array.length rot.(v) in
            let i = Random.State.int rng deg in
            let j = (i + 1 + Random.State.int rng (deg - 1)) mod deg in
            let tmp = rot.(v).(i) in
            rot.(v).(i) <- rot.(v).(j);
            rot.(v).(j) <- tmp;
            let r' = Rotation.make g rot in
            Some
              {
                m_rot = r';
                m_certs = Certify.prove r';
                expected = `Oracle (Rotation.is_planar_embedding r');
              })
    | Reroot_edge -> (
        match
          pick_node (fun v -> v <> root && Gr.degree g v >= 2)
        with
        | None -> None
        | Some v ->
            let c = copy_certs certs in
            let p = c.Certify.parent.(v) in
            let others =
              Gr.fold_neighbors g v ~init:[] ~f:(fun acc u ->
                  if u <> p then u :: acc else acc)
            in
            let u = List.nth others (Random.State.int rng (List.length others)) in
            c.Certify.parent.(v) <- u;
            Some { m_rot = r; m_certs = c; expected = `Reject })
    | Depth_off_by_one -> (
        match pick_node (fun v -> v <> root) with
        | None -> None
        | Some v ->
            let c = copy_certs certs in
            c.Certify.depth.(v) <- c.Certify.depth.(v) + 1;
            Some { m_rot = r; m_certs = c; expected = `Reject })
    | Count_splice -> (
        match pick_node (fun _ -> true) with
        | None -> None
        | Some v ->
            let c = copy_certs certs in
            c.Certify.nv.(v) <- c.Certify.nv.(v) + 1;
            Some { m_rot = r; m_certs = c; expected = `Reject })
    | Face_merge -> (
        let faces = Array.of_list (Rotation.faces r) in
        if Array.length faces < 2 then None
        else
          let a = Random.State.int rng (Array.length faces) in
          let b =
            (a + 1 + Random.State.int rng (Array.length faces - 1))
            mod Array.length faces
          in
          let c = copy_certs certs in
          (* Orbit [b] pretends to belong to [a]'s face: rename its
             leaders; its own leader dart keeps dist 0 but no longer
             names itself, and the freed face leaves the books. *)
          let db = dart_of r (List.hd faces.(b)) in
          let (lu, lv) =
            let da = dart_of r (List.hd faces.(a)) in
            (c.Certify.leader_u.(da), c.Certify.leader_v.(da))
          in
          let old_owner = c.Certify.leader_v.(db) in
          List.iter
            (fun dpair ->
              let d = dart_of r dpair in
              c.Certify.leader_u.(d) <- lu;
              c.Certify.leader_v.(d) <- lv)
            faces.(b);
          bump_nf c old_owner (-1);
          Some { m_rot = r; m_certs = c; expected = `Reject })
    | Face_split -> (
        let faces =
          List.filter (fun f -> List.length f >= 2) (Rotation.faces r)
        in
        match faces with
        | [] -> None
        | _ ->
            let orbit =
              Array.of_list
                (List.nth faces (Random.State.int rng (List.length faces)))
            in
            let l = Array.length orbit in
            let c = copy_certs certs in
            let j = Random.State.int rng (l - 1) in
            (* Two arcs, each a run descending to its own new leader:
               dart i <= j points at orbit.(j), the rest at the end. *)
            let old_owner = c.Certify.leader_v.(dart_of r orbit.(0)) in
            let assign lo hi =
              let (lu, lv) = orbit.(hi) in
              for i = lo to hi do
                let d = dart_of r orbit.(i) in
                c.Certify.leader_u.(d) <- lu;
                c.Certify.leader_v.(d) <- lv;
                c.Certify.dist.(d) <- hi - i
              done
            in
            assign 0 j;
            assign (j + 1) (l - 1);
            bump_nf c old_owner (-1);
            bump_nf c (snd orbit.(j)) 1;
            bump_nf c (snd orbit.(l - 1)) 1;
            Some { m_rot = r; m_certs = c; expected = `Reject })
    | Root_lie -> (
        match pick_node (fun _ -> true) with
        | None -> None
        | Some v ->
            let c = copy_certs certs in
            let lie = (c.Certify.root.(v) + 1 + Random.State.int rng (n - 1)) mod n in
            c.Certify.root.(v) <- lie;
            Some { m_rot = r; m_certs = c; expected = `Reject })
    | Bit_flip ->
        Some
          {
            m_rot = r;
            m_certs = Certify.corrupt ~seed ~k:1 certs;
            expected = `Reject;
          }

(* Run the kill matrix: [seeds_per_cell] mutants per (operator, family)
   cell. Swap-darts mutants that stay planar (the oracle says genus 0)
   are completeness checks, not kills; cells where the operator does not
   apply (e.g. face-merge on a tree: one face) read "n/a". *)
let test_mutation_kill_matrix () =
  let seeds_per_cell = 5 in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "%-18s" "operator \\ family");
  List.iter
    (fun (name, _) -> Buffer.add_string buf (Printf.sprintf "%12s" name))
    families;
  Buffer.add_char buf '\n';
  let survivors = ref [] in
  List.iter
    (fun op ->
      Buffer.add_string buf (Printf.sprintf "%-18s" (mutation_name op));
      List.iter
        (fun (fam, g) ->
          let r = embed_exn g in
          let certs = Certify.prove r in
          let generated = ref 0 and killed = ref 0 in
          for seed = 0 to seeds_per_cell - 1 do
            match mutate ~seed r certs op with
            | None -> ()
            | Some { m_rot; m_certs; expected } -> (
                let o = Certify.verify m_rot m_certs in
                match expected with
                | `Reject ->
                    incr generated;
                    if not o.Certify.all_accept then incr killed
                    else
                      survivors :=
                        Printf.sprintf "%s/%s seed=%d" (mutation_name op) fam
                          seed
                        :: !survivors
                | `Oracle planar ->
                    if planar then (
                      (* A planar mutant re-proved honestly must accept:
                         the prover-verifier pair is complete on any
                         genus-0 rotation, not just the embedder's. *)
                      if not o.Certify.all_accept then
                        Alcotest.fail
                          (Printf.sprintf
                             "%s/%s seed=%d: planar mutant rejected"
                             (mutation_name op) fam seed))
                    else begin
                      incr generated;
                      if not o.Certify.all_accept then incr killed
                      else
                        survivors :=
                          Printf.sprintf "%s/%s seed=%d" (mutation_name op)
                            fam seed
                          :: !survivors
                    end)
          done;
          Buffer.add_string buf
            (if !generated = 0 then Printf.sprintf "%12s" "n/a"
             else Printf.sprintf "%12s" (Printf.sprintf "%d/%d" !killed !generated)))
        families;
      Buffer.add_char buf '\n')
    all_mutations;
  print_string (Buffer.contents buf);
  check_bool
    (Printf.sprintf "no surviving mutants (%s)"
       (String.concat ", " !survivors))
    true (!survivors = [])

let test_corrupt_is_rejected () =
  let g = Gen.random_maximal_planar ~seed:9 100 in
  let r = embed_exn g in
  let certs = Certify.prove r in
  List.iter
    (fun k ->
      for seed = 1 to 10 do
        let bad = Certify.corrupt ~seed ~k certs in
        let o = Certify.verify r bad in
        check_bool (Printf.sprintf "k=%d seed=%d rejected" k seed) false
          o.Certify.all_accept
      done)
    [ 1; 2; 5 ];
  (* k = 0 flips nothing: the copy still accepts. *)
  let o = Certify.verify r (Certify.corrupt ~seed:1 ~k:0 certs) in
  check_bool "k=0 accepts" true o.Certify.all_accept;
  Alcotest.check_raises "k too large"
    (Invalid_argument "Certify.corrupt: k out of range") (fun () ->
      ignore (Certify.corrupt ~seed:1 ~k:(Gr.n g + 1) certs))

(* The honest prover run on a genus-1 rotation: Euler fails at the root.
   Then the adversary forges planarity — splits two orbits (with the
   counts patched so subtree sums and Euler balance, f' = f + 2 exactly
   compensating genus 1) — and the face-orbit checks still refuse. *)
let test_torus_cannot_forge_planarity () =
  let g = Gen.toroidal_grid 5 5 in
  let r = Rotation.of_sorted_adjacency g in
  check_bool "torus rotation really is genus > 0" false
    (Rotation.is_planar_embedding r);
  let certs = Certify.prove r in
  let honest = Certify.verify r certs in
  check_bool "honest certs on a torus reject" false honest.Certify.all_accept;
  let rejected_at_root =
    honest.Certify.reasons.(certs.Certify.root.(0)) = 6
  in
  check_bool "honest rejection is the Euler check" true rejected_at_root;
  (* Forge: two face splits patch the books. *)
  let forged = ref certs in
  for seed = 0 to 1 do
    match mutate ~seed r !forged Face_split with
    | Some { m_certs; _ } -> forged := m_certs
    | None -> Alcotest.fail "face-split inapplicable on the torus"
  done;
  let o = Certify.verify r !forged in
  check_bool "forged counts still reject" false o.Certify.all_accept;
  let face_reason =
    Array.exists (fun rsn -> rsn = 7 || rsn = 8 || rsn = 9) o.Certify.reasons
  in
  check_bool "rejection comes from the face machinery" true face_reason

let test_nonplanar_rotations_reject () =
  List.iter
    (fun (name, g) ->
      let r = Rotation.of_sorted_adjacency g in
      if not (Rotation.is_planar_embedding r) then begin
        let o = Certify.verify r (Certify.prove r) in
        check_bool (name ^ " rejects") false o.Certify.all_accept
      end)
    [
      ("k5", Gen.k5 ());
      ("k33", Gen.k33 ());
      ("petersen", Gen.petersen ());
      ("toroidal", Gen.toroidal_grid 4 6);
      ("maxplanar-sorted", Gen.random_maximal_planar ~seed:2 40);
    ]

(* ------------------------------------------------------------------ *)
(* Certification x chaos: the fault bridge                              *)
(* ------------------------------------------------------------------ *)

let lossy rate =
  Fault.make
    ~spec:{ Fault.default with Fault.drop = rate; reorder = rate }
    ~seed:1234 ()

let test_verdict_survives_loss () =
  let run_cases certs_of =
    List.iter
      (fun (name, g) ->
        let r = embed_exn g in
        let certs = certs_of r in
        let clean = Certify.verify r certs in
        let zero =
          Certify.verify
            ~config:(Network.Config.make ~faults:(lossy 0.0) ())
            r certs
        in
        let noisy =
          Certify.verify
            ~config:(Network.Config.make ~faults:(lossy 0.05) ())
            r certs
        in
        check_bool (name ^ ": zero-rate accept map") true
          (clean.Certify.accept = zero.Certify.accept);
        check_bool (name ^ ": lossy accept map") true
          (clean.Certify.accept = noisy.Certify.accept);
        (* Stronger than the verdict: the violation codes merge by min,
           so even the per-node reasons are delivery-order invariant. *)
        check_bool (name ^ ": lossy reasons") true
          (clean.Certify.reasons = noisy.Certify.reasons);
        check_bool (name ^ ": reliable layer takes extra rounds") true
          (noisy.Certify.rounds >= clean.Certify.rounds))
      [ ("grid", Gen.grid 6 7); ("maxplanar", Gen.random_maximal_planar ~seed:21 60) ]
  in
  run_cases Certify.prove;
  run_cases (fun r -> Certify.corrupt ~seed:77 ~k:3 (Certify.prove r))

(* Under faults, [domains] changes only wall time: the same lossy seed
   verifies to the same verdicts, violation codes, rounds and wire
   report at four domains as at one — clean and corrupted. *)
let test_faults_compose_with_domains () =
  List.iter
    (fun (name, g) ->
      let r = embed_exn g in
      List.iter
        (fun (what, certs) ->
          let verify domains =
            let plan = lossy 0.05 in
            let o =
              Certify.verify
                ~config:(Network.Config.make ~domains ~faults:plan ())
                r certs
            in
            (o, Fault.stats plan)
          in
          let (o1, s1) = verify 1 in
          let (o4, s4) = verify 4 in
          let name = Printf.sprintf "%s, %s" name what in
          check_bool (name ^ ": faults fired") true (s1.Fault.dropped > 0);
          check_bool (name ^ ": accept") true
            (o1.Certify.accept = o4.Certify.accept);
          check_bool (name ^ ": reasons") true
            (o1.Certify.reasons = o4.Certify.reasons);
          check (name ^ ": rounds") o1.Certify.rounds o4.Certify.rounds;
          check_bool (name ^ ": report") true
            (o1.Certify.report = o4.Certify.report);
          check_bool (name ^ ": fault stats") true (s1 = s4))
        [
          ("clean", Certify.prove r);
          ("corrupted", Certify.corrupt ~seed:77 ~k:3 (Certify.prove r));
        ])
    [ ("grid", Gen.grid 6 7); ("maxplanar", Gen.random_maximal_planar ~seed:21 60) ]

(* ------------------------------------------------------------------ *)
(* Kernel parity (PR 5 closure)                                        *)
(* ------------------------------------------------------------------ *)

let test_kernel_parity () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (kernel, embed) ->
          let r = embed g in
          let o = Certify.verify r (Certify.prove r) in
          check_bool
            (Printf.sprintf "%s via %s certifies" name kernel)
            true o.Certify.all_accept)
        [ ("lr", embed_exn); ("dmp", Dmp.embed_exn) ])
    families

(* ------------------------------------------------------------------ *)
(* Random properties                                                   *)
(* ------------------------------------------------------------------ *)

let prop_clean_accept =
  QCheck.Test.make ~count:25 ~name:"random planar graphs certify"
    QCheck.(pair (int_range 3 120) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Gen.random_maximal_planar ~seed n in
      let r = embed_exn g in
      let o = Certify.verify r (Certify.prove r) in
      o.Certify.all_accept && o.Certify.rounds <= 1)

let prop_one_flip_killed =
  QCheck.Test.make ~count:50 ~name:"any single bit flip is rejected"
    QCheck.(pair (int_range 3 80) (int_range 0 10_000))
    (fun (n, seed) ->
      let g = Gen.random_maximal_planar ~seed:(seed + 1) n in
      let r = embed_exn g in
      let certs = Certify.prove r in
      let o = Certify.verify r (Certify.corrupt ~seed ~k:1 certs) in
      not o.Certify.all_accept)

let () =
  Alcotest.run "certify"
    [
      ( "completeness",
        [
          Alcotest.test_case "all families accept, 1 round, both engines"
            `Quick test_clean_families_accept;
          Alcotest.test_case "n=1 and n=2" `Quick test_single_and_pair;
          Alcotest.test_case "prove input validation" `Quick
            test_prove_rejects_bad_graphs;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "metrics and trace thread through" `Quick
            test_observability;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "mutation kill matrix" `Quick
            test_mutation_kill_matrix;
          Alcotest.test_case "seeded corruption rejected" `Quick
            test_corrupt_is_rejected;
          Alcotest.test_case "torus cannot forge planarity" `Quick
            test_torus_cannot_forge_planarity;
          Alcotest.test_case "non-planar rotations reject" `Quick
            test_nonplanar_rotations_reject;
        ] );
      ( "chaos bridge",
        [
          Alcotest.test_case "verdict invariant under loss" `Quick
            test_verdict_survives_loss;
          Alcotest.test_case "faults compose with domains" `Quick
            test_faults_compose_with_domains;
        ] );
      ( "kernel parity",
        [ Alcotest.test_case "LR and DMP both certify" `Quick test_kernel_parity ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_clean_accept; prop_one_flip_killed ] );
    ]
