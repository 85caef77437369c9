(* Quickstart: embed a small planar network distributedly.

   Build a graph, run the Theorem 1.1 algorithm, read each node's
   clockwise edge order, and verify the result independently with the
   Euler-formula face-tracing checker.

     dune exec examples/quickstart.exe *)

let () =
  (* A 12-node planar network: a wheel (hub-and-ring) with two extra
     spokes of sensors hanging off it. *)
  let g =
    Gr.of_edges ~n:12
      [
        (* ring *)
        (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0);
        (* hub *)
        (6, 0); (6, 1); (6, 2); (6, 3); (6, 4); (6, 5);
        (* two chains hanging off ring nodes *)
        (1, 7); (7, 8); (4, 9); (9, 10); (10, 11);
      ]
  in
  Printf.printf "network: n=%d m=%d diameter=%d\n\n" (Gr.n g) (Gr.m g)
    (Traverse.diameter g);

  (* Run the distributed algorithm. Every node starts knowing only its own
     id and its neighbors' ids; the run simulates the CONGEST rounds. *)
  let outcome = Embedder.run ~checks:true g in
  let report = outcome.Embedder.report in
  Printf.printf "distributed run: %d rounds at %d bits/edge/round\n"
    report.Embedder.rounds report.Embedder.bandwidth;
  List.iter
    (fun (phase, rounds) -> Printf.printf "  %-28s %4d rounds\n" phase rounds)
    report.Embedder.phases;

  match outcome.Embedder.rotation with
  | None -> failwith "a planar input was rejected — this is a bug"
  | Some rotation ->
      (* The output: each node's clockwise cyclic order of neighbors in
         one fixed planar drawing. *)
      Printf.printf "\ncombinatorial planar embedding (clockwise orders):\n";
      for v = 0 to Gr.n g - 1 do
        Printf.printf "  node %2d : (%s)\n" v
          (String.concat " "
             (List.map string_of_int
                (Array.to_list (Rotation.rotation rotation v))))
      done;
      (* Independent verification: trace the faces and check Euler's
         formula n - m + f = 2. *)
      let f = Rotation.face_count rotation in
      Printf.printf "\nverification: %d faces, n - m + f = %d (%s)\n" f
        (Gr.n g - Gr.m g + f)
        (if Rotation.is_planar_embedding rotation then "planar, Euler check passed"
         else "EULER CHECK FAILED");
      (* Compare against the trivial O(n) baseline. *)
      let b = Baseline.run g in
      Printf.printf
        "\nbaseline (gather everything at the leader): %d rounds\n"
        b.Baseline.report.Baseline.rounds;
      Printf.printf
        "(on a %d-node toy network the baseline wins; run\n\
        \ `dune exec bench/main.exe -- e2` to see the crossover at scale)\n"
        (Gr.n g);

      (* The engine underneath, directly: write a protocol as an
         init/round/msg_bits triple and hand it to Network.exec. A node
         sends by calling [send], reads its mail through an inbox view,
         and returns its new state. The result carries the final states,
         the round count and a report; asking for a bounds verdict via
         the Observe sink makes the run check itself against the
         paper's inequalities. *)
      let flood_leader =
        {
          Network.init =
            (fun g v send ->
              Gr.iter_neighbors g v (fun w -> send w v);
              v);
          round =
            (fun g v best inbox send ->
              let best' =
                Network.Inbox.fold (fun acc _src x -> max acc x) best inbox
              in
              if best' > best then Gr.iter_neighbors g v (fun w -> send w best');
              best');
          msg_bits = (fun _ -> 4);
        }
      in
      let r =
        Network.exec
          ~config:
            (Network.Config.default
            |> Network.Config.with_observe
                 (Observe.make
                    ~bounds:(Observe.bounds_spec ~d:(Traverse.diameter g) ())
                    ()))
          g flood_leader
      in
      Printf.printf
        "\nraw engine demo (max-id flood): leader %d after %d rounds,\n\
        \ %d messages / %d bits, peak %d active nodes, bounds %s\n"
        r.Network.states.(0) r.Network.rounds
        r.Network.report.Network.messages r.Network.report.Network.bits
        r.Network.report.Network.active_peak
        (match r.Network.report.Network.verdict with
        | Some v when Bounds.ok v -> "OK"
        | Some _ -> "VIOLATED"
        | None -> "unchecked")
