(* The Omega(D) lower bound, footnote 1 of the paper.

   Take K4 and replace each of its six edges by a path of Theta(D) hops.
   In any planar embedding the four degree-3 branch vertices must output
   clockwise orders that are mutually consistent: K4 drawn in the plane
   always has one vertex inside the triangle of the other three, and the
   orientation choices of far-apart branch vertices constrain each other.
   Since they are Theta(D) hops apart, Omega(D) rounds are unavoidable —
   even with unbounded message sizes.

   This example (a) shows the measured rounds growing linearly with D
   while n only grows by the same factor, and (b) exhibits the
   consistency the lower bound talks about: the cyclic orientation of the
   three segment-neighbors around each branch vertex, which together
   always form a coherent "one vertex inside" configuration.

     dune exec examples/lower_bound_k4.exe *)

let orientation_of_branch g rot v =
  (* For branch vertex v, map each incident segment to the K4 endpoint it
     leads to (walk the degree-2 path), giving v's clockwise order of the
     other three branch vertices. *)
  let next_on_path prev cur =
    match Array.to_list (Gr.neighbors g cur) with
    | [ a; b ] -> if a = prev then b else a
    | _ -> cur
  in
  Array.map
    (fun s ->
      let rec walk prev cur =
        if Gr.degree g cur = 3 then cur else walk cur (next_on_path prev cur)
      in
      walk v s)
    (Rotation.rotation rot v)

let () =
  Printf.printf "%8s %8s %6s %10s %10s\n" "seglen" "n" "D" "rounds" "rounds/D";
  List.iter
    (fun seglen ->
      let g = Gen.k4_subdivision seglen in
      let d = Traverse.diameter g in
      let o = Embedder.run g in
      let rounds = o.Embedder.report.Embedder.rounds in
      assert (rounds >= d);
      Printf.printf "%8d %8d %6d %10d %10.1f\n" seglen (Gr.n g) d rounds
        (float_of_int rounds /. float_of_int d))
    [ 2; 4; 8; 16; 32; 64 ];

  Printf.printf
    "\nRounds grow linearly with D: the lower-bound family really does pin\n\
     the cost to the diameter (the normalized column is flat-ish).\n\n";

  (* Now the consistency story on one instance. *)
  let g = Gen.k4_subdivision 8 in
  match (Embedder.run g).Embedder.rotation with
  | None -> failwith "subdivided K4 is planar"
  | Some rot ->
      assert (Rotation.is_planar_embedding rot);
      let branches =
        List.filter (fun v -> Gr.degree g v = 3) (List.init (Gr.n g) (fun i -> i))
      in
      Printf.printf
        "clockwise order of the other branch vertices, as seen by each\n\
         degree-3 vertex (%d hops apart):\n" (8 * 2);
      List.iter
        (fun v ->
          let o = orientation_of_branch g rot v in
          Printf.printf "  branch %3d sees (%s)\n" v
            (String.concat " " (List.map string_of_int (Array.to_list o))))
        branches;
      Printf.printf
        "\nThese four cyclic orders are exactly a planar K4: embedding the\n\
         4-cycle orders as a rotation system of K4 must give genus 0.\n";
      let k4 = Gen.complete 4 in
      let idx = Array.of_list branches in
      let back = Hashtbl.create 4 in
      Array.iteri (fun i v -> Hashtbl.replace back v i) idx;
      let k4rot =
        Array.map
          (fun v ->
            Array.map (fun w -> Hashtbl.find back w) (orientation_of_branch g rot v))
          idx
      in
      let r = Rotation.make k4 k4rot in
      Printf.printf "contracted K4 rotation genus: %d (%s)\n" (Rotation.genus r)
        (if Rotation.genus r = 0 then "consistent — as the lower bound demands"
         else "INCONSISTENT");
      assert (Rotation.genus r = 0)
