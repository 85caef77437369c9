(* Compare two sets of pipeline-benchmark result files, one per commit.

     compare.exe [--benchmark BENCHMARK.json] BASE_DIR HEAD_DIR

   Each directory holds the --out records of one commit's runs. Runs are
   grouped by workload and paired in file-name order, so name them by
   run index and alternate which commit runs first. For every end-to-end
   metric of BENCHMARK.json and every workload the tool prints each
   side's median and quartiles and one verdict:

     improved       the head wins at least 9 of 10 pairs (ties excluded)
                    and the medians differ by more than the base's
                    quartile spread
     unresolved     a side's quartile spread is wider than the bound
     regressed      the head's median is worse than the base's by more
                    than the bound
     within bound   otherwise

   Paired runs with the same seed and inputs must also agree on every
   exact count they recorded (traced runs record them). The exit code
   is 1 if any pair regressed or any exact count differs.

     compare.exe [--benchmark BENCHMARK.json] DIR

   prints the JSON summary of one directory's runs instead. *)

type bound = { name : string; lower_better : bool; bound : float }

let bounds_of file =
  Json.of_file file |> Json.member "end_to_end" |> Option.get |> Json.to_list
  |> List.map (fun e ->
         let s k = Json.to_str (Option.get (Json.member k e)) in
         {
           name = s "name";
           lower_better = s "better" = "lower";
           bound = Json.to_num (Option.get (Json.member "bound" e));
         })

type run = { workload : string; seed : float; inputs : string; record : Json.t }

let runs_of dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.filter_map (fun f ->
         let record = Json.of_file (Filename.concat dir f) in
         match Json.member "workload" record with
         | None ->
             Printf.eprintf "compare.exe: %s is not a result record, skipped\n" f;
             None
         | Some w ->
             let field k = Option.get (Json.member k record) in
             Some
               {
                 workload = Json.to_str w;
                 seed = Json.to_num (field "seed");
                 inputs =
                   Json.to_str (Option.get (Json.member "fingerprint" (field "inputs")));
                 record;
               })

let value section name r =
  Option.bind (Json.member section r.record) (Json.member name)
  |> Option.map (fun v -> Json.to_num (Option.get (Json.member "value" v)))

let exact_units = [ "count"; "rounds"; "bits" ]

(* The exact counts of a traced run: per-layer metrics in count units,
   except the GC's, whose collection counts depend on timing. *)
let counts r =
  match Json.member "per_layer" r.record with
  | Some (Json.Obj l) ->
      List.filter_map
        (fun (k, v) ->
          match Json.member "unit" v with
          | Some (Json.Str u)
            when List.mem u exact_units && not (String.starts_with ~prefix:"gc." k) ->
              Some (k, Json.to_num (Option.get (Json.member "value" v)))
          | _ -> None)
        l
  | _ -> []

let verdict b base head =
  let bm = Stats.py_median base and hm = Stats.py_median head in
  let bq1, bq3 = Stats.quartiles base and hq1, hq3 = Stats.quartiles head in
  let better x y = if b.lower_better then x < y else x > y in
  let wins = ref 0 and losses = ref 0 in
  Array.iteri
    (fun i h ->
      if better h base.(i) then incr wins
      else if better base.(i) h then incr losses)
    head;
  let decided = !wins + !losses in
  let spread = Float.max ((bq3 -. bq1) /. bm) ((hq3 -. hq1) /. hm) in
  let worse_by = (if b.lower_better then hm -. bm else bm -. hm) /. bm in
  let v =
    if
      decided > 0
      && 10 * !wins >= 9 * decided
      && better hm bm
      && Float.abs (hm -. bm) > bq3 -. bq1
    then "improved"
    else if spread > b.bound then "unresolved"
    else if worse_by > b.bound then "regressed"
    else "within bound"
  in
  (v, (bm, bq1, bq3), (hm, hq1, hq3), !wins, !losses, spread)

(* With one directory: the JSON summary of its runs, as committed in
   baseline/baseline.json. Per workload and end-to-end metric it gives the
   median, the quartiles, their spread and the range of per-run sample
   counts, next to the environment the runs recorded. *)
let summary bounds runs =
  let field r k = Option.get (Json.member k r.record) in
  let num x = Json.Num x in
  let per w =
    let rs = List.filter (fun r -> r.workload = w) runs in
    let r0 = List.hd rs in
    let metric b =
      let v = Array.of_list (List.filter_map (value "metrics" b.name) rs) in
      let n = List.filter_map (fun r -> Option.bind (Json.member "samples" r.record) (Json.member b.name)) rs in
      let n = List.map Json.to_num n in
      let q1, q3 = Stats.quartiles v and med = Stats.py_median v in
      ( b.name,
        Json.Obj
          [
            ("median", num med);
            ("q1", num q1);
            ("q3", num q3);
            ("spread", num ((q3 -. q1) /. med));
            ("samples", Json.Arr [ num (List.fold_left min infinity n); num (List.fold_left max 0. n) ]);
          ] )
    in
    ( w,
      Json.Obj
        [
          ("runs", num (float_of_int (List.length rs)));
          ("seeds", Json.Arr (List.map (fun r -> num r.seed) rs));
          ("domains", field r0 "domains");
          ("inputs", field r0 "inputs");
          ("metrics", Json.Obj (List.map metric bounds));
        ] )
  in
  let r0 = List.hd runs in
  let env =
    List.map
      (fun k -> (k, field r0 k))
      [ "cores"; "ocaml_version"; "git_rev"; "ocamlrunparam"; "seconds" ]
  in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) runs) in
  Json.Obj (env @ [ ("workloads", Json.Obj (List.map per workloads)) ])

let () =
  let bench = ref "BENCHMARK.json" and dirs = ref [] in
  Arg.parse
    [ ("--benchmark", Arg.Set_string bench, "F  the BENCHMARK.json with the bounds") ]
    (fun d -> dirs := !dirs @ [ d ])
    "compare.exe [--benchmark BENCHMARK.json] BASE_DIR [HEAD_DIR]";
  let bounds = bounds_of !bench in
  let base_dir, head_dir =
    match !dirs with
    | [ a; b ] -> (a, b)
    | [ a ] ->
        print_endline (Json.to_string (summary bounds (runs_of a)));
        exit 0
    | _ ->
        prerr_endline "compare.exe: give one or two result directories";
        exit 2
  in
  let base = runs_of base_dir and head = runs_of head_dir in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) base) in
  let bad = ref false in
  Printf.printf "%-14s %-12s %-34s %-34s %7s %6s  %s\n" "metric" "workload"
    "base median [q1, q3]" "head median [q1, q3]" "spread" "w/l" "verdict";
  List.iter
    (fun w ->
      let pick l = Array.of_list (List.filter (fun r -> r.workload = w) l) in
      let bs = pick base and hs = pick head in
      let k = min (Array.length bs) (Array.length hs) in
      if k < 2 then Printf.printf "%s: fewer than two paired runs, skipped\n" w
      else begin
        let bs = Array.sub bs 0 k and hs = Array.sub hs 0 k in
        List.iter
          (fun b ->
            let col rs = Array.map (fun r -> value "metrics" b.name r) rs in
            match (col bs, col hs) with
            | bv, hv when Array.for_all Option.is_some bv && Array.for_all Option.is_some hv ->
                let v, (bm, bq1, bq3), (hm, hq1, hq3), wins, losses, spread =
                  verdict b (Array.map Option.get bv) (Array.map Option.get hv)
                in
                if v = "regressed" then bad := true;
                let show m q1 q3 = Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3 in
                Printf.printf "%-14s %-12s %-34s %-34s %6.1f%% %3d/%-2d  %s (bound %.0f%%)\n"
                  b.name w (show bm bq1 bq3) (show hm hq1 hq3) (100. *. spread) wins
                  losses v (100. *. b.bound)
            | _ -> Printf.printf "%-14s %-12s missing from some runs\n" b.name w)
          bounds;
        let same = ref 0 and differ = ref [] in
        for i = 0 to k - 1 do
          let a = bs.(i) and h = hs.(i) in
          if a.seed = h.seed && a.inputs = h.inputs && counts a <> [] then begin
            incr same;
            List.iter
              (fun (key, x) ->
                match List.assoc_opt key (counts h) with
                | Some y when y = x -> ()
                | _ -> differ := key :: !differ)
              (counts a)
          end
        done;
        if !same > 0 then begin
          let differ = List.sort_uniq compare !differ in
          if differ <> [] then bad := true;
          Printf.printf "%-14s %-12s exact counts over %d same-input pairs: %s\n" "counts" w
            !same
            (if differ = [] then "identical" else "DIFFER in " ^ String.concat ", " differ)
        end
      end)
    workloads;
  if !bad then exit 1
