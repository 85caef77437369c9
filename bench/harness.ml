(* The framing every bench executable shares: the command line, the
   clock, allocation counting, the timing loops and the JSON result file
   with its host header. Each bench keeps its own cases, gates and
   printed table.

   Every bench takes [--quick] (the CI-sized sweep) and [--out F] (where
   the JSON goes); the engine and chaos benches also take [--jobs k]. A
   bad argument or an unwritable [--out] is one line on stderr and exit
   2, before any case runs. *)

(* Command line -------------------------------------------------------- *)

type cli = { name : string; quick : bool; out : string; jobs : int }

let usage_error name fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s: %s\n" name msg;
      exit 2)
    fmt

(* Fails now, not after the sweep, if [file] cannot be written. The file
   is opened without truncation, so an existing result stays intact until
   the run that replaces it has finished. *)
let check_writable name file =
  match open_out_gen [ Open_wronly; Open_creat ] 0o644 file with
  | oc -> close_out oc
  | exception Sys_error msg -> usage_error name "cannot write %s" msg

(* [name] prefixes every error line; [out] is the default result file;
   [jobs] says whether the bench takes [--jobs k] (default 1). *)
let args ?(jobs = false) name ~out =
  let rec parse c = function
    | [] -> c
    | "--quick" :: rest -> parse { c with quick = true } rest
    | "--out" :: file :: rest -> parse { c with out = file } rest
    | [ "--out" ] -> usage_error name "--out expects a file name"
    | "--jobs" :: k :: rest when jobs -> (
        match int_of_string_opt k with
        | Some k when k >= 1 -> parse { c with jobs = k } rest
        | _ -> usage_error name "--jobs expects a positive integer")
    | [ "--jobs" ] when jobs ->
        usage_error name "--jobs expects a positive integer"
    | arg :: _ -> usage_error name "unknown argument %s" arg
  in
  let c =
    parse
      { name; quick = false; out; jobs = 1 }
      (List.tl (Array.to_list Sys.argv))
  in
  check_writable name c.out;
  c

(* Workloads ------------------------------------------------------------ *)

(* The planar family tiers the kernels, certify and routing sweeps
   share, in that order: maximal planar, grid, outerplanar and
   subdivided K4, each with its seed fixed by its size. The quick sweep
   takes each family's two smallest sizes. *)
let planar_families ?(grids = [ 22; 50; 100; 173 ]) quick =
  let tier sizes =
    if quick then List.filteri (fun i _ -> i < 2) sizes else sizes
  in
  let named fmt mk = List.map (fun k -> (Printf.sprintf fmt k, mk k)) in
  List.concat
    [
      named "maxplanar-%d"
        (fun n -> Gen.random_maximal_planar ~seed:(42 + n) n)
        (tier [ 500; 2000; 8000; 30000 ]);
      List.map
        (fun s -> (Printf.sprintf "grid-%dx%d" s s, Gen.grid s s))
        (tier grids);
      named "outerplanar-%d"
        (fun n -> Gen.random_outerplanar ~seed:(7 + n) ~n ~chord_prob:0.5)
        (tier [ 500; 2000; 8000; 30000 ]);
      named "k4-subdiv-%d" Gen.k4_subdivision (tier [ 80; 333; 1333; 5000 ]);
    ]

(* Clock and allocation ------------------------------------------------ *)

(* Seconds on the monotonic wall clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Words allocated so far on either heap. OCaml 5 folds minor-heap
   allocation into [quick_stat] only at a minor collection, and words
   promoted since the last major slice into [major_words] only at the
   next slice, so both are forced first. Without them a small run reads
   as 0 words, and a run whose result survives misses the words that
   result was promoted with (a 2,000-query routing batch read 84,053
   words, not 156,085). *)
let words_now () =
  Gc.minor ();
  ignore (Gc.major_slice 1);
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* One run of [f] after a full major collection: its result, the time it
   took on [clock] (the wall clock unless the caller asks for CPU time
   with [Sys.time]) and the words it allocated. *)
let counted ?(clock = now) f =
  Gc.full_major ();
  let w0 = words_now () in
  let t0 = clock () in
  let x = f () in
  let t = clock () -. t0 in
  (x, t, words_now () -. w0)

let time f =
  let x, t, _ = counted f in
  (x, t)

(* One counted warm-up run, then the best wall of [reps] runs (the
   quietest machine moment) and the warm-up's allocated words
   (allocation is deterministic per run). *)
let best_of ~reps f =
  let _, _, words = counted f in
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (snd (time f))
  done;
  (!best, words)

(* The first run's result and the median wall of [reps] runs. *)
let median_of ~reps f =
  let runs = List.init reps (fun _ -> time f) in
  let sorted = List.sort compare (List.map snd runs) in
  (fst (List.hd runs), List.nth sorted (reps / 2))

(* JSON ---------------------------------------------------------------- *)

type json =
  | Bool of bool
  | Int of int
  | Num of int * float  (* digits after the point, value *)
  | Str of string
  | List of json list
  | Obj of (string * json) list

let secs x = Num (6, x)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Printf.bprintf b "\\%c" c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* A container of scalars prints on one line; any other prints one
   member per line. A non-finite number prints as null. *)
let rec write b ind = function
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int x -> Buffer.add_string b (string_of_int x)
  | Num (d, x) when Float.is_finite x -> Printf.bprintf b "%.*f" d x
  | Num _ -> Buffer.add_string b "null"
  | Str s -> add_string b s
  | List l -> members b ind '[' ']' (List.map (fun v -> (None, v)) l)
  | Obj l -> members b ind '{' '}' (List.map (fun (k, v) -> (Some k, v)) l)

and members b ind op cl items =
  let flat =
    List.for_all (function _, (List _ | Obj _) -> false | _ -> true) items
  in
  let sep = if flat then " " else "\n" ^ String.make (ind + 2) ' ' in
  Buffer.add_char b op;
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string b (if i = 0 then sep else "," ^ sep);
      Option.iter (fun k -> add_string b k; Buffer.add_string b ": ") k;
      write b (ind + 2) v)
    items;
  Buffer.add_string b (if flat then " " else "\n" ^ String.make ind ' ');
  Buffer.add_char b cl

(* The host's core count, as the result header records it and the
   wall-clock gates that need hardware parallelism read it. *)
let cores = Domain.recommended_domain_count ()

(* The result file: the benchmark's name and the host it ran on, then
   the bench's own fields. *)
let document benchmark fields =
  Obj
    (("benchmark", Str benchmark)
    :: ("cores", Int cores)
    :: ("ocaml_version", Str Sys.ocaml_version)
    :: fields)

(* Writes [doc] to the [--out] file, then reports each gate failure on
   stderr and exits 1 if there was any. *)
let finish cli doc failures =
  let b = Buffer.create 4096 in
  write b 0 doc;
  Buffer.add_char b '\n';
  let oc = open_out cli.out in
  Buffer.output_buffer oc b;
  close_out oc;
  Printf.printf "\nwrote %s\n" cli.out;
  List.iter (Printf.eprintf "%s: %s\n" cli.name) failures;
  if failures <> [] then exit 1
