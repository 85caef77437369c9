(* Spans recorded by the benchmark around its calls into the libraries.

   A span is one call into a layer's public function: name, layer, start
   and end on the monotonic clock, the span that caused it and the run it
   belongs to, plus the GC counters at both boundaries and any layer
   counts the caller attaches. Spans stay in memory and are written at
   exit as Chrome trace-event JSON. Recording is off unless [enable] was
   called; disabled, [call] costs one branch. *)

let now_ns () = Monotonic_clock.now ()

type gc = { minor : float; promoted : float; major : float; majors : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    major = s.Gc.major_words;
    majors = s.Gc.major_collections;
  }

type t = {
  id : int;
  parent : int;  (** [-1] for a root span. *)
  name : string;
  layer : string;
  t0 : int64;
  mutable t1 : int64;
  gc0 : gc;
  mutable gc1 : gc;
  mutable counts : (string * float) list;
}

let on = ref false
let run_id = ref ""
let recorded : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0

(* Starts a fresh recording: spans of an earlier run are dropped. *)
let enable ~run =
  on := true;
  run_id := run;
  recorded := [];
  stack := [];
  next_id := 0

let disable () = on := false

let call layer name f =
  if not !on then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let gc0 = gc_now () in
    let s =
      {
        id = !next_id;
        parent;
        name;
        layer;
        t0 = now_ns ();
        t1 = 0L;
        gc0;
        gc1 = gc0;
        counts = [];
      }
    in
    incr next_id;
    stack := s :: !stack;
    let close () =
      s.t1 <- now_ns ();
      s.gc1 <- gc_now ();
      stack := List.tl !stack;
      recorded := s :: !recorded
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Attach a count to the innermost open span (no-op when disabled). *)
let count k v =
  match !stack with s :: _ when !on -> s.counts <- (k, v) :: s.counts | _ -> ()

let spans () = List.rev !recorded
let seconds s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e9

let alloc_mw s =
  (s.gc1.minor -. s.gc0.minor +. (s.gc1.major -. s.gc0.major)
  -. (s.gc1.promoted -. s.gc0.promoted))
  /. 1e6

let minor_mw s = (s.gc1.minor -. s.gc0.minor) /. 1e6
let promoted_mw s = (s.gc1.promoted -. s.gc0.promoted) /. 1e6
let major_collections s = s.gc1.majors - s.gc0.majors

let find name =
  match List.find_opt (fun s -> s.name = name) (spans ()) with
  | Some s -> s
  | None -> invalid_arg ("Span.find: no span " ^ name)

(* Self time: the span minus the time its direct children cover. Calls
   nest strictly (one client, one stack), so children never overlap. *)
let self_seconds all s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. seconds c else acc)
    (seconds s) all

let self_by_layer () =
  let all = spans () in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.layer) in
      Hashtbl.replace tbl s.layer (prev +. self_seconds all s))
    all;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let chrome_trace () =
  let all = spans () in
  let origin = match all with s :: _ -> s.t0 | [] -> 0L in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str s.layer);
        ("ph", Json.Str "X");
        ("ts", Json.Num (us s.t0));
        ("dur", Json.Num (us s.t1 -. us s.t0));
        ("pid", Json.Num 1.);
        ("tid", Json.Num 1.);
        ( "args",
          Json.Obj
            ([
               ("id", Json.Num (float_of_int s.id));
               ("parent", Json.Num (float_of_int s.parent));
               ("run", Json.Str !run_id);
               ("self_us", Json.Num (self_seconds all s *. 1e6));
               ("minor_mw", Json.Num (minor_mw s));
               ("promoted_mw", Json.Num (promoted_mw s));
               ( "major_collections",
                 Json.Num (float_of_int (major_collections s)) );
             ]
            @ List.rev_map (fun (k, v) -> (k, Json.Num v)) s.counts) );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (List.map event all));
      ("displayTimeUnit", Json.Str "ms");
    ]
