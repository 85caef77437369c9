type round_record = { round : int; active : int; messages : int; bits : int }

type t = {
  g : Gr.t;
  mutable rounds : int;
  mutable messages : int;
  mutable total_bits : int;
  edge_bits : int array;  (* per undirected edge, both directions *)
  dir_bits : int array;  (* 2m: per directed edge *)
  dir_msgs : int array;  (* 2m: messages per directed edge *)
  dir_burst : int array;  (* 2m: max bits in one round per directed edge *)
  mutable max_message_bits : int;
  mutable round_log_rev : round_record list;
  mutable phases : (string * int) list;
  mutable fault_counts : (string * int) list;  (* first-appearance order *)
}

let create g =
  let m = max 1 (Gr.m g) in
  {
    g;
    rounds = 0;
    messages = 0;
    total_bits = 0;
    edge_bits = Array.make m 0;
    dir_bits = Array.make (2 * m) 0;
    dir_msgs = Array.make (2 * m) 0;
    dir_burst = Array.make (2 * m) 0;
    max_message_bits = 0;
    round_log_rev = [];
    phases = [];
    fault_counts = [];
  }

let rounds t = t.rounds
let messages t = t.messages
let total_bits t = t.total_bits
let max_edge_bits t = if Gr.m t.g = 0 then 0 else Array.fold_left max 0 t.edge_bits
let edge_bits t i = t.edge_bits.(i)
let max_message_bits t = t.max_message_bits
let max_round_edge_bits t = Array.fold_left max 0 t.dir_burst

let active_peak t =
  List.fold_left (fun acc r -> max acc r.active) 0 t.round_log_rev

let round_log t = List.rev t.round_log_rev

(* Directed slot of the edge {u, v} in direction u -> v: the normalized
   edge stores its endpoints as (min, max); slot 0 is min -> max. *)
let dir_index t u v =
  let e = Gr.edge_index t.g u v in
  (2 * e) + if u < v then 0 else 1

let dart_dir g d ~dst =
  (2 * Gr.dart_edge g d) + if Gr.dart_src g d < dst then 0 else 1

let iter_dir t f =
  for e = 0 to Gr.m t.g - 1 do
    let (u, v) = Gr.edge_of_index t.g e in
    List.iter
      (fun (src, dst, d) ->
        if t.dir_bits.(d) > 0 || t.dir_msgs.(d) > 0 then
          f ~src ~dst ~bits:t.dir_bits.(d) ~messages:t.dir_msgs.(d)
            ~burst:t.dir_burst.(d))
      [ (u, v, 2 * e); (v, u, (2 * e) + 1) ]
  done

let add_rounds t r = t.rounds <- t.rounds + r

let add_edge_bits_by_index t i bits =
  t.edge_bits.(i) <- t.edge_bits.(i) + bits;
  t.total_bits <- t.total_bits + bits

let add_dir_bits_at t ~dir ~bits =
  t.dir_bits.(dir) <- t.dir_bits.(dir) + bits;
  add_edge_bits_by_index t (dir / 2) bits

let add_dir_bits t ~u ~v ~bits = add_dir_bits_at t ~dir:(dir_index t u v) ~bits

let add_message_at t ~dir ~bits =
  t.messages <- t.messages + 1;
  t.dir_msgs.(dir) <- t.dir_msgs.(dir) + 1;
  if bits > t.max_message_bits then t.max_message_bits <- bits;
  t.dir_bits.(dir) <- t.dir_bits.(dir) + bits;
  add_edge_bits_by_index t (dir / 2) bits

let add_message t ~u ~v ~bits = add_message_at t ~dir:(dir_index t u v) ~bits

let record_round t ~round ~active ~messages ~bits =
  t.round_log_rev <- { round; active; messages; bits } :: t.round_log_rev

let note_round_edge_at t ~dir ~bits =
  if bits > t.dir_burst.(dir) then t.dir_burst.(dir) <- bits

let note_round_edge t ~u ~v ~bits =
  note_round_edge_at t ~dir:(dir_index t u v) ~bits

let phase t name r = t.phases <- (name, r) :: t.phases
let phases t = List.rev t.phases

let note_fault t ~kind =
  let rec bump = function
    | [] -> [ (kind, 1) ]
    | (k, c) :: rest when k = kind -> (k, c + 1) :: rest
    | kv :: rest -> kv :: bump rest
  in
  t.fault_counts <- bump t.fault_counts

let faults t = t.fault_counts
