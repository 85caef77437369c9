type crash = { node : int; at : int; restart : int option }

type spec = {
  drop : float;
  duplicate : float;
  reorder : float;
  delay : float;
  max_delay : int;
  adversarial : bool;
  crashes : crash list;
  grace : int;
}

let default =
  {
    drop = 0.;
    duplicate = 0.;
    reorder = 0.;
    delay = 0.;
    max_delay = 3;
    adversarial = false;
    crashes = [];
    grace = 8;
  }

type stats = {
  dropped : int;
  duplicated : int;
  reordered : int;
  delayed : int;
  crash_lost : int;
  crashes : int;
  restarts : int;
}

let zero_stats =
  {
    dropped = 0;
    duplicated = 0;
    reordered = 0;
    delayed = 0;
    crash_lost = 0;
    crashes = 0;
    restarts = 0;
  }

(* [pos] is the position of the plan's one splitmix64 stream, which the
   engine consumes in its serial merge's visit order. *)
type plan = {
  spec : spec;
  seed : int;
  mutable pos : int64;
  mutable stats : stats;
  by_node : (int, crash list) Hashtbl.t;
  horizon : int;
}

(* splitmix64: a tiny, well-mixed, platform-independent generator — the
   plan must not depend on Stdlib.Random's global state or algorithm. *)
let mix seed = Int64.logxor (Int64.of_int seed) 0x2545F4914F6CDD1DL

let snext p =
  let open Int64 in
  p.pos <- add p.pos 0x9E3779B97F4A7C15L;
  let z = p.pos in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Uniform float in [0, 1): the top 53 bits of one draw. *)
let suniform p =
  Int64.to_float (Int64.shift_right_logical (snext p) 11) *. 0x1p-53

(* Uniform int in [0, bound): modulo bias is irrelevant at fault-plan
   precision (bound is tiny against 2^62). *)
let sbelow p bound =
  Int64.to_int (Int64.shift_right_logical (snext p) 2) mod bound

let schance p prob = prob > 0. && suniform p < prob

let make ?(spec = default) ~seed () =
  let bad_prob x = not (x >= 0. && x <= 1.) in
  if bad_prob spec.drop || bad_prob spec.duplicate || bad_prob spec.reorder
     || bad_prob spec.delay
  then invalid_arg "Fault.make: probabilities must be within [0, 1]";
  if spec.max_delay < 1 then invalid_arg "Fault.make: max_delay must be >= 1";
  if spec.grace < 1 then invalid_arg "Fault.make: grace must be >= 1";
  let by_node = Hashtbl.create (List.length spec.crashes) in
  let horizon =
    List.fold_left
      (fun acc c ->
        if c.at < 0 then invalid_arg "Fault.make: crash round must be >= 0";
        (match c.restart with
        | Some r when r <= c.at ->
            invalid_arg "Fault.make: restart must come after the crash"
        | _ -> ());
        let sofar = try Hashtbl.find by_node c.node with Not_found -> [] in
        Hashtbl.replace by_node c.node (c :: sofar);
        max acc (match c.restart with Some r -> r | None -> c.at))
      0 spec.crashes
  in
  { spec; seed; pos = mix seed; stats = zero_stats; by_node; horizon }

let spec p = p.spec
let stats p = p.stats
let horizon p = p.horizon
let grace p = p.spec.grace

let reset p =
  p.pos <- mix p.seed;
  p.stats <- zero_stats

type delivery = { offset : int; key : int option }

let one_copy p =
  let offset =
    if schance p p.spec.delay then begin
      p.stats <- { p.stats with delayed = p.stats.delayed + 1 };
      1 + sbelow p p.spec.max_delay
    end
    else 0
  in
  let key =
    if schance p p.spec.reorder then begin
      p.stats <- { p.stats with reordered = p.stats.reordered + 1 };
      Some (sbelow p 0x40000000)
    end
    else None
  in
  { offset; key }

let fate p =
  if schance p p.spec.drop then begin
    p.stats <- { p.stats with dropped = p.stats.dropped + 1 };
    []
  end
  else if schance p p.spec.duplicate then begin
    p.stats <- { p.stats with duplicated = p.stats.duplicated + 1 };
    let a = one_copy p in
    let b = one_copy p in
    [ a; b ]
  end
  else [ one_copy p ]

let down p ~node ~round =
  match Hashtbl.find_opt p.by_node node with
  | None -> false
  | Some cs ->
      List.exists
        (fun c ->
          c.at <= round
          && match c.restart with None -> true | Some r -> round < r)
        cs

let transitions p ~round =
  List.filter_map
    (fun c ->
      if c.at = round then begin
        p.stats <- { p.stats with crashes = p.stats.crashes + 1 };
        Some (c.node, `Crash)
      end
      else if c.restart = Some round then begin
        p.stats <- { p.stats with restarts = p.stats.restarts + 1 };
        Some (c.node, `Restart)
      end
      else None)
    p.spec.crashes

let note_crash_lost p =
  p.stats <- { p.stats with crash_lost = p.stats.crash_lost + 1 }

let permute p a ~pos ~len =
  for i = len - 1 downto 1 do
    let j = pos + sbelow p (i + 1) in
    let t = a.(pos + i) in
    a.(pos + i) <- a.(j);
    a.(j) <- t
  done
