(* A minimal JSON value with a printer and a parser: enough for the
   benchmark's result files, its Chrome trace and BENCHMARK.json. The
   toolchain ships no JSON library, and these files are small. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Integers print without a fraction; other numbers with all 17
   significant digits, so a value read back is the value measured. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num x -> Buffer.add_string b (number x)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          write b (Str k);
          Buffer.add_string b ": ";
          write b v)
        l;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

let to_file path v =
  let oc = open_out path in
  output_string oc (to_string v);
  output_char oc '\n';
  close_out oc

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let i = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !i)) in
  let rec skip () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\t' || s.[!i] = '\r')
    then begin
      incr i;
      skip ()
    end
  in
  let expect c =
    skip ();
    if !i < n && s.[!i] = c then incr i
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !i + String.length word <= n && String.sub s !i (String.length word) = word
    then begin
      i := !i + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      let c = s.[!i] in
      incr i;
      match c with
      | '"' -> ()
      | '\\' ->
          if !i >= n then fail "bad escape";
          let e = s.[!i] in
          incr i;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !i + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !i 4) in
              i := !i + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' ->
        incr i;
        skip ();
        if !i < n && s.[!i] = '}' then begin
          incr i;
          Obj []
        end
        else
          let rec fields acc =
            let k = string () in
            expect ':';
            let v = value () in
            skip ();
            if !i < n && s.[!i] = ',' then begin
              incr i;
              skip ();
              fields ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          fields []
    | '[' ->
        incr i;
        skip ();
        if !i < n && s.[!i] = ']' then begin
          incr i;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            skip ();
            if !i < n && s.[!i] = ',' then begin
              incr i;
              items (v :: acc)
            end
            else begin
              expect ']';
              Arr (List.rev (v :: acc))
            end
          in
          items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !i in
        while
          !i < n
          &&
          match s.[!i] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        do
          incr i
        done;
        if !i = start then fail "unexpected character";
        Num (float_of_string (String.sub s start (!i - start)))
  in
  let v = value () in
  skip ();
  if !i <> n then fail "trailing characters";
  v

let of_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  of_string s

let member k = function Obj l -> List.assoc_opt k l | _ -> None

let to_num = function
  | Num x -> x
  | _ -> raise (Parse_error "expected a number")

let to_str = function
  | Str s -> s
  | _ -> raise (Parse_error "expected a string")

let to_list = function
  | Arr l -> l
  | _ -> raise (Parse_error "expected an array")
