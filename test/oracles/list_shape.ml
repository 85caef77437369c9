type ('s, 'm) t = {
  init : Gr.t -> int -> 's * (int * 'm) list;
  round : Gr.t -> int -> 's -> (int * 'm) list -> 's * (int * 'm) list;
  msg_bits : 'm -> int;
}

let of_lists (p : ('s, 'm) t) : ('s, 'm) Network.protocol =
  let emit send out = List.iter (fun (w, m) -> send w m) out in
  let to_list inbox =
    let l = ref [] in
    for i = Network.Inbox.length inbox - 1 downto 0 do
      l := (Network.Inbox.src inbox i, Network.Inbox.msg inbox i) :: !l
    done;
    !l
  in
  {
    Network.init =
      (fun g v send ->
        let (s, out) = p.init g v in
        emit send out;
        s);
    round =
      (fun g v s inbox send ->
        let (s, out) = p.round g v s (to_list inbox) in
        emit send out;
        s);
    msg_bits = p.msg_bits;
  }

let to_lists (p : ('s, 'm) Network.protocol) : ('s, 'm) t =
  let collect call =
    let out = ref [] and live = ref true in
    let send w m =
      if !live then out := (w, m) :: !out
      else invalid_arg "List_shape: send called after its call returned"
    in
    let s =
      Fun.protect ~finally:(fun () -> live := false) (fun () -> call send)
    in
    (s, List.rev !out)
  in
  {
    init = (fun g v -> collect (p.init g v));
    round =
      (fun g v s inbox ->
        Network.Inbox.scoped
          ~srcs:(Array.of_list (List.map fst inbox))
          ~msgs:(Array.of_list (List.map snd inbox))
          (fun ib -> collect (p.round g v s ib)));
    msg_bits = p.msg_bits;
  }
