let now () =
  Gc.minor ();
  ignore (Gc.major_slice 1);
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let of_call f =
  let w0 = now () in
  let r = f () in
  (r, now () -. w0)
