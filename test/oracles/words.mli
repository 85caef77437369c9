(** The one exact reading of allocated words, shared by the test
    suites' allocation gates and the bench harness. *)

val now : unit -> float
(** Words allocated so far on either heap. OCaml 5 folds minor-heap
    allocation into [Gc.quick_stat] only at a minor collection, and
    words promoted since the last major slice into [major_words] only at
    the next slice, so [now] forces both before reading. Without them a
    small run reads as 0 words, and a run whose result survives misses
    the words that result was promoted with (a 2,000-query routing batch
    read 84,053 words, not 156,085). *)

val of_call : (unit -> 'a) -> 'a * float
(** [of_call f] is [f ()] and the words it allocated, [now] read on
    each side. *)
