(** The list shape of a CONGEST protocol, kept as a test oracle.

    Before the push interface every protocol was written this way: [init]
    returns the initial state and the round-0 outbox, and [round] takes
    the delivered [(from, msg)] list and returns the new state and its
    outbox of [(to, msg)]. The library runs only {!Network.protocol};
    the differential suites and the engine bench run list-shaped
    originals through {!of_lists} and demand bit-identical runs from the
    native versions, and {!List_engine} drives push protocols through
    {!to_lists}. *)

type ('s, 'm) t = {
  init : Gr.t -> int -> 's * (int * 'm) list;
  round : Gr.t -> int -> 's -> (int * 'm) list -> 's * (int * 'm) list;
  msg_bits : 'm -> int;
}

val of_lists : ('s, 'm) t -> ('s, 'm) Network.protocol
(** Each call's outbox is sent after the call returns, in list order, so
    states, rounds, reports and observations equal the list protocol's
    historical run bit for bit. *)

val to_lists : ('s, 'm) Network.protocol -> ('s, 'm) t
(** Each call runs against a collecting [send] (refused once the call
    has returned) and a {!Network.Inbox.scoped} inbox, and returns the
    sends as its outbox. *)
