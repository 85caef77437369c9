(** All-pairs reference for {!Traverse.diameter}. *)

val diameter : Gr.t -> int
(** Largest eccentricity over every vertex, one BFS each: O(n·m).
    @raise Invalid_argument if the graph is disconnected. *)
