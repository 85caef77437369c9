(** Global state of the distributed embedding run, and the merge patterns
    of Section 5.2 of the paper.

    Every merge goes through {!merge}: old parts disappear, their union
    becomes a fresh part (re-embedded with its half-embedded edges on one
    face), and the network is charged for the {e update instructions}
    disseminated inside the new part. The pattern-specific interface
    shipments are charged by the caller with {!ship_to_vertex} /
    {!ship_between}, which route the parts' compressed interface summaries
    over real tree paths and edges of the graph.

    With [checks] on, every merge is validated against the safety
    invariants of {!Partition} (Definition 3.1 / Proposition 5.2), feeding
    experiment E8. *)

type kind = Pairwise | Star | Vertex_coordinated | Path_coordinated

type stats = {
  mutable pairwise : int;
  mutable star : int;
  mutable vertex_coordinated : int;
  mutable path_coordinated : int;
  mutable retired : int;
  mutable safety_checks : int;
  mutable calls : int;  (** recursion calls processed. *)
  mutable final_parts_max : int;
      (** most parts entering any restricted path-coordinated merge. *)
  mutable iface_bits_shipped : int;
  mutable installs : int;  (** parts installed (fresh or merged). *)
  mutable install_vertices : int;  (** Σ|part| over those installs. *)
}

type t = {
  g : Gr.t;
  checks : bool;
  cost : Costmodel.t;
  part_of : int array;  (** vertex -> part id; [-1] before assignment. *)
  parts : (int, Part.t) Hashtbl.t;  (** alive parts. *)
  mutable next_id : int;
  stats : stats;
  ws : Part.workspace;  (** the install workspace every part loads into. *)
  mutable full : Rotation.t option;
      (** the network's rotation, set by the install of the part covering
          it ([None] before that). *)
  in_call : int array;
      (** [stats.calls] on the vertices of the current recursion call's
          subtree ({!Schedule.run} stamps it). *)
  p0_pos : int array;
      (** a subtree vertex's position on the call's [P0], [-1] off it. *)
  seen : int array;
      (** a stamped vertex set, [seen_stamp] marking members, for
          {!Schedule.run}'s per-part scans. *)
  mutable seen_stamp : int;
}

val create : Gr.t -> checks:bool -> cost:Costmodel.t -> t
val part : t -> int -> Part.t

val fresh_part : t -> ?anchors:int list -> int list -> int
(** Turn unassigned vertices into a new part; returns its id. *)

val ship_to_vertex : t -> from_part:int -> int -> unit
(** Charge aggregating the part's compressed interface to its leader and
    routing it to the given vertex (which must be adjacent to the part). *)

val ship_between : t -> from_part:int -> to_part:int -> unit
(** Charge shipping [from_part]'s interface to [to_part]'s leader across a
    connecting edge. *)

val merge : t -> ?anchors:int list -> kind:kind -> int list -> int
(** Merge the given (≥ 2, pairwise distinct, union-connected) parts into a
    fresh one; returns its id. @raise Part.Nonplanar_detected when the
    union admits no valid partial embedding. *)

val adjacent_parts : t -> int -> int list
(** Ids of distinct parts sharing an edge with the given part. *)
