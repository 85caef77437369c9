(** The planarity front: one [embed] entry point for every production
    caller — [Baseline], [Separator], [Iface], [Constrained],
    [Kuratowski], [Incremental], the benches and the CLI — running the
    linear-time left-right kernel ({!Lr}). *)

type result = Lr.result = Planar of Rotation.t | Nonplanar

val embed : Gr.t -> result
(** Planarity test plus embedding. Any simple graph, connected or not.
    Accepted rotations have passed the face-tracing Euler check. *)

val is_planar : Gr.t -> bool

val embed_exn : Gr.t -> Rotation.t
(** @raise Invalid_argument if the graph is not planar. *)
