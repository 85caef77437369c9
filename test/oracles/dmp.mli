(** Centralized planarity testing and embedding:
    the Demoucron–Malgrange–Pertuiset (DMP) algorithm — the test-only
    differential oracle for the left-right kernel ([Lr], behind
    [Planarity]).

    DMP is quadratic but simple enough to be convincingly correct, which
    is what an oracle needs: the test suites and the kernel bench check
    every LR verdict and rotation against it.

    The algorithm embeds each biconnected component separately (starting
    from a cycle and iteratively routing a path of some unembedded fragment
    through an admissible face) and then combines the blocks' rotations at
    cut vertices, which is always possible planarly. *)

type result = Planarity.result = Planar of Rotation.t | Nonplanar
(** The same type as [Planarity.result], so verdicts of the two kernels
    compare directly. *)

exception
  No_progress of {
    fragments : int;  (** fragments still alive when the loop stalled. *)
    faces : int;  (** faces of the partial embedding at that point. *)
    embedded_edges : int;  (** edges already routed into the embedding. *)
    total_edges : int;  (** edges of the biconnected component. *)
  }
(** Raised if the fragment-embedding loop of a biconnected component stops
    making progress — an internal invariant violation, never expected on
    any input. The payload snapshots the loop state for diagnosis instead
    of a bare [Failure] string. *)

val embed : Gr.t -> result
(** Planarity test plus embedding. Works on any simple graph, connected or
    not (each component is embedded independently). *)

val is_planar : Gr.t -> bool

val embed_exn : Gr.t -> Rotation.t
(** @raise Invalid_argument if the graph is not planar. *)
