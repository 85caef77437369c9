(** The graph-building apex construction, kept as a test oracle.

    Before the install workspace, every part install built the part's
    induced subgraph with {!Gr.induced}, decomposed it with
    {!Bicon.decompose}, added one stub per half edge and an apex with
    {!Gr.union_vertices}, and embedded that graph with
    {!Planarity.embed}. {!Constrained}'s workspace must agree with this
    construction on every output the embedder reads. *)

type shape = {
  induced_edges : int;  (** edges of the induced subgraph. *)
  blocks : int;  (** its [Bicon.decompose] component count. *)
  outer : (int * int) list option;
      (** the half edges around the apex, [None] iff not planar. *)
  full : int array array option;
      (** when the part covers [g] (so it has no half edges) and embeds:
          every vertex's rotation, in [g]'s ids. *)
}

val shape : Gr.t -> part:int list -> half:(int * int) list -> shape
