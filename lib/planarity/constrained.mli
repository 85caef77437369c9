(** Outer-face-constrained embedding of a part — the Figure 1(b)
    construction of the paper.

    A {e part} is a vertex subset [P] of the network [G]; its
    {e half-embedded edges} have exactly one endpoint inside [P]. The
    safety property (Definition 3.1) guarantees that [G \ P] is connected
    whenever [P] is non-trivial, so contracting [G \ P] to a single {e apex}
    node preserves planarity, and in any planar embedding of [P] all
    half-embedded edges must reach a single face.

    The {!workspace} realizes this: it embeds the subgraph induced by
    [P], augmented with one {e stub} vertex per half-embedded edge and an
    apex adjacent to all stubs. The result is a partial embedding of [P]
    with every half-embedded edge on one (outer) face, together with the
    realized cyclic order of the half-embedded edges around that face —
    the part's realized {e interface} order. If the augmented graph is
    not planar then (for a safe partition) the whole network is not
    planar. The graph-building form of the same construction is the
    test oracle [Apex]. *)

(** {1 The install workspace}

    The embedder installs thousands of parts per run, each needing only
    the verdict, the induced edge count, the block count and the outer
    order. A {!workspace} computes them without building a graph: it
    names the part's vertices [0 .. p-1] in list order, the stub of the
    [i]-th half edge [p + i] and the apex [p + k], writes the induced
    pairs and then the stub and apex pairs straight into one reusable
    {!Lr.workspace}, and runs {!Lr.embed_pairs}, which keeps the ring
    permutation check and the Euler check. Local ids are stamped per
    load, so naming a part costs O(p), and the block count is an
    array lowpoint DFS over the network's CSR restricted to the part.
    Every buffer is sized to the network or grows only, so once a
    workspace has seen its largest part a load allocates nothing per
    vertex or edge beyond the outputs asked for. A workspace is not
    thread-safe: give each run its own. *)

type workspace

val workspace : Gr.t -> workspace
(** An empty workspace over the given network. *)

val load : workspace -> part:int list -> half:(int * int) list -> unit
(** Name the part and its half edges and write the induced pairs. [half]
    must list edges of the network with exactly their inside endpoint in
    [part], and [part] must list vertices of the network, each once;
    @raise Invalid_argument otherwise. *)

val induced_edges : workspace -> int
(** Edges of the subgraph the loaded part induces. *)

val blocks : workspace -> int
(** Biconnected components of the subgraph the loaded part induces —
    [(Bicon.decompose (Gr.induced g part)).n_components]: every edge in
    exactly one, none for an isolated vertex. *)

val embed_loaded : workspace -> bool
(** Embed the loaded part with its half edges on one face: [false] iff
    the apex-augmented part is not planar. At most once per {!load}.
    @raise Lr.Embedding_invalid if the kernel's ring fails its checks. *)

val kernel : workspace -> Lr.workspace
(** The kernel workspace {!embed_loaded} runs. After a run that returned
    [true], its ring is the apex-augmented part's rotation under
    {!Lr.workspace}'s ring contract: local ids as described above. *)

val outer : workspace -> (int * int) list
(** After {!embed_loaded} returned [true]: the half edges
    [(inside, outside)] in their cyclic order around the shared face. *)

val rotation : workspace -> Rotation.t
(** After {!embed_loaded} returned [true] on a part that covers the whole
    network (so it has no half edges): the network's rotation system,
    through the checked {!Rotation.make_owned}.
    @raise Invalid_argument if the part does not cover the network. *)
