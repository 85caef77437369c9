(** The unrestricted path-coordinated merge of Section 5.3 of the paper —
    the merge phase of one recursion call.

    Given the call's trivial path part [P0] and its hanging parts
    [P1 .. Pk] (each already internally embedded by the child recursions),
    the schedule reduces the number of parts to (empirically) [O(D)] by the
    paper's steps:

    + number the [P0] vertices;
    + twice: recompute each part's lowest [P0]-connection ("color"),
      vertex-coordinated-merge same-color connected clusters around their
      shared connection vertex (splitting off a copy of the coordinator as
      the merged part's {e anchor}), retire parts whose only connection is
      a single [P0]-vertex (and possibly [G∖H]), run the Lemma 5.3
      symmetry breaking on the properly colored inter-part graph, star-merge
      its star groups and pairwise-merge its two-node paths, and sideline
      longer color-monotone paths for the next iteration;
    + retire all but the highest-id part among those connecting exactly the
      same two [P0]-vertices and nothing else (steps 3–5);
    + finish with the restricted path-coordinated merge: the surviving
      parts ship their compressed interfaces along [P0] (the congestion
      this causes on the path's edges is charged for real), and the whole
      subtree becomes a single part.

    Returns the id of the part covering the call's entire subtree. *)

type outcome = {
  final_part : int;
  parts_at_restricted_merge : int;
      (** how many parts survived into step 6 — experiment E6 checks this
          stays [O(D)]. *)
  retired_parts : int;
}

val run :
  Merge.t ->
  p0:int list ->
  hanging:int list ->
  subtree:int list ->
  outcome
(** [subtree] is the call's whole vertex set: [p0] and the hanging parts'
    members. Its edges to the rest of the network are the call's [G∖H]
    connections. *)
