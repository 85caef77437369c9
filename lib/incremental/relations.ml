(* Union-find with relations: a disjoint-set forest over a growable
   universe where every root carries a payload ("relation") that is
   combined by a user merge function exactly when two sets join.

   The incremental maintainer keeps one node per biconnected component;
   the payload is the component's interval edge-set plus churn counters.
   Components are born (fresh), merged (insertions create cycles), and
   abandoned (scoped re-decompositions replace a stale root with fresh
   exact ones) — the universe only ever grows, which is what keeps every
   operation amortized near-constant: splitting is never needed because
   the maintainer re-scopes instead. *)

(* A set has a name, the node id [find] returns and callers key on, and
   a physical root, where the forest's paths end. The two coincide until
   [hang] folds a set into a fresh record: the record's node takes over
   the name, while the forest links the two trees by its own rank, so
   the fresh node goes under the old root and the nodes that pointed at
   the old root still reach the set in one read. The names, and the
   ranks [union] picks a surviving name by, are exactly those of a plain
   union-by-rank forest over the names. A physical root keeps its set's
   name in its parent entry, complemented ([lnot name] < 0), and the
   payload in its own; so resolving a node that points at its root reads
   one entry, as in a plain forest. *)
type 'a t = {
  mutable parent : int array;  (* parent node, or [lnot name] at a root *)
  mutable prank : int array;  (* rank of a physical root *)
  mutable rank : int array;  (* per name: the rank naming is decided by *)
  mutable payload : 'a option array;  (* Some at the physical roots *)
  mutable len : int;
  merge : 'a -> 'a -> 'a;  (* winner's payload first; result kept at root *)
}

let create ?(capacity = 16) ~merge () =
  let capacity = max 1 capacity in
  {
    parent = Array.make capacity (-1);
    prank = Array.make capacity 0;
    rank = Array.make capacity 0;
    payload = Array.make capacity None;
    len = 0;
    merge;
  }

let length t = t.len

let ensure t =
  if t.len >= Array.length t.parent then begin
    let cap = 2 * Array.length t.parent in
    let grow a x =
      let b = Array.make cap x in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.parent <- grow t.parent (-1);
    t.prank <- grow t.prank 0;
    t.rank <- grow t.rank 0;
    t.payload <- grow t.payload None
  end

let fresh t p =
  ensure t;
  let i = t.len in
  t.parent.(i) <- lnot i;
  t.prank.(i) <- 0;
  t.rank.(i) <- 0;
  t.payload.(i) <- Some p;
  t.len <- i + 1;
  i

(* The physical root of [x], with path compression; the common cases,
   [x] a root or its child, are tested first, without a loop or a write. *)
let compress parent x =
  let r = ref x in
  while parent.(!r) >= 0 do
    r := parent.(!r)
  done;
  let r = !r in
  let y = ref x in
  while !y <> r do
    let p = parent.(!y) in
    parent.(!y) <- r;
    y := p
  done;
  r

let root t x =
  let parent = t.parent in
  let p = parent.(x) in
  if p < 0 then x else if parent.(p) < 0 then p else compress parent x

let find t x = lnot t.parent.(root t x)
let same t x y = root t x = root t y

let get t x =
  match t.payload.(root t x) with
  | Some p -> p
  | None -> assert false (* payload is maintained at every root *)

let set t x p = t.payload.(root t x) <- Some p

(* Link the physical roots [a] and [b] by rank: the merged set is named
   [nm] and carries [p]. *)
let link t a b nm p =
  let r, l =
    if t.prank.(a) < t.prank.(b) then (b, a)
    else begin
      if t.prank.(a) = t.prank.(b) then t.prank.(a) <- t.prank.(a) + 1;
      (a, b)
    end
  in
  t.parent.(l) <- r;
  t.payload.(l) <- None;
  t.parent.(r) <- lnot nm;
  t.payload.(r) <- p

let union t x y =
  let px = root t x and py = root t y in
  if px = py then lnot t.parent.(px)
  else begin
    let rx = lnot t.parent.(px) and ry = lnot t.parent.(py) in
    let (rx, px), (ry, py) =
      if t.rank.(rx) < t.rank.(ry) then ((ry, py), (rx, px))
      else ((rx, px), (ry, py))
    in
    if t.rank.(rx) = t.rank.(ry) then t.rank.(rx) <- t.rank.(rx) + 1;
    let p =
      match (t.payload.(px), t.payload.(py)) with
      | Some a, Some b -> Some (t.merge a b)
      | _ -> assert false
    in
    link t px py rx p;
    rx
  end

(* Fold a set into a root whose payload already covers it: no payload
   merge and no rank update, so the names afterwards are what they would
   be had the folded root been abandoned instead. *)
let hang t x ~root:r =
  let px = root t x and pr = root t r in
  if px <> pr then link t px pr r t.payload.(pr)

(* Abandon a root: its payload is dropped so stale component records can
   be garbage collected after a scoped re-decomposition replaced them.
   The node keeps resolving (to itself) but must not be referenced by any
   live slot afterwards — the maintainer rewrites slot -> node links in
   the same pass. *)
let abandon t x = t.payload.(root t x) <- None
