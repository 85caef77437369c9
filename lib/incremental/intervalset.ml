(* Sets of non-negative ints as sorted, disjoint, non-adjacent [lo, hi]
   ranges in a pair of growable flat arrays.

   Edge slots are allocated densely and freed rarely relative to how often
   whole components are enumerated, so a component's edge set is a handful
   of long runs: iteration is O(cardinal) with no boxing, membership is a
   binary search over the runs, and set union (component merge) is a
   linear merge of two runs lists rather than of two element lists. *)

type t = {
  mutable lo : int array;
  mutable hi : int array;
  mutable len : int;  (* intervals in use *)
  mutable card : int;  (* covered integers *)
}

let create ?(capacity = 4) () =
  let capacity = max 1 capacity in
  { lo = Array.make capacity 0; hi = Array.make capacity 0; len = 0; card = 0 }

let cardinal t = t.card
let intervals t = List.init t.len (fun i -> (t.lo.(i), t.hi.(i)))

let iter t f =
  for i = 0 to t.len - 1 do
    for x = t.lo.(i) to t.hi.(i) do
      f x
    done
  done

(* Greatest i with lo.(i) <= x, or -1. *)
let rank t x =
  let lo = ref 0 and hi = ref (t.len - 1) and ans = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.lo.(mid) <= x then begin
      ans := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !ans

let mem t x =
  let i = rank t x in
  i >= 0 && x <= t.hi.(i)

let ensure t extra =
  let need = t.len + extra in
  if need > Array.length t.lo then begin
    let cap = max need (2 * Array.length t.lo) in
    let lo = Array.make cap 0 and hi = Array.make cap 0 in
    Array.blit t.lo 0 lo 0 t.len;
    Array.blit t.hi 0 hi 0 t.len;
    t.lo <- lo;
    t.hi <- hi
  end

(* Insert a fresh interval at index i, shifting the tail right. *)
let insert_at t i l h =
  ensure t 1;
  Array.blit t.lo i t.lo (i + 1) (t.len - i);
  Array.blit t.hi i t.hi (i + 1) (t.len - i);
  t.lo.(i) <- l;
  t.hi.(i) <- h;
  t.len <- t.len + 1

let remove_at t i =
  Array.blit t.lo (i + 1) t.lo i (t.len - i - 1);
  Array.blit t.hi (i + 1) t.hi i (t.len - i - 1);
  t.len <- t.len - 1

let add t x =
  if x < 0 then invalid_arg "Intervalset.add: negative";
  let i = rank t x in
  if i >= 0 && x <= t.hi.(i) then ()
  else begin
    let glue_left = i >= 0 && t.hi.(i) = x - 1 in
    let glue_right = i + 1 < t.len && t.lo.(i + 1) = x + 1 in
    (if glue_left && glue_right then begin
       t.hi.(i) <- t.hi.(i + 1);
       remove_at t (i + 1)
     end
     else if glue_left then t.hi.(i) <- x
     else if glue_right then t.lo.(i + 1) <- x
     else insert_at t (i + 1) x x);
    t.card <- t.card + 1
  end

let remove t x =
  let i = rank t x in
  if i < 0 || x > t.hi.(i) then ()
  else begin
    let l = t.lo.(i) and h = t.hi.(i) in
    (if l = h then remove_at t i
     else if x = l then t.lo.(i) <- l + 1
     else if x = h then t.hi.(i) <- h - 1
     else begin
       (* Split: [l, x-1] stays, [x+1, h] is inserted after it. *)
       t.hi.(i) <- x - 1;
       insert_at t (i + 1) (x + 1) h
     end);
    t.card <- t.card - 1
  end

(* Destructive union: after the call [dst] holds the union and [src] must
   no longer be used (component payloads are merged exactly once, when
   their union-find roots merge). Linear in the two interval counts. *)
let union_into ~dst ~src =
  if src.len > 0 then begin
    let la = Array.sub dst.lo 0 dst.len and ha = Array.sub dst.hi 0 dst.len in
    let alen = dst.len in
    dst.len <- 0;
    dst.card <- 0;
    ensure dst (alen + src.len);
    let i = ref 0 and j = ref 0 in
    let push l h =
      if dst.len > 0 && l <= dst.hi.(dst.len - 1) + 1 then begin
        if h > dst.hi.(dst.len - 1) then begin
          dst.card <- dst.card + (h - dst.hi.(dst.len - 1));
          dst.hi.(dst.len - 1) <- h
        end
      end
      else begin
        ensure dst 1;
        dst.lo.(dst.len) <- l;
        dst.hi.(dst.len) <- h;
        dst.len <- dst.len + 1;
        dst.card <- dst.card + (h - l + 1)
      end
    in
    while !i < alen || !j < src.len do
      if
        !j >= src.len
        || (!i < alen && la.(!i) <= src.lo.(!j))
      then begin
        push la.(!i) ha.(!i);
        incr i
      end
      else begin
        push src.lo.(!j) src.hi.(!j);
        incr j
      end
    done
  end
