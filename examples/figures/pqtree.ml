type 'a t = Leaf of 'a | Q of 'a t list | P of 'a t list

let rec leaves = function
  | Leaf a -> [ a ]
  | Q cs | P cs -> List.concat_map leaves cs

let rec size = function
  | Leaf _ -> 1
  | Q cs | P cs -> 1 + List.fold_left (fun acc c -> acc + size c) 0 cs

(* The mirror image of a partial embedding: every nested orientation flips,
   so the whole leaf sequence reverses. *)
let rec mirror = function
  | Leaf a -> Leaf a
  | Q cs -> Q (List.rev_map mirror cs)
  | P cs -> P (List.rev_map mirror cs)

let rec replace_at t path f =
  match path with
  | [] -> f t
  | i :: rest -> (
      let sub cs =
        if i < 0 || i >= List.length cs then
          invalid_arg "Pqtree: invalid path"
        else
          List.mapi (fun j c -> if j = i then replace_at c rest f else c) cs
      in
      match t with
      | Leaf _ -> invalid_arg "Pqtree: path descends into a leaf"
      | Q cs -> Q (sub cs)
      | P cs -> P (sub cs))

let flip t ~path =
  replace_at t path (function
    | Q _ as node -> mirror node
    | Leaf _ | P _ -> invalid_arg "Pqtree.flip: not a Q node")

let permute t ~path ~perm =
  replace_at t path (function
    | P cs ->
        let k = List.length cs in
        if Array.length perm <> k then invalid_arg "Pqtree.permute: bad size";
        let seen = Array.make k false in
        Array.iter
          (fun i ->
            if i < 0 || i >= k || seen.(i) then
              invalid_arg "Pqtree.permute: not a permutation";
            seen.(i) <- true)
          perm;
        let arr = Array.of_list cs in
        P (Array.to_list (Array.map (fun i -> arr.(i)) perm))
    | Leaf _ | Q _ -> invalid_arg "Pqtree.permute: not a P node")

let permutations l =
  (* Index-based so that structurally equal children stay distinct. *)
  let arr = Array.of_list l in
  let n = Array.length arr in
  let rec go remaining =
    if remaining = [] then [ [] ]
    else
      List.concat_map
        (fun i ->
          let rest = List.filter (fun j -> j <> i) remaining in
          List.map (fun p -> i :: p) (go rest))
        remaining
  in
  List.map (List.map (fun i -> arr.(i))) (go (List.init n (fun i -> i)))

let rec orders t =
  match t with
  | Leaf a -> [ [ a ] ]
  | Q cs ->
      let pick = product (List.map orders cs) in
      let forward = List.map List.concat pick in
      let backward = List.map List.rev forward in
      forward @ backward
  | P cs ->
      List.concat_map
        (fun perm -> List.map List.concat (product (List.map orders perm)))
        (permutations cs)

and product = function
  | [] -> [ [] ]
  | choices :: rest ->
      let tails = product rest in
      List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices

let enumerate_orders t = List.sort_uniq compare (orders t)
let count_orders t = List.length (enumerate_orders t)

let rec compress classify t =
  match t with
  | Leaf a -> Leaf (classify a, 1)
  | Q cs -> normalize (Q (merge_runs (List.map (compress classify) cs)))
  | P cs ->
      let cs = List.map (compress classify) cs in
      let leaves_, others =
        List.partition (function Leaf _ -> true | Q _ | P _ -> false) cs
      in
      (* Order around a P node is free, so same-class leaves merge
         unconditionally. *)
      let tally = Hashtbl.create 8 in
      let order = ref [] in
      List.iter
        (function
          | Leaf (c, k) ->
              if not (Hashtbl.mem tally c) then order := c :: !order;
              Hashtbl.replace tally c
                (k + try Hashtbl.find tally c with Not_found -> 0)
          | Q _ | P _ -> assert false)
        leaves_;
      let merged =
        List.rev_map (fun c -> Leaf (c, Hashtbl.find tally c)) !order
      in
      normalize (P (merged @ others))

and merge_runs cs =
  match cs with
  | Leaf (c1, k1) :: Leaf (c2, k2) :: rest when c1 = c2 ->
      merge_runs (Leaf (c1, k1 + k2) :: rest)
  | c :: rest -> c :: merge_runs rest
  | [] -> []

and normalize = function
  | Q [ c ] | P [ c ] -> c
  | t -> t

let rec bits ~leaf_bits = function
  | Leaf a -> 2 + leaf_bits a
  | Q cs | P cs ->
      List.fold_left (fun acc c -> acc + bits ~leaf_bits c) 2 cs

let rec pp pp_leaf ppf = function
  | Leaf a -> Format.fprintf ppf "%a" pp_leaf a
  | Q cs ->
      Format.fprintf ppf "@[<hov 1>[%a]@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space (pp pp_leaf))
        cs
  | P cs ->
      Format.fprintf ppf "@[<hov 1>(%a)@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space (pp pp_leaf))
        cs
