type t =
  | Int
  | Bool
  | List of t
  | Tree of t
  | Prod of t * t
  | Arrow of t * t
  | Var of var ref

and var = Unbound of int * int | Link of t

(* Atomic so that programs inferred concurrently in different domains
   (the batch driver) never mint duplicate variable ids: a torn
   read-modify-write on a plain ref could hand the same id to two
   variables of one program, conflating them under generalization. *)
let counter = Atomic.make 0
let fresh_var ~level = Var (ref (Unbound (Atomic.fetch_and_add counter 1 + 1, level)))

let rec repr t =
  match t with
  | Var ({ contents = Link u } as r) ->
      let v = repr u in
      r := Link v;
      v
  | _ -> t

let rec spines t =
  match repr t with List elt | Tree elt -> 1 + spines elt | _ -> 0

let rec max_list_depth t =
  match repr t with
  | Int | Bool | Var _ -> 0
  | (List elt | Tree elt) as l -> max (spines l) (max_list_depth elt)
  | Prod (a, b) | Arrow (a, b) -> max (max_list_depth a) (max_list_depth b)

let owns_cells t =
  match repr t with
  | Int | Bool -> false
  | List _ | Tree _ | Prod _ | Arrow _ | Var _ -> true

let rec arity t =
  match repr t with
  | Arrow (_, b) -> 1 + arity b
  | List elt | Tree elt -> arity elt
  | Int | Bool | Prod _ | Var _ -> 0

type shape = Sbase | Sarrow of t * t | Sprod of t * t

let rec shape t =
  match repr t with
  | Int | Bool | Var _ -> Sbase
  | List elt | Tree elt -> shape elt
  | Prod (a, b) -> Sprod (a, b)
  | Arrow (a, b) -> Sarrow (a, b)

let rec result_ty t n =
  if n = 0 then repr t
  else
    match repr t with
    | Arrow (_, b) -> result_ty b (n - 1)
    | other ->
        invalid_arg
          (Printf.sprintf "Ty.result_ty: %d more arguments requested of a non-arrow (%s)" n
             (match other with
             | Int -> "int"
             | Bool -> "bool"
             | List _ -> "list"
             | Tree _ -> "tree"
             | Prod _ -> "pair"
             | Var _ -> "tyvar"
             | Arrow _ -> assert false))

let rec arg_tys t n =
  if n = 0 then []
  else
    match repr t with
    | Arrow (a, b) -> a :: arg_tys b (n - 1)
    | _ -> invalid_arg "Ty.arg_tys: not enough arrows"

let rec equal a b =
  match (repr a, repr b) with
  | Int, Int | Bool, Bool -> true
  | List x, List y | Tree x, Tree y -> equal x y
  | Prod (a1, b1), Prod (a2, b2) | Arrow (a1, b1), Arrow (a2, b2) ->
      equal a1 a2 && equal b1 b2
  | Var r1, Var r2 -> r1 == r2
  | (Int | Bool | List _ | Tree _ | Prod _ | Arrow _ | Var _), _ -> false

(* Consistent with [equal]: equal types hash alike.  Variables all hash
   to one bucket ([equal] tells them apart by identity). *)
let rec hash t =
  match repr t with
  | Int -> 1
  | Bool -> 2
  | Var _ -> 3
  | List e -> (5 * hash e) + 4
  | Tree e -> (5 * hash e) + 5
  | Prod (a, b) -> (31 * hash a) + (7 * hash b) + 6
  | Arrow (a, b) -> (31 * hash a) + (7 * hash b) + 7

let rec contains_var t =
  match repr t with
  | Int | Bool -> false
  | Var _ -> true
  | List e | Tree e -> contains_var e
  | Prod (a, b) | Arrow (a, b) -> contains_var a || contains_var b

let pp ppf t =
  let names = Hashtbl.create 8 in
  let next = ref 0 in
  let name_of id =
    match Hashtbl.find_opt names id with
    | Some n -> n
    | None ->
        let n =
          if !next < 26 then Printf.sprintf "'%c" (Char.chr (Char.code 'a' + !next))
          else Printf.sprintf "'t%d" !next
        in
        incr next;
        Hashtbl.add names id n;
        n
  in
  (* precedence: 0 arrow, 1 product, 2 list argument / atom *)
  let rec go prec ppf t =
    match repr t with
    | Int -> Format.pp_print_string ppf "int"
    | Bool -> Format.pp_print_string ppf "bool"
    | Var { contents = Unbound (id, _) } -> Format.pp_print_string ppf (name_of id)
    | Var { contents = Link _ } -> assert false
    | List elt ->
        if prec > 2 then Format.fprintf ppf "(%a list)" (go 2) elt
        else Format.fprintf ppf "%a list" (go 2) elt
    | Tree elt ->
        if prec > 2 then Format.fprintf ppf "(%a tree)" (go 2) elt
        else Format.fprintf ppf "%a tree" (go 2) elt
    | Prod (a, b) ->
        if prec > 1 then Format.fprintf ppf "(%a * %a)" (go 2) a (go 2) b
        else Format.fprintf ppf "%a * %a" (go 2) a (go 2) b
    | Arrow (a, b) ->
        if prec > 0 then Format.fprintf ppf "(%a -> %a)" (go 1) a (go 0) b
        else Format.fprintf ppf "%a -> %a" (go 1) a (go 0) b
  in
  go 0 ppf t

let to_string t = Format.asprintf "%a" pp t
