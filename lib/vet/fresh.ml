module A = Nml.Ast
module Ir = Runtime.Ir
module Fix = Escape.Fixpoint
module Sh = Escape.Sharing
module Ty = Nml.Ty

(* saturating "infinite" freshness, safe under [1 + _] *)
let inf = max_int / 2
let succ_sat d = if d >= inf then inf else d + 1
let pred_sat d = if d >= inf then inf else max 0 (d - 1)

(* ---- occurrence paths ------------------------------------------------------

   The same projection-path discipline as the paper's linearity argument:
   an occurrence's path is the chain of projections immediately wrapping
   it, innermost first; a destroyed cdr/left/right-suffix conflicts with
   any later occurrence whose path is prefix-related to it.

   Occurrences come in two kinds.  A [`Struct] occurrence reads the
   whole structure reachable from its path; a [`Cell] occurrence — the
   source of a destructive site — reads exactly one cell.  Destroying
   the suffix at path [pi] leaves every cell {e above} [pi] intact, so a
   later [`Cell] read at [sigma] only conflicts when [sigma] lies inside
   the destroyed suffix ([is_prefix pi sigma]); this is what licenses
   the paper's [REV']: [rev' (cdr l)] destroys [l]'s suffix while the
   following [DCONS l ...] recycles only [l]'s own cell. *)

let occs_of watched e =
  let out = ref [] in
  let rec go watched ctx e =
    if watched = [] then ()
    else
      match e with
      | Ir.Var v -> if List.mem v watched then out := (v, ctx, `Struct) :: !out
      | Ir.App (Ir.App (Ir.App (Ir.Dcons, src), h), t) ->
          cell watched ctx src;
          go watched [] h;
          go watched [] t
      | Ir.App (Ir.App (Ir.App (Ir.App (Ir.Dnode, src), l), x), r) ->
          cell watched ctx src;
          go watched [] l;
          go watched [] x;
          go watched [] r
      | Ir.App (Ir.Prim ((A.Car | A.Cdr | A.Label | A.Left | A.Right) as p), e')
        ->
          go watched (p :: ctx) e'
      | Ir.App (f, a) ->
          go watched [] f;
          go watched [] a
      | Ir.Lam (x, b) -> go (List.filter (fun w -> w <> x) watched) [] b
      | Ir.If (c, t, f) ->
          go watched [] c;
          go watched [] t;
          go watched [] f
      | Ir.Letrec (bs, b) ->
          let watched =
            List.filter (fun w -> not (List.mem_assoc w bs)) watched
          in
          List.iter (fun (_, r) -> go watched [] r) bs;
          go watched [] b
      | Ir.WithArena (_, _, b) -> go watched ctx b
      | Ir.Const _ | Ir.Prim _ | Ir.ConsAt _ | Ir.NodeAt _ | Ir.Dcons | Ir.Dnode
        ->
          ()
  and cell watched ctx e =
    match e with
    | Ir.Var v -> if List.mem v watched then out := (v, ctx, `Cell) :: !out
    | Ir.App (Ir.Prim ((A.Car | A.Cdr | A.Label | A.Left | A.Right) as p), e')
      ->
        cell watched (p :: ctx) e'
    | e -> go watched [] e
  in
  go watched [] e;
  !out

let rec is_prefix p q =
  match (p, q) with
  | [], _ -> true
  | _, [] -> false
  | a :: p', b :: q' -> a = b && is_prefix p' q'

let overlap p q = is_prefix p q || is_prefix q p

let pairwise_disjoint paths =
  let rec check = function
    | [] -> true
    | p :: rest -> List.for_all (fun q -> not (overlap p q)) rest && check rest
  in
  check paths

(* may a let-bound [x] inherit its right-hand side's freshness in [b]? *)
let let_disjoint x b =
  pairwise_disjoint (List.map (fun (_, path, _) -> path) (occs_of [ x ] b))

let head_and_args e =
  let rec go acc = function Ir.App (f, a) -> go (a :: acc) f | h -> (h, acc) in
  go [] e

let depth ?share t ~defs env e =
  let rec go env e =
    match e with
    | Ir.App (Ir.Lam (x, b), rhs) ->
        (* the let sugar: the body's freshness, with [x] as fresh as the
           right-hand side when its occurrences cannot share it *)
        let d = if let_disjoint x b then go env rhs else 0 in
        go ((x, d) :: env) b
    | Ir.Const (A.Cnil | A.Cleaf) -> inf
    | Ir.Const _ -> 0
    | Ir.Var v -> ( match List.assoc_opt v env with Some d -> d | None -> 0)
    | Ir.If (_, th, el) -> min (go env th) (go env el)
    | Ir.WithArena (_, _, b) -> go env b
    | _ -> (
        match head_and_args e with
        (* a cons cell just built is fresh at level 1; deeper levels are
           as fresh as the head, the tail extends the same spine *)
        | (Ir.Prim A.Cons | Ir.ConsAt _), [ h; tl ] ->
            min (go env tl) (succ_sat (go env h))
        | Ir.Dcons, [ _src; h; tl ] -> min (go env tl) (succ_sat (go env h))
        | (Ir.Prim A.Node | Ir.NodeAt _), [ l; x; r ] ->
            min (min (go env l) (go env r)) (succ_sat (go env x))
        | Ir.Dnode, [ _src; l; x; r ] ->
            min (min (go env l) (go env r)) (succ_sat (go env x))
        | Ir.Prim (A.Car | A.Label), [ e' ] -> pred_sat (go env e')
        | Ir.Prim (A.Cdr | A.Left | A.Right), [ e' ] -> go env e'
        | Ir.Var h, (_ :: _ as args) -> (
            let g = Erase.base ~defs h in
            if not (List.mem g defs) then 0
            else
              match
                let inst = Fix.instance_ty t g in
                let m = List.length args in
                if Ty.arity inst <> m then 0
                else
                  let u = List.map (go env) args in
                  let t2 =
                    (Sh.result_unshared_given t g ~args_unshared:u).Sh.unshared_top
                  in
                  (* the verifier's own interprocedural sharing
                     summaries re-derive the alias-licensed clause the
                     per-level Theorem-2 arithmetic cannot: both are
                     lower bounds, so take the max *)
                  match share with
                  | None -> t2
                  | Some s ->
                      max t2
                        (Share.call_unshared s ~def:g
                           ~arg_spines:(List.map Ty.spines (Ty.arg_tys inst m))
                           ~result_spines:(Ty.spines (Ty.result_ty inst m))
                           ~args_fresh:u)
              with
              | d -> d
              | exception (Nml.Infer.Error _ | Invalid_argument _ | Not_found | Failure _)
                -> 0)
        | _ -> 0)
  in
  go env e
