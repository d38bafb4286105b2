module A = Nml.Ast
module Ir = Runtime.Ir

type point = { label : string; mutant : Ir.expr Lazy.t }

type outcome = {
  points : int;
  draws : int;
  detected : int;
  survivors : string list;
}

(* pre-order enumeration and rewriting of nodes accepted by a matcher;
   the same traversal drives both, so indices are stable *)
let collect f ir =
  let acc = ref [] in
  let rec go e =
    (match f e with Some x -> acc := x :: !acc | None -> ());
    match e with
    | Ir.App (a, b) ->
        go a;
        go b
    | Ir.Lam (_, b) -> go b
    | Ir.If (c, t, f') ->
        go c;
        go t;
        go f'
    | Ir.Letrec (bs, b) ->
        List.iter (fun (_, r) -> go r) bs;
        go b
    | Ir.WithArena (_, _, b) -> go b
    | _ -> ()
  in
  go ir;
  List.rev !acc

let rewrite_nth f n ir =
  let k = ref (-1) in
  let rec go e =
    match f e with
    | Some e' ->
        incr k;
        if !k = n then e' else descend e
    | None -> descend e
  and descend e =
    (* explicit lets: constructor arguments evaluate right-to-left in
       OCaml, which would number sites in a different order than
       [collect] *)
    match e with
    | Ir.App (a, b) ->
        let a = go a in
        let b = go b in
        Ir.App (a, b)
    | Ir.Lam (x, b) -> Ir.Lam (x, go b)
    | Ir.If (c, t, f') ->
        let c = go c in
        let t = go t in
        let f' = go f' in
        Ir.If (c, t, f')
    | Ir.Letrec (bs, b) ->
        let bs = List.map (fun (x, r) -> (x, go r)) bs in
        let b = go b in
        Ir.Letrec (bs, b)
    | Ir.WithArena (kind, i, b) -> Ir.WithArena (kind, i, go b)
    | e -> e
  in
  go ir

let arena_site = function
  | Ir.ConsAt (Ir.Arena i) -> Some (`Cons, i)
  | Ir.NodeAt (Ir.Arena i) -> Some (`Node, i)
  | _ -> None

let dsite = function
  | Ir.App (Ir.App (Ir.App (Ir.Dcons, src), _), _) -> Some (`Dcons, src)
  | Ir.App (Ir.App (Ir.App (Ir.App (Ir.Dnode, src), _), _), _) ->
      Some (`Dnode, src)
  | _ -> None

let heap_site = function
  | Ir.App (Ir.App (Ir.Prim A.Cons, _), _) -> Some `Cons
  | Ir.App (Ir.App (Ir.App (Ir.Prim A.Node, _), _), _) -> Some `Node
  | _ -> None

let split = function Ir.Letrec (ds, m) -> (ds, m) | e -> ([], e)

let leading_params e =
  let rec go acc = function
    | Ir.Lam (x, b) -> go (x :: acc) b
    | b -> (List.rev acc, b)
  in
  go [] e

let points unit ir =
  let mono_names =
    match Pipeline.mono unit with
    | m -> List.map fst m.Nml.Mono.program.Nml.Surface.defs
    | exception (Nml.Infer.Error _ | Nml.Mono.Too_many_instances) -> []
  in
  let ir_defs, main = split ir in
  let def_names = List.map fst ir_defs in
  (* 1. retarget an allocation site to an arena nobody declares *)
  let sites = collect arena_site ir in
  let declared = collect (function Ir.WithArena (_, i, _) -> Some i | _ -> None) ir in
  let fresh =
    1 + List.fold_left max 0 (declared @ List.map snd sites)
  in
  let retargets =
    List.mapi
      (fun k (_, i) ->
        {
          label =
            Printf.sprintf "retarget: arena site %d moves from arena %d to \
                            undeclared arena %d"
              k i fresh;
          mutant =
            lazy
              (rewrite_nth
                 (function
                   | Ir.ConsAt (Ir.Arena _) -> Some (Ir.ConsAt (Ir.Arena fresh))
                   | Ir.NodeAt (Ir.Arena _) -> Some (Ir.NodeAt (Ir.Arena fresh))
                   | _ -> None)
                 k ir);
        })
      sites
  in
  (* 2. unwrap a delimiter whose arena still has allocation sites *)
  let wrappers = collect (function Ir.WithArena (_, i, _) -> Some i | _ -> None) ir in
  let unwraps =
    List.concat
      (List.mapi
         (fun k i ->
           (* only ids with a single delimiter: removing one of two
              same-id delimiters can leave every site covered *)
           if
             List.exists (fun (_, j) -> j = i) sites
             && List.length (List.filter (fun j -> j = i) wrappers) = 1
           then
             [
               {
                 label =
                   Printf.sprintf
                     "unwrap: delimiter %d of arena %d is removed, its sites \
                      remain"
                     k i;
                 mutant =
                   lazy
                     (rewrite_nth
                        (function Ir.WithArena (_, _, b) -> Some b | _ -> None)
                        k ir);
               };
             ]
           else [])
         wrappers)
  in
  (* per-definition context for source flips and injections, with each
     site's global pre-order index *)
  let offsets collect_f =
    let counter = ref 0 in
    List.map
      (fun (name, rhs) ->
        let local = collect collect_f rhs in
        let start = !counter in
        counter := !counter + List.length local;
        (name, start, local))
      ir_defs
  in
  (* 3. flip a destructive source to a parameter that is never guarded *)
  let never_tested prim q rhs =
    collect
      (function
        | Ir.App (Ir.Prim p, Ir.Var v) when p = prim && String.equal v q ->
            Some ()
        | _ -> None)
      rhs
    = []
  in
  let flips =
    List.concat_map
      (fun (name, start, local) ->
        let params, _ = leading_params (List.assoc name ir_defs) in
        List.concat
          (List.mapi
             (fun k (which, src) ->
               match src with
               | Ir.Var p ->
                   let test = match which with
                     | `Dcons -> A.Null
                     | `Dnode -> A.Isleaf
                   in
                   List.filter_map
                     (fun q ->
                       if
                         String.equal q p
                         || not (never_tested test q (List.assoc name ir_defs))
                       then None
                       else
                         Some
                           {
                             label =
                               Printf.sprintf
                                 "flip: destructive site %d in %s moves from \
                                  %s to unguarded %s"
                                 k name p q;
                             mutant =
                               lazy
                                 (rewrite_nth
                                    (function
                                      | Ir.App
                                          (Ir.App (Ir.App (Ir.Dcons, _), h), t)
                                        ->
                                          Some
                                            (Ir.App
                                               ( Ir.App
                                                   ( Ir.App
                                                       (Ir.Dcons, Ir.Var q),
                                                     h ),
                                                 t ))
                                      | Ir.App
                                          ( Ir.App
                                              (Ir.App (Ir.App (Ir.Dnode, _), l), x),
                                            r ) ->
                                          Some
                                            (Ir.App
                                               ( Ir.App
                                                   ( Ir.App
                                                       ( Ir.App
                                                           ( Ir.Dnode,
                                                             Ir.Var q ),
                                                         l ),
                                                     x ),
                                                 r ))
                                      | _ -> None)
                                    (start + k) ir);
                           })
                     params
               | _ -> [])
             local))
      (offsets dsite)
  in
  (* 4. inject a destructive site where nothing licenses one *)
  let injections =
    List.concat_map
      (fun (name, start, local) ->
        let rhs = List.assoc name ir_defs in
        let params, _ = leading_params rhs in
        let claimed_srcs =
          List.filter_map
            (fun (_, s) -> match s with Ir.Var p -> Some p | _ -> None)
            (collect dsite rhs)
        in
        let src =
          match claimed_srcs with
          | p :: _ -> Some p
          | [] ->
              if
                List.mem name mono_names
                && (not (List.mem (name ^ "'") def_names))
                && params <> []
              then Some (List.hd params)
              else None
        in
        match src with
        | None -> []
        | Some p ->
            List.mapi
              (fun k which ->
                {
                  label =
                    Printf.sprintf
                      "inject: heap %s site %d in %s becomes destructive on %s"
                      (match which with `Cons -> "cons" | `Node -> "node")
                      k name p;
                  mutant =
                    lazy
                      (rewrite_nth
                         (function
                           | Ir.App (Ir.App (Ir.Prim A.Cons, h), t) ->
                               Some
                                 (Ir.App
                                    ( Ir.App
                                        (Ir.App (Ir.Dcons, Ir.Var p), h),
                                      t ))
                           | Ir.App
                               (Ir.App (Ir.App (Ir.Prim A.Node, l), x), r) ->
                               Some
                                 (Ir.App
                                    ( Ir.App
                                        ( Ir.App
                                            (Ir.App (Ir.Dnode, Ir.Var p), l),
                                          x ),
                                      r ))
                           | _ -> None)
                         (start + k) ir);
                })
              local)
      (offsets heap_site)
  in
  (* 5. redirect a call of an original definition to its destructive
     variant, at a site where the consumed argument is a projection of
     the enclosing definition's own parameter: no freshness and no
     suffix claim can license that redirection *)
  let head_and_args e =
    let rec go acc = function
      | Ir.App (f, a) -> go (a :: acc) f
      | h -> (h, acc)
    in
    go [] e
  in
  let rec param_proj params = function
    | Ir.Var v -> List.mem v params
    | Ir.App (Ir.Prim (A.Car | A.Cdr | A.Label | A.Left | A.Right), e) ->
        param_proj params e
    | _ -> false
  in
  let index_of p l =
    let rec go i = function
      | [] -> None
      | x :: tl -> if String.equal x p then Some i else go (i + 1) tl
    in
    go 0 l
  in
  let call_site g arity e =
    match head_and_args e with
    | Ir.Var h, args when String.equal h g && List.length args = arity ->
        Some args
    | _ -> None
  in
  let redirect_targets =
    List.filter_map
      (fun (g, _) ->
        if not (List.mem g mono_names) then None
        else
          match List.assoc_opt (g ^ "'") ir_defs with
          | None -> None
          | Some prhs -> (
              let pparams, _ = leading_params prhs in
              match collect dsite prhs with
              | (_, Ir.Var p) :: _ ->
                  Option.map
                    (fun ix -> (g, List.length pparams, ix))
                    (index_of p pparams)
              | _ -> None))
      ir_defs
  in
  let redirects =
    List.concat_map
      (fun (g, arity, argix) ->
        List.concat_map
          (fun (name, start, local) ->
            let rhs = List.assoc name ir_defs in
            if collect dsite rhs <> [] then []
            else
              let params, _ = leading_params rhs in
              List.concat
                (List.mapi
                   (fun k args ->
                     if param_proj params (List.nth args argix) then
                       [
                         {
                           label =
                             Printf.sprintf
                               "redirect: call %d of %s in %s goes to %s'" k g
                               name g;
                           mutant =
                             lazy
                               (rewrite_nth
                                  (fun e ->
                                    match call_site g arity e with
                                    | Some args ->
                                        Some
                                          (List.fold_left
                                             (fun f a -> Ir.App (f, a))
                                             (Ir.Var (g ^ "'"))
                                             args)
                                    | None -> None)
                                  (start + k) ir);
                         };
                       ]
                     else [])
                   local))
          (offsets (call_site g arity)))
      redirect_targets
  in
  (* 6. redirect a call in the main expression to its destructive
     variant where the consumed argument is (a suffix of) a let-bound
     spine whose occurrences in the let's body overlap — directly, or
     through the let sugar inside the argument: the consumed cells are
     shared *)
  let rec shared_spine shared e =
    match e with
    | Ir.Var v -> List.assoc_opt v shared = Some true
    | Ir.App (Ir.Prim (A.Cdr | A.Left | A.Right), e') -> shared_spine shared e'
    | Ir.App (Ir.Lam (v, b), rhs) -> shared_spine (bind_let shared v b rhs) b
    | _ -> false
  and bind_let shared x b rhs =
    (x, (not (Fresh.let_disjoint x b)) || shared_spine shared rhs) :: shared
  in
  (* the qualifying call sites of [g] in [main], as physical nodes *)
  let shared_sites (g, arity, argix) =
    let acc = ref [] in
    let rec go shared e =
      (match call_site g arity e with
      | Some args when shared_spine shared (List.nth args argix) -> acc := e :: !acc
      | _ -> ());
      match e with
      | Ir.App (Ir.Lam (x, b), rhs) ->
          go shared rhs;
          go (bind_let shared x b rhs) b
      | Ir.App (f, a) ->
          go shared f;
          go shared a
      | Ir.Lam (x, b) -> go ((x, false) :: shared) b
      | Ir.If (c, t, f) -> List.iter (go shared) [ c; t; f ]
      | Ir.Letrec (bs, b) ->
          let shared = List.map (fun (x, _) -> (x, false)) bs @ shared in
          List.iter (fun (_, r) -> go shared r) bs;
          go shared b
      | Ir.WithArena (_, _, b) -> go shared b
      | _ -> ()
    in
    go [] main;
    !acc
  in
  let main_redirects =
    List.concat_map
      (fun ((g, arity, _) as target) ->
        let sites = shared_sites target in
        let redirect e =
          if List.memq e sites then
            Option.map
              (List.fold_left (fun f a -> Ir.App (f, a)) (Ir.Var (g ^ "'")))
              (call_site g arity e)
          else None
        in
        List.mapi
          (fun k _ ->
            {
              label =
                Printf.sprintf
                  "redirect: call %d of %s on a shared let spine in the main \
                   expression goes to %s'"
                  k g g;
              mutant = lazy (rewrite_nth redirect k ir);
            })
          (collect redirect ir))
      redirect_targets
  in
  retargets @ unwraps @ flips @ injections @ redirects @ main_redirects

let campaign ?(seed = 0) ~count unit ir =
  let pts = points unit ir in
  if pts = [] then { points = 0; draws = 0; detected = 0; survivors = [] }
  else begin
    let rng = Random.State.make [| seed |] in
    let detected = ref 0 and survivors = ref [] in
    for _ = 1 to count do
      let p = List.nth pts (Random.State.int rng (List.length pts)) in
      let ds, _ = Verify.audit_unit unit (Lazy.force p.mutant) in
      if Nml.Diagnostic.has_errors ds then incr detected
      else if not (List.mem p.label !survivors) then
        survivors := p.label :: !survivors
    done;
    {
      points = List.length pts;
      draws = count;
      detected = !detected;
      survivors = List.rev !survivors;
    }
  end
