module A = Nml.Ast
module Ir = Runtime.Ir
module D = Nml.Diagnostic
module An = Escape.Analysis
module Fix = Escape.Fixpoint
module IS = Set.Make (Int)

type summary = { audited : int; findings : int }

let split = function Ir.Letrec (ds, m) -> (ds, m) | e -> ([], e)

let rec suffix_of p e =
  match e with
  | Ir.Var v when String.equal v p -> Some []
  | Ir.App (Ir.Prim ((A.Cdr | A.Left | A.Right) as s), e') ->
      Option.map (fun path -> path @ [ s ]) (suffix_of p e')
  | _ -> None

(* ---- free and under-lambda occurrences ------------------------------------- *)

let rec occurs_free p e =
  match e with
  | Ir.Var x -> String.equal x p
  | Ir.Lam (x, b) -> x <> p && occurs_free p b
  | Ir.App (f, a) -> occurs_free p f || occurs_free p a
  | Ir.If (c, t, f) -> occurs_free p c || occurs_free p t || occurs_free p f
  | Ir.Letrec (bs, b) ->
      if List.exists (fun (x, _) -> String.equal x p) bs then false
      else List.exists (fun (_, r) -> occurs_free p r) bs || occurs_free p b
  | Ir.WithArena (_, _, b) -> occurs_free p b
  | _ -> false

(* the let sugar [App (Lam (x, b), rhs)] is not a real lambda *)
let rec under_lambda p e =
  match e with
  | Ir.App (Ir.Lam (x, b), a) ->
      (x <> p && under_lambda p b) || under_lambda p a
  | Ir.Lam (x, b) -> x <> p && occurs_free p b
  | Ir.App (f, a) -> under_lambda p f || under_lambda p a
  | Ir.If (c, t, f) -> under_lambda p c || under_lambda p t || under_lambda p f
  | Ir.Letrec (bs, b) ->
      if List.exists (fun (x, _) -> String.equal x p) bs then false
      else List.exists (fun (_, r) -> under_lambda p r) bs || under_lambda p b
  | Ir.WithArena (_, _, b) -> under_lambda p b
  | _ -> false

(* ---- arena needs -----------------------------------------------------------

   [needs g] is the set of arena ids that must be open around any call of
   [g]: ids targeted by allocation sites in [g]'s body that no local
   delimiter covers, plus — transitively — the undischarged needs of the
   definitions [g] references. *)

let compute_needs def_names ir_defs =
  let info =
    List.map
      (fun (name, rhs) ->
        let own = ref IS.empty and refs = ref [] in
        let rec go bound opened e =
          match e with
          | Ir.ConsAt (Ir.Arena i) | Ir.NodeAt (Ir.Arena i) ->
              if not (IS.mem i opened) then own := IS.add i !own
          | Ir.Var x ->
              if (not (List.mem x bound)) && List.mem x def_names then
                refs := (x, opened) :: !refs
          | Ir.App (f, a) ->
              go bound opened f;
              go bound opened a
          | Ir.Lam (x, b) -> go (x :: bound) opened b
          | Ir.If (c, t, f) ->
              go bound opened c;
              go bound opened t;
              go bound opened f
          | Ir.Letrec (bs, b) ->
              let bound = List.map fst bs @ bound in
              List.iter (fun (_, r) -> go bound opened r) bs;
              go bound opened b
          | Ir.WithArena (_, i, b) -> go bound (IS.add i opened) b
          | Ir.Const _ | Ir.Prim _ | Ir.ConsAt _ | Ir.NodeAt _ | Ir.Dcons
          | Ir.Dnode ->
              ()
        in
        go [] IS.empty rhs;
        (name, !own, !refs))
      ir_defs
  in
  let needs = Hashtbl.create 16 in
  List.iter (fun (n, own, _) -> Hashtbl.replace needs n own) info;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (n, own, refs) ->
        let cur = Hashtbl.find needs n in
        let nxt =
          List.fold_left
            (fun acc (g, opened) ->
              match Hashtbl.find_opt needs g with
              | Some ng -> IS.union acc (IS.diff ng opened)
              | None -> acc)
            own refs
        in
        if not (IS.equal cur nxt) then begin
          Hashtbl.replace needs n nxt;
          changed := true
        end)
      info
  done;
  needs

(* ---- source locations (presentation only) ---------------------------------- *)

let orig_of instances n =
  match List.find_opt (fun (_, spec, _) -> String.equal spec n) instances with
  | Some (orig, _, _) -> orig
  | None -> n

let find_def_rhs (source : Nml.Surface.t) orig =
  List.assoc_opt orig source.Nml.Surface.defs

let param_binder_loc (source : Nml.Surface.t) orig i =
  match find_def_rhs source orig with
  | None -> A.loc source.Nml.Surface.main
  | Some rhs ->
      let rec walk j = function
        | A.Lam (l, _, b) -> if j = i then l else walk (j + 1) b
        | e -> A.loc e
      in
      walk 1 rhs

let rec find_call f e =
  match e with
  | A.App _ ->
      let rec head = function A.App (_, g, _) -> head g | h -> h in
      let rec parts = function A.App (_, g, a) -> a :: parts g | _ -> [] in
      (match head e with
      | A.Var (_, g) when String.equal g f -> Some (A.loc e)
      | _ -> List.find_map (find_call f) (List.rev (parts e)))
  | A.Lam (_, _, b) -> find_call f b
  | A.If (_, c, t, e') -> List.find_map (find_call f) [ c; t; e' ]
  | A.Letrec (_, bs, b) -> List.find_map (find_call f) (List.map snd bs @ [ b ])
  | _ -> None

(* ---- the verifier ---------------------------------------------------------- *)

type ctx = {
  t : Fix.t;
  share : Share.t;
  mono_names : string list;
  ir_defs : (string * Ir.expr) list;
  def_names : string list;
  destructive : (string * Claims.reuse_claim list) list;
  needs : (string, IS.t) Hashtbl.t;
  add : D.t -> unit;
  calls : int ref;
  loc_of_def : string -> Nml.Loc.t;
  claim_loc : Claims.reuse_claim -> Nml.Loc.t;
  call_loc : owner:string option -> string -> Nml.Loc.t;
}

type frame = {
  owner : string option;
  claimed : Claims.reuse_claim list;
  bound : string list;  (** every local binder, leading parameters included *)
  shadow : string list;  (** binders introduced after the leading parameters *)
  env : (string * int) list;  (** freshness of let-bound variables *)
  cells : string list;  (** parameters known non-nil (else of [null p]) *)
  nodes : string list;  (** parameters known non-leaf (else of [isleaf p]) *)
  under : bool;  (** inside a real lambda *)
  opened : IS.t;  (** arena ids open here *)
}

let frame_name fr =
  match fr.owner with Some n -> n | None -> "the main expression"

let watched fr =
  List.filter_map
    (fun (c : Claims.reuse_claim) ->
      if List.mem c.param fr.shadow then None else Some c.param)
    fr.claimed

let occs fr e = Fresh.occs_of (watched fr) e

let bind fr x =
  {
    fr with
    bound = x :: fr.bound;
    shadow = x :: fr.shadow;
    env = List.remove_assoc x fr.env;
    cells = List.filter (fun q -> q <> x) fr.cells;
    nodes = List.filter (fun q -> q <> x) fr.nodes;
  }

let claimed_param fr p =
  List.exists (fun (c : Claims.reuse_claim) -> String.equal c.param p) fr.claimed
  && not (List.mem p fr.shadow)

(* condition of an [If]: refine the guard sets for the two branches *)
let guards fr c =
  match c with
  | Ir.App (Ir.Prim A.Null, Ir.Var p) when claimed_param fr p ->
      ( { fr with cells = List.filter (fun q -> q <> p) fr.cells },
        { fr with cells = p :: fr.cells } )
  | Ir.App (Ir.Prim A.Isleaf, Ir.Var p) when claimed_param fr p ->
      ( { fr with nodes = List.filter (fun q -> q <> p) fr.nodes },
        { fr with nodes = p :: fr.nodes } )
  | _ -> (fr, fr)

let fresh_of ctx fr e =
  Fresh.depth ~share:ctx.share ctx.t ~defs:ctx.mono_names fr.env e

(* a reference to a definition whose body allocates into arenas that are
   not open here (checked at the main level only: inside a definition the
   undischarged needs are part of that definition's own needs) *)
let ref_check ctx fr x =
  if fr.owner = None && not (List.mem x fr.bound) then
    match Hashtbl.find_opt ctx.needs x with
    | Some need when not (IS.subset need fr.opened) ->
        let missing = IS.min_elt (IS.diff need fr.opened) in
        ctx.add
          (D.errorf ~code:"VET001"
             (ctx.call_loc ~owner:fr.owner x)
             "the call of %s allocates into arena %d, which is not open here" x
             missing)
    | _ -> ()

(* the destroy events of a call of a destructive definition *)
let destructive_call ctx fr g args ~after =
  match List.assoc_opt g ctx.destructive with
  | _ when List.mem g fr.bound -> ()
  | None -> ()
  | Some cls ->
      List.iter
        (fun (c : Claims.reuse_claim) ->
          incr ctx.calls;
          let loc = ctx.call_loc ~owner:fr.owner g in
          if List.length args < c.arg then
            ctx.add
              (D.errorf ~code:"VET015" loc
                 "partial application of destructive %s in %s hides its \
                  consumed argument %d"
                 g (frame_name fr) c.arg)
          else
            let a = List.nth args (c.arg - 1) in
            let own_suffix =
              List.find_map
                (fun (oc : Claims.reuse_claim) ->
                  if List.mem oc.param fr.shadow then None
                  else
                    Option.map
                      (fun pi -> (oc.param, pi))
                      (suffix_of oc.param a))
                fr.claimed
            in
            match own_suffix with
            | Some (p, pi) ->
                if
                  List.exists
                    (fun (v, path, kind) ->
                      String.equal v p
                      &&
                      match kind with
                      | `Struct -> Fresh.overlap pi path
                      | `Cell -> Fresh.is_prefix pi path)
                    after
                then
                  ctx.add
                    (D.errorf ~code:"VET012" loc
                       "the suffix of %s consumed by %s is read again later \
                        in %s"
                       p g (frame_name fr))
            | None ->
                if fresh_of ctx fr a < 1 then
                  ctx.add
                    (D.errorf ~code:"VET015" loc
                       "argument %d of destructive %s in %s is not provably \
                        fresh and unshared"
                       c.arg g (frame_name fr)))
        cls

(* a saturated destructive site recycling a claimed parameter *)
let destructive_site ctx fr ~tree ~src ~args ~after =
  match src with
  | Ir.Var p when claimed_param fr p ->
      let c =
        List.find
          (fun (c : Claims.reuse_claim) -> String.equal c.param p)
          fr.claimed
      in
      let loc = ctx.claim_loc c in
      let prim = if tree then "dnode" else "dcons" in
      if fr.under then
        ctx.add
          (D.errorf ~code:"VET012" loc
             "the %s site recycling %s in %s is under a lambda" prim p
             (frame_name fr));
      let guarded = if tree then List.mem p fr.nodes else List.mem p fr.cells in
      if not guarded then
        ctx.add
          (D.errorf ~code:"VET011" loc
             "the %s site recycling %s in %s is not %s-guarded" prim p
             (frame_name fr)
             (if tree then "leaf" else "nil"));
      if
        List.exists
          (fun (v, path, _) -> String.equal v p && path = [])
          (List.concat_map (occs fr) args)
      then
        ctx.add
          (D.errorf ~code:"VET013" loc
             "the recycled cell of %s leaks into the arguments of its own %s \
              in %s"
             p prim (frame_name fr));
      if List.exists (fun (v, _, _) -> String.equal v p) after then
        ctx.add
          (D.errorf ~code:"VET012" loc
             "%s is read after its cell is recycled in %s" p (frame_name fr))
  | _ -> () (* VET010, reported at extraction *)

let rec walk ctx fr e ~after =
  match e with
  | Ir.Const _ | Ir.Prim _ | Ir.Dcons | Ir.Dnode -> ()
  | Ir.ConsAt a | Ir.NodeAt a -> site_check ctx fr a
  | Ir.Var x -> (
      ref_check ctx fr x;
      match List.assoc_opt x ctx.destructive with
      | Some _ when not (List.mem x fr.bound) ->
          ctx.add
            (D.errorf ~code:"VET015"
               (ctx.call_loc ~owner:fr.owner x)
               "destructive %s is used as a value in %s (its call sites \
                cannot be audited)"
               x (frame_name fr))
      | _ -> ())
  | Ir.Lam (x, b) -> walk ctx { (bind fr x) with under = true } b ~after
  | Ir.If (c, t, f) ->
      walk ctx fr c ~after:(occs fr t @ occs fr f @ after);
      let ft, ff = guards fr c in
      walk ctx ft t ~after;
      walk ctx ff f ~after
  | Ir.Letrec (bs, body) ->
      let fr = List.fold_left bind fr (List.map fst bs) in
      let rec rhss = function
        | [] -> ()
        | (_, r) :: rest ->
            walk ctx fr r
              ~after:
                (List.concat_map (fun (_, r') -> occs fr r') rest
                @ occs fr body @ after);
            rhss rest
      in
      rhss bs;
      walk ctx fr body ~after
  | Ir.WithArena (_, id, b) ->
      if IS.mem id fr.opened then
        ctx.add
          (D.errorf ~code:"VET005" (ctx.loc_of_def (frame_name fr))
             "arena %d is opened again in %s while already open" id
             (frame_name fr));
      walk ctx { fr with opened = IS.add id fr.opened } b ~after
  | Ir.App (Ir.Lam (x, b), rhs) ->
      (* let sugar: rhs first, then the body with x bound *)
      walk ctx fr rhs ~after:(occs fr (Ir.Lam (x, b)) @ after);
      let d = if Fresh.let_disjoint x b then fresh_of ctx fr rhs else 0 in
      let frb = bind fr x in
      walk ctx { frb with env = (x, d) :: frb.env } b ~after
  | Ir.App _ -> (
      let head, args = Claims.head_and_args e in
      let rec seq = function
        | [] -> ()
        | a :: rest ->
            walk ctx fr a ~after:(List.concat_map (occs fr) rest @ after);
            rhs_tail rest
      and rhs_tail rest = seq rest in
      match (head, args) with
      | Ir.Dcons, [ src; h; t ] ->
          seq [ src; h; t ];
          destructive_site ctx fr ~tree:false ~src ~args:[ h; t ] ~after
      | Ir.Dnode, [ src; l; x; r ] ->
          seq [ src; l; x; r ];
          destructive_site ctx fr ~tree:true ~src ~args:[ l; x; r ] ~after
      | (Ir.Dcons | Ir.Dnode), _ -> seq args (* VET017 at extraction *)
      | (Ir.ConsAt a | Ir.NodeAt a), _ ->
          site_check ctx fr a;
          seq args
      | Ir.Var g, _ when not (List.mem g fr.bound) ->
          ref_check ctx fr g;
          seq args;
          destructive_call ctx fr g args ~after
      | _ ->
          walk ctx fr head ~after:(List.concat_map (occs fr) args @ after);
          seq args)

(* a direct allocation site: inside a definition an uncovered site only
   contributes to the definition's needs; at the main level it must be
   covered lexically *)
and site_check ctx fr a =
  match a with
  | Ir.Arena i when fr.owner = None && not (IS.mem i fr.opened) ->
      ctx.add
        (D.errorf ~code:"VET001" (ctx.loc_of_def (frame_name fr))
           "an allocation in %s targets arena %d, which is not open here"
           (frame_name fr) i)
  | _ -> ()

(* ---- arena obligations ------------------------------------------------------ *)

(* spine levels (1 = top) at which [arg] allocates into arena [id];
   [opaque] when a site sits somewhere the level cannot be derived *)
let site_levels id arg =
  let levels = ref [] and opaque = ref false in
  let rec contains e =
    match e with
    | Ir.ConsAt (Ir.Arena i) | Ir.NodeAt (Ir.Arena i) -> i = id
    | Ir.App (f, a) -> contains f || contains a
    | Ir.Lam (_, b) | Ir.WithArena (_, _, b) -> contains b
    | Ir.If (c, t, f) -> contains c || contains t || contains f
    | Ir.Letrec (bs, b) -> List.exists (fun (_, r) -> contains r) bs || contains b
    | _ -> false
  in
  let rec go lvl e =
    match e with
    | Ir.App (Ir.App (Ir.ConsAt a, h), t) ->
        if a = Ir.Arena id then levels := lvl :: !levels;
        go (lvl + 1) h;
        go lvl t
    | Ir.App (Ir.App (Ir.App (Ir.NodeAt a, l), x), r) ->
        if a = Ir.Arena id then levels := lvl :: !levels;
        go lvl l;
        go (lvl + 1) x;
        go lvl r
    | Ir.App (Ir.App (Ir.Prim A.Cons, h), t) ->
        go (lvl + 1) h;
        go lvl t
    | Ir.App (Ir.App (Ir.App (Ir.Prim A.Node, l), x), r) ->
        go lvl l;
        go (lvl + 1) x;
        go lvl r
    | Ir.If (c, t, f) ->
        if contains c then opaque := true;
        go lvl t;
        go lvl f
    | Ir.App (Ir.Lam (_, b), rhs) ->
        if contains rhs then opaque := true;
        go lvl b
    | Ir.WithArena (_, _, b) -> go lvl b
    | Ir.ConsAt a | Ir.NodeAt a ->
        if a = Ir.Arena id then opaque := true (* unsaturated site *)
    | Ir.Const _ | Ir.Prim _ | Ir.Var _ | Ir.Dcons | Ir.Dnode -> ()
    | e -> if contains e then opaque := true
  in
  go 1 arg;
  (List.sort_uniq compare !levels, !opaque)

(* free references in [arg] to definitions that allocate into [id] *)
let producer_refs ctx id arg =
  let out = ref [] in
  let rec go bound e =
    match e with
    | Ir.Var g ->
        if
          (not (List.mem g bound))
          && List.mem g ctx.def_names
          &&
          match Hashtbl.find_opt ctx.needs g with
          | Some n -> IS.mem id n
          | None -> false
        then out := g :: !out
    | Ir.App (f, a) ->
        go bound f;
        go bound a
    | Ir.Lam (x, b) -> go (x :: bound) b
    | Ir.If (c, t, f) ->
        go bound c;
        go bound t;
        go bound f
    | Ir.Letrec (bs, b) ->
        let bound = List.map fst bs @ bound in
        List.iter (fun (_, r) -> go bound r) bs;
        go bound b
    | Ir.WithArena (_, _, b) -> go bound b
    | _ -> ()
  in
  go [] arg;
  List.sort_uniq compare !out

(* every allocation of a block producer must build the producer's result:
   cells die exactly when the consumer's delimiter is left *)
let check_producer ctx id g =
  match List.assoc_opt g ctx.ir_defs with
  | None -> ()
  | Some rhs ->
      let _, body = Claims.leading_params rhs in
      let flag () =
        ctx.add
          (D.errorf ~code:"VET004" (ctx.loc_of_def g)
             "%s allocates into block %d outside its result position" g id)
      in
      let rec contains e =
        match e with
        | Ir.ConsAt (Ir.Arena i) | Ir.NodeAt (Ir.Arena i) -> i = id
        | Ir.App (f, a) -> contains f || contains a
        | Ir.Lam (_, b) | Ir.WithArena (_, _, b) -> contains b
        | Ir.If (c, t, f) -> contains c || contains t || contains f
        | Ir.Letrec (bs, b) ->
            List.exists (fun (_, r) -> contains r) bs || contains b
        | _ -> false
      in
      let nonres e = if contains e then flag () in
      let rec result e =
        match e with
        | Ir.If (c, t, f) ->
            nonres c;
            result t;
            result f
        | Ir.Letrec (bs, b) ->
            List.iter (fun (_, r) -> nonres r) bs;
            result b
        | Ir.App (Ir.Lam (_, b), rhs) ->
            nonres rhs;
            result b
        | Ir.App (Ir.App (Ir.ConsAt (Ir.Arena i), h), t) when i = id ->
            nonres h;
            result t
        | Ir.App (Ir.App (Ir.App (Ir.NodeAt (Ir.Arena i), l), x), r)
          when i = id ->
            result l;
            nonres x;
            result r
        | Ir.WithArena (_, _, b) -> result b
        | e -> nonres e
      in
      result body

let keep_of ctx f eargs n j =
  match An.local ctx.t f eargs ~arg:(j + 1) with
  | v -> Some (An.non_escaping_top_spines v)
  | exception (Nml.Infer.Error _ | Invalid_argument _ | Not_found | Failure _)
    -> (
      match An.global ~arity:n ctx.t f ~arg:(j + 1) with
      | v -> Some (An.non_escaping_top_spines v)
      | exception
          (Nml.Infer.Error _ | Invalid_argument _ | Not_found | Failure _) ->
          None)

let check_arena ctx (ac : Claims.arena_claim) =
  let rec peel = function Ir.WithArena (_, _, b) -> peel b | e -> e in
  let where =
    match ac.owner with Some n -> n | None -> "the main expression"
  in
  let head, args = Claims.head_and_args (peel ac.body) in
  match (head, args) with
  | Ir.Var f0, _ :: _ when List.mem (Erase.base ~defs:ctx.mono_names f0) ctx.mono_names
    ->
      let f = Erase.base ~defs:ctx.mono_names f0 in
      let loc = ctx.call_loc ~owner:ac.owner f0 in
      let eargs = List.map (Erase.expr ~defs:ctx.mono_names) args in
      let n = List.length args in
      List.iteri
        (fun j a ->
          let levels, opaque = site_levels ac.id a in
          let producers = producer_refs ctx ac.id a in
          if levels <> [] || opaque || producers <> [] then
            match keep_of ctx f eargs n j with
            | None ->
                ctx.add
                  (D.errorf ~code:"VET016" loc
                     "cannot verify the escape of argument %d of %s (arena %d)"
                     (j + 1) f ac.id)
            | Some keep ->
                if opaque then
                  ctx.add
                    (D.errorf ~code:"VET003" loc
                       "an allocation into arena %d sits at a position of \
                        argument %d of %s whose spine level cannot be derived"
                       ac.id (j + 1) f);
                List.iter
                  (fun lvl ->
                    if keep < lvl then
                      ctx.add
                        (D.errorf ~code:"VET003" loc
                           "allocation into arena %d at spine level %d of \
                            argument %d of %s exceeds its escape bound %d"
                           ac.id lvl (j + 1) f keep))
                  levels;
                (match producers with
                | [] -> ()
                | [ g ]
                  when (match Claims.head_and_args a with
                       | Ir.Var h, _ :: _ -> String.equal h g
                       | _ -> false) ->
                    if keep < 1 then
                      ctx.add
                        (D.errorf ~code:"VET004" loc
                           "the result of block producer %s (arena %d) may \
                            escape %s: the escape test keeps %d top spine(s)"
                           g ac.id f keep);
                    check_producer ctx ac.id g
                | gs ->
                    List.iter
                      (fun g ->
                        ctx.add
                          (D.errorf ~code:"VET004" loc
                             "block producer %s (arena %d) is not the head of \
                              argument %d of %s"
                             g ac.id (j + 1) f))
                      gs))
        args
  | _ ->
      ctx.add
        (D.errorf ~code:"VET002" (ctx.loc_of_def where)
           "arena %d in %s does not delimit a saturated call of a known \
            definition"
           ac.id where)

(* ---- entry point ------------------------------------------------------------ *)

let audit_unit ?(hints = []) unit ir =
  let source = Pipeline.surface unit in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let finish audited =
    let ds = List.sort_uniq D.compare !diags in
    (ds, { audited; findings = List.length ds })
  in
  match Pipeline.mono unit with
  | exception Nml.Infer.Error (loc, msg) ->
      add (D.errorf ~code:"VET016" loc "cannot verify: %s" msg);
      finish 0
  | exception Nml.Mono.Too_many_instances ->
      add
        (D.errorf ~code:"VET016"
           (A.loc source.Nml.Surface.main)
           "cannot verify: monomorphization exceeds the instance budget");
      finish 0
  | mono -> (
      let msurf = mono.Nml.Mono.program in
      match Pipeline.escape unit Pipeline.Mono with
      | exception Nml.Infer.Error (loc, msg) ->
          add (D.errorf ~code:"VET016" loc "cannot verify: %s" msg);
          finish 0
      | t ->
          let instances = mono.Nml.Mono.instances in
          let mono_names = List.map fst msurf.Nml.Surface.defs in
          let ir_defs, main = split ir in
          let def_names = List.map fst ir_defs in
          let surface_name n = orig_of instances (Erase.base ~defs:mono_names n) in
          let loc_of_def n =
            match find_def_rhs source (surface_name n) with
            | Some rhs -> A.loc rhs
            | None ->
                (* findings about the main expression (or a synthesized
                   name) anchor at the main expression's span *)
                A.loc source.Nml.Surface.main
          in
          let claim_loc (c : Claims.reuse_claim) =
            param_binder_loc source (surface_name c.def) c.arg
          in
          let call_loc ~owner callee =
            let target = surface_name callee in
            let scope =
              match owner with
              | None -> Some source.Nml.Surface.main
              | Some d -> find_def_rhs source (surface_name d)
            in
            match Option.bind scope (find_call target) with
            | Some l -> l
            | None -> (
                match find_call target source.Nml.Surface.main with
                | Some l -> l
                | None -> loc_of_def (match owner with Some d -> d | None -> target))
          in
          let claims, arenas, ediags =
            Claims.extract ~loc_of_def
              ~main_loc:(A.loc source.Nml.Surface.main)
              ~mono_names ir_defs main
          in
          List.iter add ediags;
          let destructive =
            List.fold_left
              (fun acc (c : Claims.reuse_claim) ->
                match List.assoc_opt c.def acc with
                | Some cls ->
                    (c.def, cls @ [ c ]) :: List.remove_assoc c.def acc
                | None -> (c.def, [ c ]) :: acc)
              [] claims
          in
          let ctx =
            {
              t;
              share = Share.make ~base:(Erase.base ~defs:mono_names) ir_defs;
              mono_names;
              ir_defs;
              def_names;
              destructive;
              needs = compute_needs def_names ir_defs;
              add;
              calls = ref 0;
              loc_of_def;
              claim_loc;
              call_loc;
            }
          in
          (* Theorem 2's escape side, and the static shape of each claim *)
          List.iter
            (fun (c : Claims.reuse_claim) ->
              (match An.global ~arity:c.arity ctx.t c.base ~arg:c.arg with
              | v ->
                  let keep = An.non_escaping_top_spines v in
                  if keep < 1 then
                    add
                      (D.errorf ~code:"VET014" (claim_loc c)
                         "the consumed parameter %s of %s may escape: the \
                          escape test keeps %d top spine(s)"
                         c.param c.def keep)
              | exception (Nml.Infer.Error _ | Invalid_argument _) ->
                  add
                    (D.errorf ~code:"VET016" (claim_loc c)
                       "cannot verify the escape of parameter %s of %s"
                       c.param c.def));
              match List.assoc_opt c.def ir_defs with
              | Some rhs ->
                  let _, body = Claims.leading_params rhs in
                  if under_lambda c.param body then
                    add
                      (D.errorf ~code:"VET012" (claim_loc c)
                         "%s is destroyed in %s but also occurs under a lambda"
                         c.param c.def)
              | None -> ())
            claims;
          (* the linear walk of every body *)
          List.iter
            (fun (name, rhs) ->
              let params, body = Claims.leading_params rhs in
              let fr =
                {
                  owner = Some name;
                  claimed =
                    List.filter
                      (fun (c : Claims.reuse_claim) -> String.equal c.def name)
                      claims;
                  bound = params;
                  shadow = [];
                  env = [];
                  cells = [];
                  nodes = [];
                  under = false;
                  opened = IS.empty;
                }
              in
              walk ctx fr body ~after:[])
            ir_defs;
          walk ctx
            {
              owner = None;
              claimed = [];
              bound = [];
              shadow = [];
              env = [];
              cells = [];
              nodes = [];
              under = false;
              opened = IS.empty;
            }
            main ~after:[];
          (* arena delimiters *)
          List.iter (check_arena ctx) arenas;
          (* advisory dead-spine heap hints: independently re-derive
             each claimed (definition, parameter) with the verifier's
             own liveness fixpoint instead of trusting the analysis
             that produced it.  Every monomorphized instance of the
             hinted definition must re-derive; a hint about a
             definition that monomorphization dropped entirely is
             vacuous (no closure of that name ever exists). *)
          let hint_count = ref 0 in
          List.iter
            (fun (f, idxs) ->
              let instances =
                List.filter
                  (fun n ->
                    String.equal (Erase.base ~defs:mono_names n) n
                    && String.equal (surface_name n) f)
                  def_names
              in
              List.iter
                (fun i ->
                  incr hint_count;
                  match
                    List.find_opt
                      (fun n -> not (Share.spine_dead ctx.share ~def:n ~arg:i))
                      instances
                  with
                  | Some n ->
                      add
                        (D.errorf ~code:"VET018"
                           (param_binder_loc source f i)
                           "the dead-spine hint for parameter %d of %s cannot \
                            be re-derived: %s may need that argument's spine \
                            past the head"
                           i f n)
                  | None -> ())
                idxs)
            hints;
          finish
            (List.length claims + List.length arenas + !(ctx.calls) + !hint_count))

let audit ?hints ~source ir = audit_unit ?hints (Pipeline.of_surface source) ir
