module Ir = Runtime.Ir
module Fix = Escape.Fixpoint

type options = {
  monomorphize : bool;
  reuse : bool;
  alias_reuse : bool;
  stack : bool;
  block : bool;
  pretenure : bool;
}

let all =
  {
    monomorphize = true;
    reuse = true;
    alias_reuse = true;
    stack = true;
    block = true;
    pretenure = false;
  }

let none =
  {
    monomorphize = false;
    reuse = false;
    alias_reuse = false;
    stack = false;
    block = false;
    pretenure = false;
  }

type result = {
  ir : Ir.expr;
  reuse_report : Reuse.report option;
  stack_report : Stackalloc.report option;
  block_report : Blockalloc.report option;
  pretenure_sites : int;
}

let add_defs prog extra =
  match (prog, extra) with
  | _, [] -> prog
  | Ir.Letrec (ds, m), _ -> Ir.Letrec (ds @ extra, m)
  | m, _ -> Ir.Letrec (extra, m)

(* [alias] is demanded only when alias-informed reuse is on; it must be
   the sharing solver over the same program [t] was built on, since
   Reuse takes the max of both judgments *)
let transform ~alias t options (surface : Nml.Surface.t) =
  let primed, main', reuse_report =
    if options.reuse then
      let alias = if options.alias_reuse then Some (alias ()) else None in
      let p, m, r = Reuse.apply ?alias t surface in
      (p, m, Some r)
    else ([], surface.Nml.Surface.main, None)
  in
  let surface' = { surface with Nml.Surface.main = main' } in
  let ir, stack_report, block_report, pretenure_sites =
    if options.stack || options.block || options.pretenure then
      let ir, rep =
        Annotate.annotate ~stack:options.stack ~block:options.block
          ~pretenure:options.pretenure t surface'
      in
      ( ir,
        (if options.stack then Some { Stackalloc.annotations = rep.Annotate.stack }
         else None),
        (if options.block then Some { Blockalloc.annotations = rep.Annotate.block }
         else None),
        rep.Annotate.pretenure_sites )
    else
      let defs_ir =
        List.map (fun (n, rhs) -> (n, Ir.of_ast rhs)) surface'.Nml.Surface.defs
      in
      let main_ir = Ir.of_ast surface'.Nml.Surface.main in
      let prog = match defs_ir with [] -> main_ir | ds -> Ir.Letrec (ds, main_ir) in
      (prog, None, None, 0)
  in
  { ir = add_defs ir primed; reuse_report; stack_report; block_report; pretenure_sites }

let optimize_with t options surface =
  transform
    ~alias:(fun () -> Framework.Alias.Solver.make (Nml.Infer.infer_program surface))
    t options surface

type Pipeline.ext += Optimized of options * result

let optimize_unit ?(options = all) u =
  Pipeline.memo u
    ~find:(function Optimized (o, r) when o = options -> Some r | _ -> None)
    ~store:(fun r -> Optimized (options, r))
    (fun () ->
      let level = if options.monomorphize then Pipeline.Mono else Pipeline.Source in
      transform
        ~alias:(fun () -> Pipeline.alias u level)
        (Pipeline.escape u level) options (Pipeline.program u level))

let optimize ?options surface = optimize_unit ?options (Pipeline.of_surface surface)

let pp_report ppf r =
  Format.fprintf ppf "@[<v 0>";
  (match r.reuse_report with
  | Some rr ->
      List.iter
        (fun c ->
          Format.fprintf ppf "reuse: %s -> %s (parameter %s, %d site(s))@ "
            c.Reuse.def c.Reuse.primed c.Reuse.param
            (List.length c.Reuse.sites + List.length c.Reuse.node_sites))
        rr.Reuse.candidates;
      Format.fprintf ppf "reuse: %d call site(s) redirected@ " rr.Reuse.substituted_calls;
      if rr.Reuse.alias_licensed > 0 then
        Format.fprintf ppf "reuse: %d site(s) licensed by the sharing analysis alone@ "
          rr.Reuse.alias_licensed
  | None -> ());
  (match r.stack_report with
  | Some sr ->
      List.iter
        (fun (a : Stackalloc.annotation) ->
          Format.fprintf ppf
            "stack: argument %d of %s allocated in region %d (%d level(s))@ "
            a.Stackalloc.arg a.Stackalloc.func a.Stackalloc.arena a.Stackalloc.levels)
        sr.Stackalloc.annotations
  | None -> ());
  (match r.block_report with
  | Some br ->
      List.iter
        (fun (a : Blockalloc.annotation) ->
          Format.fprintf ppf "block: %s feeds %s via block %d (as %s)@ "
            a.Blockalloc.producer a.Blockalloc.consumer a.Blockalloc.arena
            a.Blockalloc.specialized)
        br.Blockalloc.annotations
  | None -> ());
  if r.pretenure_sites > 0 then
    Format.fprintf ppf "pretenure: %d cons site(s) tenured at birth@ "
      r.pretenure_sites;
  Format.fprintf ppf "@]"
