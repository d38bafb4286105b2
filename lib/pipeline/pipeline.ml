type level = Source | Mono

type counts = {
  inferences : int;
  monomorphizations : int;
  escape_solvers : int;
  alias_solvers : int;
  spinelive_solvers : int;
}

type stages = {
  program : Nml.Surface.t Lazy.t;
  typed : Nml.Infer.program Lazy.t;
  escape : Escape.Fixpoint.t Lazy.t;
  alias : Framework.Alias.Solver.t Lazy.t;
}

type ext = ..

type t = {
  source : stages;
  mono : Nml.Mono.result Lazy.t;
  at_mono : stages;
  spinelive : Framework.Spinelive.Solver.t Lazy.t;
  counts : counts ref;
  mutable ext : ext list;
}

let zero =
  {
    inferences = 0;
    monomorphizations = 0;
    escape_solvers = 0;
    alias_solvers = 0;
    spinelive_solvers = 0;
  }

(* A stage's counter is bumped only once its input is available, so a
   stage whose input failed does not count as run. *)
let make ?(engine = Escape.Fixpoint.Worklist) surface =
  let counts = ref zero in
  let bump f = counts := f !counts in
  let stages program =
    let typed =
      lazy
        (let p = Lazy.force program in
         bump (fun c -> { c with inferences = c.inferences + 1 });
         Nml.Infer.infer_program p)
    in
    {
      program;
      typed;
      escape =
        lazy
          (let p = Lazy.force typed in
           bump (fun c -> { c with escape_solvers = c.escape_solvers + 1 });
           Escape.Fixpoint.make ~engine p);
      alias =
        lazy
          (let p = Lazy.force typed in
           bump (fun c -> { c with alias_solvers = c.alias_solvers + 1 });
           Framework.Alias.Solver.make p);
    }
  in
  let source = stages surface in
  let mono =
    lazy
      (let p = Lazy.force source.typed in
       bump (fun c -> { c with monomorphizations = c.monomorphizations + 1 });
       Nml.Mono.monomorphize p)
  in
  {
    source;
    mono;
    at_mono = stages (lazy (Lazy.force mono).Nml.Mono.program);
    spinelive =
      lazy
        (let p = Lazy.force source.typed in
         bump (fun c -> { c with spinelive_solvers = c.spinelive_solvers + 1 });
         Framework.Spinelive.Solver.make p);
    counts;
    ext = [];
  }

let of_surface ?engine s = make ?engine (Lazy.from_val s)
let of_string ?file ?engine src = make ?engine (lazy (Nml.Surface.of_string ?file src))
let at u = function Source -> u.source | Mono -> u.at_mono
let surface u = Lazy.force u.source.program
let mono u = Lazy.force u.mono
let program u l = Lazy.force (at u l).program
let typed u l = Lazy.force (at u l).typed
let escape u l = Lazy.force (at u l).escape
let alias u l = Lazy.force (at u l).alias

let escape_if_built u l =
  let e = (at u l).escape in
  if Lazy.is_val e then Some (Lazy.force e) else None

let spinelive u = Lazy.force u.spinelive
let hints u = Framework.Spinelive.dead_spine_params (spinelive u)
let counts u = !(u.counts)

let pp_counts ppf c =
  Format.fprintf ppf
    "%d inference(s), %d monomorphization(s), %d escape solver(s), %d alias \
     solver(s), %d spine-liveness solver(s)"
    c.inferences c.monomorphizations c.escape_solvers c.alias_solvers
    c.spinelive_solvers

let memo u ~find ~store compute =
  match List.find_map find u.ext with
  | Some v -> v
  | None ->
      let v = compute () in
      u.ext <- store v :: u.ext;
      v
