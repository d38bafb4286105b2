(** Stack allocation of list spines (section 6, appendix A.3.1).

    For a call [f e1 ... en] in the main expression whose [j]-th argument
    is a list literal, the local escape test tells how many of its top
    spines cannot escape the call; those spines can live in [f]'s
    activation record.  The transformation wraps the call in
    [WithArena (Region, ...)] and redirects the literal's spine conses
    (to the proven depth) into the arena: the machine frees them all,
    without garbage collection work, when the call returns. *)

type annotation = Annotate.stack_annotation = {
  func : string;  (** callee *)
  arg : int;  (** annotated argument position *)
  levels : int;  (** how many top spine levels go to the region *)
  arena : int;  (** static arena id *)
  loc : Nml.Loc.t;  (** surface position of the annotated literal *)
}

type report = { annotations : annotation list }

val annotate : Escape.Fixpoint.t -> Nml.Surface.t -> Runtime.Ir.expr * report
(** The program with definitions unchanged and the main expression's
    eligible calls wrapped in regions. *)
