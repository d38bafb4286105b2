(** One compilation unit: a program and every stage a client derives
    from it, each computed lazily and at most once.

    {v
    source --parse--> surface --infer--> typed --+--> escape, alias   (Source level)
                                                 +--> spine-liveness hints
                                                 +--monomorphize--> mono
    mono program --infer--> typed mono --> escape, alias               (Mono level)
    v}

    A subcommand builds one unit per input and stops at the stage it
    needs: [typecheck] at {!typed}, [analyze] at the Source-level
    {!escape}, [optimize] and [run -O] at the optimizer's result (a stage
    memoized here by {!memo} on behalf of [Optimize.Transform]), [vet]
    one step further at the audit, which reads the same Mono-level
    escape solver the optimizer queried.  Scope and type checking is the
    {!typed} stage; everything past {!surface} goes through it.

    A stage that raises (a type error, an exhausted instance budget)
    raises the same exception again on every later demand, without
    recomputing. *)

type t

val of_surface : ?engine:Escape.Fixpoint.engine -> Nml.Surface.t -> t
(** A unit over an already parsed program.  [engine] (default
    [Worklist]) is the one the escape solvers are built with. *)

val of_string : ?file:string -> ?engine:Escape.Fixpoint.engine -> string -> t
(** A unit over source text; parsing is the {!surface} stage. *)

val surface : t -> Nml.Surface.t
(** @raise Nml.Lexer.Error
    @raise Nml.Parser.Error *)

(** The program an analysis stage runs on: the surface program as
    written, or its monomorphization. *)
type level = Source | Mono

val mono : t -> Nml.Mono.result
(** Monomorphization of the typed surface program (no second inference
    of the surface).  @raise Nml.Mono.Too_many_instances *)

val program : t -> level -> Nml.Surface.t
val typed : t -> level -> Nml.Infer.program
(** Scope and type checking.  @raise Nml.Infer.Error *)

val escape : t -> level -> Escape.Fixpoint.t
(** The escape solver over {!typed} at that level.  Solving is demand
    driven, so every client querying it shares one set of memo tables. *)

val escape_if_built : t -> level -> Escape.Fixpoint.t option
(** The escape solver if a client already demanded it, without building
    it. *)

val alias : t -> level -> Framework.Alias.Solver.t
(** The sharing solver over {!typed} at that level. *)

val spinelive : t -> Framework.Spinelive.Solver.t
(** The spine-liveness solver over the Source-level {!typed} program. *)

val hints : t -> (string * int list) list
(** The advisory dead-spine hints ({!Framework.Spinelive.dead_spine_params})
    of {!spinelive}: what [run --policy generational] hands the heap and
    what [vet] audits. *)

(** How often each stage ran: [inferences], [escape_solvers] and
    [alias_solvers] at most once per level, the others at most once. *)
type counts = {
  inferences : int;
  monomorphizations : int;
  escape_solvers : int;
  alias_solvers : int;
  spinelive_solvers : int;
}

val counts : t -> counts
val pp_counts : Format.formatter -> counts -> unit

(** {2 Stages defined downstream}

    A library above this one (the optimizer) memoizes its own stage in
    the unit by adding a constructor to {!ext}. *)

type ext = ..

val memo : t -> find:(ext -> 'a option) -> store:('a -> ext) -> (unit -> 'a) -> 'a
(** [memo u ~find ~store compute] is the first stored value [find]
    accepts, or [compute ()], stored with [store] for later demands. *)
