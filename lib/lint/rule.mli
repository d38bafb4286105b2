(** The lint rule interface: a stable code, default severity, SARIF
    metadata, and a checker per scope.

    SCC-scoped checkers see only an SCC's members (plus anything
    reachable through the shared solver and program), which is the
    contract that makes their findings cacheable per SCC: the cache key
    digests the members and their transitive callees, so a finding can
    only change when its key does.  Program-scoped checkers run once per
    program and are cached under a whole-source key. *)

type fault = No_fault | Corrupt_invariance | Corrupt_sharing
(** [Corrupt_invariance] makes LINT003 corrupt one instance's result
    before comparing — a seeded lie the self-audit must catch (the
    lint-side analogue of [nmlc vet --inject-fault]).
    [Corrupt_sharing] makes LINT008 see one reuse candidate's sharing
    verdict as spine-shared, so the escape/sharing cross-check must
    fire. *)

type ctx = {
  unit : Pipeline.t;
      (** the program's compilation unit, Source level: every solver is
          built on first use, so a fully warm cache run never forces one *)
  dead_params : (string * int) list Lazy.t;
      (** [(definition, 1-based parameter)] pairs that occur in their
          body but are never truly used *)
  fault : fault;
}

type t = {
  code : string;  (** stable identifier, e.g. ["LINT001"] *)
  title : string;  (** short slug, e.g. ["missed-reuse"] *)
  summary : string;  (** one line, surfaced as SARIF rule metadata *)
  severity : Nml.Diagnostic.severity;  (** default severity *)
  check_scc : ctx -> members:string list -> Nml.Diagnostic.t list;
  check_program : ctx -> Nml.Diagnostic.t list;
}

val surface : ctx -> Nml.Surface.t
val prog : ctx -> Nml.Infer.program

val solver : ctx -> Escape.Fixpoint.t
(** The shared escape solver, built on first use. *)

val spinelive : ctx -> Framework.Spinelive.Solver.t
(** The spine-liveness solver (LINT007's evidence), built on first use. *)

val alias : ctx -> Framework.Alias.Solver.t
(** The sharing solver (LINT008's evidence), built on first use. *)

val no_scc : ctx -> members:string list -> Nml.Diagnostic.t list
val no_program : ctx -> Nml.Diagnostic.t list
(** Empty checkers, for rules scoped to only one of the two. *)
