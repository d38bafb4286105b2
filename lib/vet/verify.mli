(** The annotation verifier.

    [audit ~source ir] re-derives, by its own flow-insensitive traversal
    of the annotated IR, the proof obligation behind every storage
    annotation and reports each violated obligation as a
    {!Nml.Diagnostic.t}.  It deliberately shares {e no} traversal code
    with the optimizer's emitters ({!Optimize.Reuse},
    {!Optimize.Annotate}): where the optimizer decides what is sound to
    emit, the verifier independently checks what was emitted.

    What it does share is the escape {e solve}.  The analysis
    ({!Escape.Fixpoint}) is the specification both sides answer to, so
    {!audit_unit} reads the Mono-level solver of the compilation unit
    ({!Pipeline.escape}) — the one the optimizer already queried, when
    the driver ran it on the same unit — instead of monomorphizing,
    inferring and solving the program a second time.  The claims, the
    sharing re-derivation ({!Share}) and the IR walk stay the
    verifier's own.

    Obligations, with their stable diagnostic codes:

    - [VET001] an allocation (direct, or reachable through a call) targets
      an arena that is not open at that point;
    - [VET002] an arena delimiter does not delimit a saturated call of a
      known definition;
    - [VET003] a region allocation sits at a spine level deeper than the
      escape analysis' bound for that argument (or at a position the
      verifier cannot relate to a spine level);
    - [VET004] a block arena's producer violates the whole-structure
      discipline (escaping result, allocation outside result position,
      producer not the head of the argument);
    - [VET005] an arena id is opened again while already open;
    - [VET010] a destructive site's source is not an unshadowed leading
      parameter (reported by {!Claims});
    - [VET011] a destructive site is not nil/leaf-guarded;
    - [VET012] a consumed parameter is destroyed under a lambda, or read
      after one of its cells is destroyed;
    - [VET013] the recycled cell leaks into the destructive site's own
      arguments;
    - [VET014] the consumed parameter may escape its definition
      (Theorem 2's escape side);
    - [VET015] a destructive call's consumed argument is not provably
      fresh and unshared (and is no suffix of a consumed parameter), or
      the destructive definition is partially applied / used as a value;
    - [VET016] an obligation could not be checked at all;
    - [VET017] a destructive primitive is unsaturated (reported by
      {!Claims});
    - [VET018] an advisory dead-spine heap hint
      ({!Runtime.Heap.hinted_dead_spine}) cannot be re-derived by the
      verifier's own spine-liveness fixpoint ({!Share}). *)

type summary = {
  audited : int;
      (** discharged obligations: reuse claims + arena claims +
          destructive call-site audits + hinted dead spines *)
  findings : int;
}

val audit_unit :
  ?hints:(string * int list) list ->
  Pipeline.t ->
  Runtime.Ir.expr ->
  Nml.Diagnostic.t list * summary
(** [audit_unit u ir] audits [ir] as the annotated form of [u]'s program.
    [hints] are the advisory [(definition, 1-based parameter indices)]
    dead-spine pairs the driver would hand the heap
    ({!Runtime.Heap.config}); each is independently re-derived and
    violations are reported as [VET018].  A program the unit cannot
    monomorphize or type is one [VET016] finding.  The diagnostics come
    back deduplicated and sorted ({!Nml.Diagnostic.compare}). *)

val audit :
  ?hints:(string * int list) list ->
  source:Nml.Surface.t ->
  Runtime.Ir.expr ->
  Nml.Diagnostic.t list * summary
(** {!audit_unit} on a fresh unit over [source]. *)
