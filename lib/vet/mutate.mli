(** Mutation testing of the verifier.

    A mutation point is a small, deliberately unsound (or undeclared)
    edit of an annotated program: retargeting an allocation site to an
    arena nobody opens, removing an arena delimiter that sites still
    target, flipping a destructive site's source to an unguarded
    parameter, injecting a destructive site into a definition the
    optimizer did not claim, or redirecting a call to its destructive
    variant where the consumed argument is a projection of a parameter
    or a let-bound spine whose occurrences overlap.  Each mutant must
    make {!Verify.audit} report at least one finding — a surviving
    mutant is a verifier bug.

    Enumeration is deterministic (pre-order site numbering), and a
    campaign draws points with a seeded PRNG so runs are reproducible. *)

type point = {
  label : string;  (** stable human description of the edit *)
  mutant : Runtime.Ir.expr Lazy.t;
}

val points : Pipeline.t -> Runtime.Ir.expr -> point list
(** Every applicable mutation point of the unit's annotated program, in
    a deterministic order.  Only edits guaranteed to be unsound (no
    equivalent mutants) are proposed. *)

type outcome = {
  points : int;
  draws : int;
  detected : int;
  survivors : string list;  (** labels of undetected mutants *)
}

val campaign :
  ?seed:int ->
  count:int ->
  Pipeline.t ->
  Runtime.Ir.expr ->
  outcome
(** [campaign ~count u ir] draws [count] points (with replacement) from
    {!points} and audits each mutant with {!Verify.audit_unit} on [u]:
    the mutants differ only in their annotations, so they all share the
    unit's one monomorphization and escape solve.  [seed] defaults to
    0. *)
