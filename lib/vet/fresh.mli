(** Syntactic freshness: how many top spines of an expression's value
    are certainly fresh and unshared (Theorem 2, clause 1, applied
    syntactically — the verifier's independent counterpart of the
    optimizer's redirection test).

    A destructive call [f' e] is only sound when [e]'s top spine is
    unshared and dead after the call; the verifier demands
    [depth e >= 1] for every consumed argument that is not a recursive
    suffix of a parameter the surrounding definition itself consumes. *)

val inf : int
(** Freshness of [nil] and [leaf]: no cells, nothing to share. *)

(** {1 Occurrence paths}

    An occurrence's path is the chain of projections immediately
    wrapping it, innermost first.  A [`Struct] occurrence reads the
    whole structure reachable from its path; a [`Cell] occurrence (the
    source of a destructive site) reads exactly one cell. *)

val occs_of :
  string list ->
  Runtime.Ir.expr ->
  (string * Nml.Ast.prim list * [ `Struct | `Cell ]) list
(** [occs_of watched e]: every free occurrence in [e] of a variable of
    [watched], with its path and kind. *)

val is_prefix : Nml.Ast.prim list -> Nml.Ast.prim list -> bool
val overlap : Nml.Ast.prim list -> Nml.Ast.prim list -> bool
(** Two paths overlap when one is a prefix of the other: the
    substructures they project share cells. *)

val let_disjoint : string -> Runtime.Ir.expr -> bool
(** [let_disjoint x b]: [x]'s occurrences in [b] project pairwise
    disjoint substructures, so a let-bound [x] may inherit its
    right-hand side's freshness in [b]. *)

val depth :
  ?share:Share.t ->
  Escape.Fixpoint.t ->
  defs:string list ->
  (string * int) list ->
  Runtime.Ir.expr ->
  int
(** [depth t ~defs env e]: certainly-fresh top spines of [e].  [env]
    gives the freshness of let-bound variables whose occurrences project
    pairwise disjoint substructures; [defs] are the monomorphized
    definition names ({!Erase.base} resolves derived names against
    them).  A [let] ([App (Lam (x, b), rhs)]) is as fresh as [b], with
    [x] as fresh as [rhs] when {!let_disjoint}[ x b] holds and 0
    otherwise, the verifier's rule for a [let] in statement position.
    With [share], a definition call is additionally credited with the
    verifier's own interprocedural sharing rule
    ({!Share.call_unshared}) — the independent re-derivation of the
    optimizer's alias-licensed redirections. *)
