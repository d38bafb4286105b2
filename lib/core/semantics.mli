(** The abstract escape semantic functions [E] and [C] (section 3.4).

    Evaluation maps a typed expression to a {!Dvalue.t} under

    - a local environment for lambda- and letrec-bound identifiers, and
    - a global hook used to resolve the program's top-level definitions
      at the ground instance recorded on the occurrence (supplied by
      {!Fixpoint}, which memoizes per (name, instance) and iterates).

    Conditionals join both branches; nested [letrec]s are solved inline
    by Kleene iteration with probe-based convergence.  A leading chain of
    lambdas with base-shaped parameters evaluates to a trie of
    {!Dvalue.stage}s whose last stage's cells evaluate the body under
    all the chain's arguments; primitives are interned per (primitive,
    type) ({!Dvalue.interned_prim}). *)

module Env : Map.S with type key = string

type ctx = {
  d : unit -> int;
      (** current chain bound [d] (may grow as instances are demanded) *)
  global : string -> Nml.Ty.t -> Dvalue.t;
      (** resolve a top-level definition at a ground instance type *)
  max_iters : int;  (** per-letrec Kleene iteration cap *)
  mutable iters : int;  (** total iterations performed (statistics) *)
  mutable capped : bool;  (** true if any fixpoint hit the cap *)
  mutable fv_cache : (Nml.Tast.texpr * string list) list;
      (** per-lambda free-variable sets, keyed by physical node *)
}

val eval : ctx -> Dvalue.t Env.t -> Nml.Tast.texpr -> Dvalue.t
(** @raise Invalid_argument on identifiers bound neither locally nor
    globally (cannot happen for trees produced by {!Nml.Infer}). *)

val prim_value : ty:Nml.Ty.t -> Nml.Ast.prim -> Dvalue.t
(** The semantic function [C] for primitive constants, at the
    occurrence's instantiated type; exposed for direct testing against
    the paper's definitions. *)

val const_value : ty:Nml.Ty.t -> Nml.Ast.const -> Dvalue.t
(** [C] for literal constants; [nil] is the bottom of its element
    domain. *)
