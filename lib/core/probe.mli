(** Probe sets and extensional comparison of abstract values.

    The domains [D_e^t] are finite, so fixpoint iteration terminates and
    convergence is decidable (section 3.5); but enumerating full function
    spaces at higher types is intractable.  Following standard practice
    for Hudak-Young style higher-order analyses, we compare abstract
    functions extensionally on a finite {e probe set} per argument type:
    every basic escape value in the chain [B_e] crossed with the two
    canonical function components that the analysis itself feeds in — the
    worst-case function [W^t] and the bottom function.

    For first-order argument types (everything in the paper's examples)
    the function component of an argument is degenerate, so probing is
    exact: the probe set covers the whole domain.  The probes of a
    base-shaped parameter are one base value per element of [B_e], and
    the values compared there are tabulated ({!Dvalue.base_param}):
    comparison reads the two values' cells index by index, filling a
    cell only the first time it is read.  For higher-order argument
    positions the comparison is approximate; the fixpoint engine
    additionally caps iteration and falls back to the safe top value
    (see {!Fixpoint}).  The eager full-enumeration alternative for
    first-order types lives in {!Enumerate} and is compared in the
    benches.

    This module is a thin veneer over the engine in {!Dvalue}: the bound
    [d] is pushed into the current state's maximum ({!Dvalue.ensure_d})
    and the state's probe cache is reused.  Probe values are interned
    per state, one value (hence one id) per (bound, type), so an arrow
    probe's applications hit the memo across comparisons and passes. *)

val probes : d:int -> Nml.Ty.t -> Dvalue.t list
(** Canonical argument values for an argument of the given type.  Base
    shapes get one probe per element of [B_e]; arrow shapes get the cross
    product of [B_e] with [{W, bottom}] function components. *)

val equal : d:int -> Dvalue.t -> Dvalue.t -> bool
(** Extensional equality with respect to {!probes}, recursing through the
    (finite) type structure of the values. *)

val leq : d:int -> Dvalue.t -> Dvalue.t -> bool
(** Extensional ordering with respect to {!probes}. *)
