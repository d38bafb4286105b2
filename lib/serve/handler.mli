(** The per-request worker job.

    Dispatches one request to the same per-file entry points
    [nmlc batch] uses ({!Cache.Batch.analyze_file},
    {!Lint.Batch.analyze_file}, ...), so a successful response is
    byte-identical to the batch output for the same input.  Toolchain
    failures of the analyzed program are {e successful} RPCs carrying
    the rendered diagnostics; only server-side conditions become SRV
    errors.  {!Crash} and [Out_of_memory] escape on purpose (fault
    injection) — they exercise the pool's supervision path. *)

exception Crash of string

type t = {
  store : Cache.Store.t option;
  fault : Fault.t;
  quarantined : string -> bool;
}

val quarantine_key : Protocol.request -> string
(** The content-sensitive quarantine identity of a request's input:
    fixing a crashing file lifts its quarantine without a restart. *)

val audit : Pipeline.t -> Runtime.Ir.expr -> Nml.Diagnostic.t list * Vet.Verify.summary
(** The one [vet] path, shared by the [vet] verb and [nmlc vet]:
    {!Vet.Verify.audit_unit} of an annotated program on the unit it was
    optimized from, with that unit's dead-spine hints
    ({!Pipeline.hints}). *)

val render_audit : Nml.Diagnostic.t list * Vet.Verify.summary -> string
(** The human rendering both print: the diagnostics, then the
    [vet: N annotation(s) audited, M finding(s)] line. *)

val handle : t -> Pool.job -> Pool.resp
