(** Block allocation and wholesale reclamation (appendix A.3.3).

    In [PS (create_list i)] the list built by [create_list] cannot go in
    [PS]'s activation record — it exists before that record does.  The
    paper's answer is a {e local heap}: [create_list] allocates the spine
    in a block, and because the spine does not escape [PS], the whole
    block returns to the free list when [PS] finishes, with no traversal.

    The transformation finds calls [f ... (g args) ...] in the main
    expression where [g] is a definition and the local escape test proves
    the argument's top spine does not escape [f]; it then adds a
    specialized [g_blk] whose result-position conses allocate into a
    block, and wraps the call in [WithArena (Block, ...)]. *)

type annotation = Annotate.block_annotation = {
  consumer : string;  (** [f], whose return frees the block *)
  producer : string;  (** [g], whose result spine fills the block *)
  specialized : string;  (** name of the block-allocating copy of [g] *)
  arena : int;
  loc : Nml.Loc.t;  (** surface position of the producer call argument *)
}

type report = { annotations : annotation list }

val annotate : Escape.Fixpoint.t -> Nml.Surface.t -> Runtime.Ir.expr * report
