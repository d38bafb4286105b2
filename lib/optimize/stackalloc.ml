type annotation = Annotate.stack_annotation = {
  func : string;
  arg : int;
  levels : int;
  arena : int;
  loc : Nml.Loc.t;
}
type report = { annotations : annotation list }

let annotate t surface =
  let ir, r = Annotate.annotate ~stack:true ~block:false t surface in
  (ir, { annotations = r.Annotate.stack })
