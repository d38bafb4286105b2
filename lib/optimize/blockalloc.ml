type annotation = Annotate.block_annotation = {
  consumer : string;
  producer : string;
  specialized : string;
  arena : int;
  loc : Nml.Loc.t;
}

type report = { annotations : annotation list }

let annotate t surface =
  let ir, r = Annotate.annotate ~stack:false ~block:true t surface in
  (ir, { annotations = r.Annotate.block })
