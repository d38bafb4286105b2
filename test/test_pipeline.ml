(* Tests for the compilation unit (lib/pipeline): each client runs every
   stage at most once — the counts the subcommands demand are pinned per
   shipped example — and the vet audit gives the same diagnostics on the
   unit the optimizer already queried as on a fresh one. *)

module P = Pipeline
module T = Optimize.Transform
module V = Vet.Verify

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let examples =
  let dir = "../examples/programs" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".nml")
  |> List.sort String.compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         (f, In_channel.with_open_text path In_channel.input_all))

let counts_t =
  Alcotest.testable P.pp_counts (fun (a : P.counts) b -> a = b)

let counts ?(inferences = 0) ?(monomorphizations = 0) ?(escape_solvers = 0)
    ?(alias_solvers = 0) ?(spinelive_solvers = 0) () =
  { P.inferences; monomorphizations; escape_solvers; alias_solvers; spinelive_solvers }

(* every example through a client's stages, then the unit's counts *)
let stage_test name ~expect client =
  Alcotest.test_case name `Quick (fun () ->
      checkb "some examples" true (List.length examples >= 5);
      List.iter
        (fun (file, src) ->
          let u = P.of_string ~file src in
          client u;
          Alcotest.check counts_t file expect (P.counts u))
        examples)

let generational = { T.all with T.pretenure = true }

let stage_tests =
  [
    stage_test "vet"
      ~expect:
        (counts ~inferences:2 ~monomorphizations:1 ~escape_solvers:1 ~alias_solvers:1
           ~spinelive_solvers:1 ())
      (fun u -> ignore (Serve.Handler.audit u (T.optimize_unit u).T.ir));
    stage_test "run-optimized-generational"
      ~expect:
        (counts ~inferences:2 ~monomorphizations:1 ~escape_solvers:1 ~alias_solvers:1
           ~spinelive_solvers:1 ())
      (fun u ->
        ignore (P.hints u);
        ignore (T.optimize_unit ~options:generational u));
    stage_test "analyze"
      ~expect:(counts ~inferences:1 ~escape_solvers:1 ())
      (fun u -> ignore (Format.asprintf "%a" Escape.Report.program (P.escape u P.Source)));
    stage_test "run-baseline"
      ~expect:(counts ~inferences:1 ())
      (fun u ->
        ignore (P.typed u P.Source);
        ignore (Runtime.Ir.of_program (P.surface u)));
    Alcotest.test_case "optimizer-stage-is-memoized" `Quick (fun () ->
        let u = P.of_string Nml.Examples.partition_sort_program in
        let a = T.optimize_unit u in
        checkb "same options, same result" true (a == T.optimize_unit u);
        let b = T.optimize_unit ~options:generational u in
        checkb "other options, own result" true (a != b);
        Alcotest.check counts_t "one solve for both option sets"
          (counts ~inferences:2 ~monomorphizations:1 ~escape_solvers:1 ~alias_solvers:1 ())
          (P.counts u));
    Alcotest.test_case "failing-stage-is-not-rerun" `Quick (fun () ->
        let u = P.of_string "letrec f x = y in f 1" in
        for _ = 1 to 3 do
          match P.escape u P.Mono with
          | _ -> Alcotest.fail "expected a type error"
          | exception Nml.Infer.Error _ -> ()
        done;
        checki "one inference" 1 (P.counts u).P.inferences);
  ]

(* ---- fresh unit vs the unit the optimizer already queried -------------------- *)

let same_audit name src =
  let s = Nml.Surface.of_string src in
  let u = P.of_surface s in
  match P.typed u P.Source with
  | exception Nml.Infer.Error _ -> false
  | _ ->
      let ir = (T.optimize_unit u).T.ir in
      let hints = P.hints u in
      let shared = V.audit_unit ~hints u ir in
      let fresh = V.audit ~hints ~source:s ir in
      if shared <> fresh then Alcotest.failf "%s: shared and fresh audits differ" name;
      true

let differential_tests =
  [
    Alcotest.test_case "examples" `Quick (fun () ->
        List.iter (fun (f, src) -> checkb f true (same_audit f src)) examples);
    Alcotest.test_case "builtin-corpus" `Quick (fun () ->
        List.iter
          (fun (name, src) -> checkb name true (same_audit name src))
          Check.Harness.builtin_corpus);
    Alcotest.test_case "random-programs" `Quick (fun () ->
        let rand = Random.State.make [| 20261018 |] in
        let typed = ref 0 in
        for i = 1 to 150 do
          let src = QCheck.Gen.generate1 ~rand Gen.gen_any_program in
          if same_audit (Printf.sprintf "random program %d" i) src then incr typed
        done;
        checkb "most random programs type" true (!typed > 100));
  ]

let () =
  Alcotest.run "pipeline"
    [ ("stages", stage_tests); ("fresh-vs-shared", differential_tests) ]
