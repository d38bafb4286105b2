(* Tests for the independent annotation verifier (lib/vet): the
   optimizer's output audits clean on the corpus and on random programs,
   every mutation point is detected and campaigns are reproducible, and
   hand-broken IRs trigger the intended finding codes. *)

module H = Check.Harness
module V = Vet.Verify
module M = Vet.Mutate
module D = Nml.Diagnostic
module A = Nml.Ast
module Ir = Runtime.Ir

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* the optimizer's output and the unit it came from, as [nmlc vet] sees
   them: the audits below read the solver the optimizer filled *)
let optimize src =
  let u = Pipeline.of_string src in
  (u, (Optimize.Transform.optimize_unit u).Optimize.Transform.ir)

let audit_src src =
  let u, ir = optimize src in
  V.audit_unit u ir

let has_code c ds = List.exists (fun d -> String.equal d.D.code c) ds

let codes ds = String.concat " " (List.map (fun d -> d.D.code) ds)

(* ---- agreement: the optimizer's own output audits clean -------------------- *)

let agreement_tests =
  [
    Alcotest.test_case "corpus-audits-clean" `Quick (fun () ->
        List.iter
          (fun (name, src) ->
            let ds, s = audit_src src in
            if ds <> [] then
              Alcotest.failf "%s: unexpected findings: %s" name (codes ds);
            checki (name ^ " findings") 0 s.V.findings)
          H.builtin_corpus);
    Alcotest.test_case "corpus-audits-something" `Quick (fun () ->
        (* the verifier is not vacuous: the corpus carries annotations *)
        let total =
          List.fold_left
            (fun acc (_, src) -> acc + (snd (audit_src src)).V.audited)
            0 H.builtin_corpus
        in
        checkb "audited > 20 obligations" true (total > 20));
  ]

let qcheck_agreement =
  QCheck.Test.make ~count:120 ~name:"random-programs-audit-clean"
    (QCheck.make Gen.gen_any_program ~print:Fun.id)
    (fun src ->
      match audit_src src with
      | ds, _ -> ds = []
      | exception _ -> QCheck.assume_fail ())

(* ---- mutation testing: every point is detected ----------------------------- *)

let mutation_tests =
  [
    Alcotest.test_case "every-corpus-mutant-is-detected" `Quick (fun () ->
        List.iter
          (fun (name, src) ->
            let u, ir = optimize src in
            List.iter
              (fun p ->
                let ds, _ = V.audit_unit u (Lazy.force p.M.mutant) in
                if not (D.has_errors ds) then
                  Alcotest.failf "%s: surviving mutant: %s" name p.M.label)
              (M.points u ir))
          H.builtin_corpus);
    Alcotest.test_case "corpus-has-mutation-points" `Quick (fun () ->
        let total =
          List.fold_left
            (fun acc (_, src) ->
              let u, ir = optimize src in
              acc + List.length (M.points u ir))
            0 H.builtin_corpus
        in
        checkb "some points exist" true (total > 10));
    Alcotest.test_case "campaign-is-deterministic" `Quick (fun () ->
        let src = Nml.Examples.partition_sort_program in
        let u, ir = optimize src in
        let a = M.campaign ~seed:3 ~count:40 u ir in
        let b = M.campaign ~seed:3 ~count:40 u ir in
        checki "points" a.M.points b.M.points;
        checki "detected" a.M.detected b.M.detected;
        checkb "survivors" true (a.M.survivors = b.M.survivors));
    Alcotest.test_case "campaign-detects-everything" `Quick (fun () ->
        let src = Nml.Examples.partition_sort_program in
        let u, ir = optimize src in
        let o = M.campaign ~seed:0 ~count:60 u ir in
        checki "all draws detected" o.M.draws o.M.detected;
        checkb "no survivors" true (o.M.survivors = []));
    Alcotest.test_case "redirect-family-is-not-vacuous" `Quick (fun () ->
        (* the original definition keeps an unprimed recursive call on a
           projection of its own parameter: redirecting it to the
           destructive variant must be an available mutation *)
        let u, ir = optimize Nml.Examples.rev_program in
        let pts = M.points u ir in
        checkb "has a redirect point" true
          (List.exists
             (fun p ->
               String.length p.M.label >= 8
               && String.equal (String.sub p.M.label 0 8) "redirect")
             pts));
  ]

(* ---- hand-broken IRs trigger the intended codes ---------------------------- *)

(* a copy function the analysis fully understands: parameter consumed,
   result fresh, so a guarded top-level reuse of l is legitimate *)
let copy_src = "letrec f l = if null l then nil else cons (car l) (f (cdr l)) in f [1, 2]"

let int n = Ir.Const (A.Cint n)
let nil = Ir.Const A.Cnil
let app2 f a b = Ir.App (Ir.App (f, a), b)
let dcons src h t = Ir.App (app2 Ir.Dcons src h, t)
let cons h t = app2 (Ir.Prim A.Cons) h t
let car e = Ir.App (Ir.Prim A.Car, e)
let cdr e = Ir.App (Ir.Prim A.Cdr, e)
let null e = Ir.App (Ir.Prim A.Null, e)

let ir_f body =
  Ir.Letrec
    ([ ("f", Ir.Lam ("l", body)) ], Ir.App (Ir.Var "f", cons (int 1) (cons (int 2) nil)))

let audit_ir body =
  let s = Nml.Surface.of_string copy_src in
  fst (V.audit ~source:s (ir_f body))

let guarded body_else = Ir.If (null (Ir.Var "l"), nil, body_else)

let unit_tests =
  [
    Alcotest.test_case "guarded-reuse-is-clean" `Quick (fun () ->
        let ds =
          audit_ir
            (guarded
               (dcons (Ir.Var "l") (car (Ir.Var "l"))
                  (Ir.App (Ir.Var "f", cdr (Ir.Var "l")))))
        in
        checkb ("clean, got: " ^ codes ds) true (ds = []));
    Alcotest.test_case "unguarded-reuse-is-VET011" `Quick (fun () ->
        let ds =
          audit_ir
            (dcons (Ir.Var "l") (car (Ir.Var "l"))
               (Ir.App (Ir.Var "f", cdr (Ir.Var "l"))))
        in
        checkb ("VET011 in: " ^ codes ds) true (has_code "VET011" ds));
    Alcotest.test_case "non-parameter-source-is-VET010" `Quick (fun () ->
        let ds =
          audit_ir (guarded (dcons (Ir.Var "q") (car (Ir.Var "l")) nil))
        in
        checkb ("VET010 in: " ^ codes ds) true (has_code "VET010" ds));
    Alcotest.test_case "read-after-destroy-is-VET012" `Quick (fun () ->
        (* the recycled root cell is read again by the later (cdr l) *)
        let ds =
          audit_ir
            (guarded
               (cons
                  (dcons (Ir.Var "l") (car (Ir.Var "l")) nil)
                  (Ir.App (Ir.Var "f", cdr (Ir.Var "l")))))
        in
        checkb ("VET012 in: " ^ codes ds) true (has_code "VET012" ds));
    Alcotest.test_case "unsaturated-dcons-is-VET017" `Quick (fun () ->
        let ds =
          audit_ir (guarded (app2 Ir.Dcons (Ir.Var "l") (car (Ir.Var "l"))))
        in
        checkb ("VET017 in: " ^ codes ds) true (has_code "VET017" ds));
    Alcotest.test_case "undeclared-arena-is-VET001" `Quick (fun () ->
        let ir =
          Ir.Letrec
            ( [ ("f", Ir.Lam ("l", guarded (cons (car (Ir.Var "l")) nil))) ],
              Ir.App (Ir.Var "f", app2 (Ir.ConsAt (Ir.Arena 7)) (int 1) nil) )
        in
        let s = Nml.Surface.of_string copy_src in
        let ds = fst (V.audit ~source:s ir) in
        checkb ("VET001 in: " ^ codes ds) true (has_code "VET001" ds));
    Alcotest.test_case "reopened-arena-is-VET005" `Quick (fun () ->
        let ir =
          Ir.Letrec
            ( [ ("f", Ir.Lam ("l", guarded (cons (car (Ir.Var "l")) nil))) ],
              Ir.WithArena
                ( Ir.Region,
                  2,
                  Ir.WithArena
                    ( Ir.Region,
                      2,
                      Ir.App (Ir.Var "f", app2 (Ir.ConsAt (Ir.Arena 2)) (int 1) nil)
                    ) ) )
        in
        let s = Nml.Surface.of_string copy_src in
        let ds = fst (V.audit ~source:s ir) in
        checkb ("VET005 in: " ^ codes ds) true (has_code "VET005" ds));
  ]

(* ---- dead-spine heap hints are independently re-derived -------------------- *)

let hint_tests =
  [
    Alcotest.test_case "derivable-hint-audits-clean" `Quick (fun () ->
        (* hd only ever takes the head of l: its spine past the first
           cell is dead, so the advisory hint is re-derivable *)
        let u, ir = optimize "letrec hd l = car l in hd [1, 2]" in
        let ds, sum = V.audit_unit ~hints:[ ("hd", [ 1 ]) ] u ir in
        checkb ("clean, got: " ^ codes ds) true (ds = []);
        checkb "hint was audited" true (sum.V.audited >= 1));
    Alcotest.test_case "bogus-hint-is-VET018" `Quick (fun () ->
        (* sum null-tests l and forwards its tail through cdr: the spine
           is live, so the hint must be refused *)
        let u, ir =
          optimize
            "letrec sum l = if null l then 0 else car l + sum (cdr l) in \
             sum [1, 2]"
        in
        let ds, _ = V.audit_unit ~hints:[ ("sum", [ 1 ]) ] u ir in
        checkb ("VET018 in: " ^ codes ds) true (has_code "VET018" ds));
    Alcotest.test_case "hint-for-dropped-def-is-vacuous" `Quick (fun () ->
        (* monomorphization never emits an instance of a name that does
           not exist: nothing to audit, nothing to report *)
        let u, ir = optimize "letrec hd l = car l in hd [1, 2]" in
        let ds, _ = V.audit_unit ~hints:[ ("ghost", [ 1 ]) ] u ir in
        checkb ("clean, got: " ^ codes ds) true (ds = []));
  ]

(* ---- diagnostics carry usable source locations ----------------------------- *)

let loc_tests =
  [
    Alcotest.test_case "monomorphized-defs-keep-locations" `Quick (fun () ->
        let s = Nml.Surface.of_string ~file:"m.nml" Nml.Examples.map_pair_program in
        let m = Nml.Mono.run s in
        checkb "has instances" true (m.Nml.Mono.instances <> []);
        List.iter
          (fun (name, rhs) ->
            checkb (name ^ " has a real location") false
              (Nml.Loc.is_dummy (A.loc rhs)))
          m.Nml.Mono.program.Nml.Surface.defs);
    Alcotest.test_case "injected-fault-finding-has-a-location" `Quick (fun () ->
        let s = Nml.Surface.of_string ~file:"r.nml" Nml.Examples.rev_program in
        match H.sabotage H.Widen_arena s with
        | None -> Alcotest.fail "no arena to widen in rev_program"
        | Some ir ->
            let ds, _ = V.audit ~source:s ir in
            checkb "has findings" true (D.has_errors ds);
            checkb "some finding is located" true
              (List.exists (fun d -> not (Nml.Loc.is_dummy d.D.loc)) ds));
  ]

(* ---- a let in argument position ------------------------------------------- *)

let let_defs =
  "letrec filter p l = if null l then nil else if p (car l) then cons (car l) \
   (filter p (cdr l)) else filter p (cdr l); zip a b = if null a then nil else \
   if null b then nil else cons (mkpair (car a) (car b)) (zip (cdr a) (cdr b)); \
   fsts l = if null l then nil else cons (fst (car l)) (fsts (cdr l)) in "

let let_tests =
  [
    Alcotest.test_case "let-freshness-needs-disjoint-occurrences" `Quick (fun () ->
        (* [let v = [1, 2] in body]: v inherits the literal's one fresh
           spine only where its occurrences cannot share it *)
        let t = Escape.Fixpoint.of_source copy_src in
        let depth e = Vet.Fresh.depth t ~defs:[] [] e in
        let let_v body = Ir.App (Ir.Lam ("v", body), cons (int 1) (cons (int 2) nil)) in
        checki "one occurrence: both spines fresh" 2
          (depth (let_v (cons (Ir.Var "v") nil)));
        checki "two occurrences: the inner spine is shared" 1
          (depth (let_v (cons (Ir.Var "v") (cons (Ir.Var "v") nil))));
        let proj p = Ir.App (Ir.Prim p, Ir.Var "v") in
        checki "disjoint projections: v keeps the literal's fresh spine" 1
          (depth (let_v (cons (proj A.Car) (proj A.Cdr))));
        checki "a projection and the whole: v is not fresh" 0
          (depth (let_v (cons (proj A.Car) (Ir.Var "v")))));
    Alcotest.test_case "fresh-let-argument-audits-clean" `Quick (fun () ->
        (* fsts builds a fresh list even though v is read twice: the
           destructive filter' on it is sound and must vet clean *)
        let src =
          let_defs ^ "filter (fun x -> x < 15) (let v = [1, 2] in fsts (zip v v))"
        in
        let u, ir = optimize src in
        let ds, _ = V.audit_unit u ir in
        checkb ("clean, got: " ^ codes ds) true (ds = []);
        checkb "the call is destructive" true
          (match ir with
          | Ir.Letrec (_, Ir.App (Ir.App (Ir.Var "filter'", _), Ir.App (Ir.Lam _, _)))
            ->
              true
          | _ -> false));
    Alcotest.test_case "shared-let-argument-redirect-is-VET015" `Quick (fun () ->
        (* w is read again after the call: consuming its spine is unsound,
           the optimizer keeps the copying filter, and the mutant that
           makes the call destructive is a VET015 *)
        let src =
          let_defs ^ "let w = [1, 2] in zip (filter (fun x -> x < 15) (let v = w in v)) w"
        in
        let u, ir = optimize src in
        checkb "optimizer output clean" true (fst (V.audit_unit u ir) = []);
        match
          List.find_opt
            (fun p ->
              String.starts_with ~prefix:"redirect: call 0 of filter on a shared let spine"
                p.M.label)
            (M.points u ir)
        with
        | None -> Alcotest.fail "no redirect point on the shared let spine"
        | Some p ->
            let ds, _ = V.audit_unit u (Lazy.force p.M.mutant) in
            checkb ("VET015 in: " ^ codes ds) true (has_code "VET015" ds));
    Alcotest.test_case "disjoint-let-projections-give-no-redirect" `Quick (fun () ->
        (* the main call consumes [cdr v] and the body reads only [car v]
           again: the paths are disjoint, so the destructive call the
           optimizer emits is sound.  With that call put back to the
           copying filter, the family must not offer the redirect as a
           mutant — it would survive as a false verifier bug *)
        let src =
          let_defs
          ^ "let v = [1, 2] in zip (filter (fun x -> x < 15) (cdr v)) (cons (car v) nil)"
        in
        let u, ir = optimize src in
        let rec copying = function
          | Ir.Var "filter'" -> Ir.Var "filter"
          | Ir.App (f, a) -> Ir.App (copying f, copying a)
          | Ir.Lam (x, b) -> Ir.Lam (x, copying b)
          | Ir.If (c, t, f) -> Ir.If (copying c, copying t, copying f)
          | e -> e
        in
        let ir =
          match ir with
          | Ir.Letrec (ds, main) -> Ir.Letrec (ds, copying main)
          | _ -> Alcotest.fail "no definitions"
        in
        checkb "copying main vets clean" true (fst (V.audit_unit u ir) = []);
        let pts = M.points u ir in
        checkb "filter' is defined: filter is a redirect target" true
          (match ir with Ir.Letrec (ds, _) -> List.mem_assoc "filter'" ds | _ -> false);
        checkb "no redirect point on a let spine" false
          (List.exists
             (fun p ->
               String.starts_with ~prefix:"redirect: call 0 of filter on a shared let spine"
                 p.M.label)
             pts));
  ]

let () =
  Alcotest.run "vet"
    [
      ("agreement", agreement_tests);
      ("qcheck", [ QCheck_alcotest.to_alcotest qcheck_agreement ]);
      ("mutation", mutation_tests);
      ("findings", unit_tests);
      ("hints", hint_tests);
      ("locations", loc_tests);
      ("let-argument", let_tests);
    ]
