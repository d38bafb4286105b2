(* pb -- the benchmark's in-process helper, linked against the
   toolchain's own libraries.

     pb gen WORKLOAD SEED DIR   write the workload's programs to DIR, plus
                                DIR/manifest.json with each program's
                                references (Nml.Eval value, golden report,
                                storeless analysis)
     pb refs LIST.json          storeless analyze/lint answers for snapshots
     pb chain MANIFEST TRACE    the per-layer chain over every program:
                                untraced and traced passes, spans written
                                to TRACE (Chrome trace-event JSON), the
                                summary printed on stdout
     pb replay SEQ.json         replay a daemon request sequence through
                                Cache.Batch / Lint.Batch with a store

   Every JSON document this prints is one line on stdout; run.py parses
   it.  Times are integer nanoseconds. *)

module J = Nml.Json
module Ex = Nml.Examples
module Fix = Escape.Fixpoint
module T = Optimize.Transform

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("pb: " ^ m); exit 2) fmt
let read_file f = In_channel.with_open_bin f In_channel.input_all
let write_file f s = Out_channel.with_open_bin f (fun oc -> output_string oc s)
let now () = Unix.gettimeofday ()
let ns_of s = J.int (int_of_float (s *. 1e9))

let str k j =
  match J.member k j with Some (J.Str s) -> s | _ -> fail "missing string field %s" k

let arr k j = match J.member k j with Some (J.Arr a) -> a | _ -> fail "missing array %s" k

(* whitespace-free rendering: Format line breaks depend on the column the
   value starts at, so references compare values with all blanks removed *)
let value_key v =
  String.concat ""
    (String.split_on_char ' '
       (String.concat "" (String.split_on_char '\n' (Format.asprintf "%a" Nml.Eval.pp_value v))))

(* ---- input generation ------------------------------------------------------ *)

type program = { name : string; src : string; golden : string }

let wrap = Ex.wrap

(* in-program data: the MINSTD generator built with [mod], so a large
   input costs a handful of source bytes and parsing stays trivial; few
   duplicates, so sorting cost varies little with the seed *)
let gen_def =
  "gen s n = if n = 0 then nil else cons (s mod 100000) (gen ((s * 48271) mod 2147483647) (n - 1))"

(* order-sensitive checksum, so a wrong permutation cannot pass *)
let chk_def = "chk a l = if null l then a else chk ((a * 31 + car l) mod 1000003) (cdr l)"

(* S1 and S2 of bench/main.ml: a wide chain of non-recursive wrappers and
   a nest of mutually dependent recursions *)
let wide_chain n =
  wrap
    (List.init n (fun i ->
         if i = 0 then "w0 x = cons 0 x" else Printf.sprintf "w%d x = w%d (cons %d x)" i (i - 1) i))
    (Printf.sprintf "w%d [1, 2]" (n - 1))

let deep_recursion k =
  wrap
    (List.init k (fun i ->
         if i = 0 then "f0 x y = if null x then y else cons (car x) (f0 (cdr x) y)"
         else
           Printf.sprintf "f%d x y = if null x then f%d y x else f%d (cdr x) (cons (car x) y)" i
             (i - 1) i))
    (Printf.sprintf "f%d [1, 2, 3] [4, 5]" (k - 1))

let def_src name = List.assoc name Ex.all_defs

(* definitions a stage needs beyond the ones it names *)
let deps = function
  | "rev" | "concat" | "flatten" | "ps" -> [ "append" ]
  | "isort" -> [ "insert" ]
  | _ -> []

let def_order = List.map fst Ex.all_defs

let plain name src = { name; src = src ^ "\n"; golden = "" }
let ps_stage = 5

(* A composition is a producer, int-list stages and optionally a
   consumer.  Every stage is total on every int list, so each one
   terminates.  The stages span first- and higher-order code, spine depth
   1-3, pairs and trees. *)

let composition rng ~stages:picked ~consumer ~literal ~extra =
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  (* a stage that uses its input twice binds it with a [let] where it
     stands, so the binding is often the argument of the next stage *)
  let lets = ref 0 in
  let bind e use =
    incr lets;
    let v = Printf.sprintf "v%d" !lets in
    Printf.sprintf "let %s = %s in %s" v e (use v)
  in
  let producer () =
    if literal then
      ([], Printf.sprintf "[%s]" (String.concat ", " (List.init 6 (fun _ -> string_of_int (int 0 20)))))
    else ([ "create_list" ], "create_list 6")
  in
  let stages =
    [|
      (fun e -> ([ "map" ], Printf.sprintf "map (fun x -> x + %d) (%s)" (int 1 9) e));
      (fun e -> ([ "map" ], Printf.sprintf "map (fun x -> x * %d) (%s)" (int 2 5) e));
      (fun e -> ([ "filter" ], Printf.sprintf "filter (fun x -> x < %d) (%s)" (int 6 30) e));
      (fun e -> ([ "rev" ], Printf.sprintf "rev (%s)" e));
      (fun e -> ([ "isort" ], Printf.sprintf "isort (%s)" e));
      (fun e -> ([ "split"; "ps" ], Printf.sprintf "ps (%s)" e));
      (fun e -> ([ "take" ], Printf.sprintf "take %d (%s)" (int 2 6) e));
      (fun e -> ([ "drop" ], Printf.sprintf "drop %d (%s)" (int 1 3) e));
      (fun e -> ([ "append"; "create_list" ], Printf.sprintf "append (%s) (create_list %d)" e (int 1 4)));
      (fun e -> ([ "flatten"; "foldr"; "tinsert" ], Printf.sprintf "flatten (foldr tinsert leaf (%s))" e));
      (fun e ->
        ( [ "flatten"; "mirror"; "foldr"; "tinsert" ],
          Printf.sprintf "flatten (mirror (foldr tinsert leaf (%s)))" e ));
      (fun e ->
        ( [ "flatten"; "tmap"; "foldr"; "tinsert" ],
          Printf.sprintf "flatten (tmap (fun n -> n + %d) (foldr tinsert leaf (%s)))" (int 1 9) e ));
      (fun e -> ([ "zip"; "fsts"; "rev" ], bind e (fun v -> Printf.sprintf "fsts (zip %s (rev %s))" v v)));
      (fun e ->
        let k = int 1 9 in
        ([ "zip"; "snds"; "map" ], bind e (fun v -> Printf.sprintf "snds (zip %s (map (fun x -> x + %d) %s))" v k v)));
      (fun e ->
        ( [ "concat"; "map"; "pair" ],
          Printf.sprintf "concat (map pair (map (fun x -> cons x (cons (x + %d) nil)) (%s)))"
            (int 1 9) e ));
      (fun e ->
        ( [ "concat"; "map" ],
          Printf.sprintf "concat (map (fun y -> car y) (map (fun x -> cons (cons x (cons %d nil)) nil) (%s)))"
            (int 0 9) e ));
      (fun e -> ([ "foldr" ], Printf.sprintf "foldr (fun a b -> cons (a + %d) b) nil (%s)" (int 1 9) e));
      (fun e ->
        ( [ "compose"; "map"; "filter" ],
          Printf.sprintf "compose (map (fun x -> x + %d)) (filter (fun x -> x < %d)) (%s)" (int 1 9)
            (int 6 30) e ));
    |]
  in
  let consumers =
    [|
      (fun e -> ([ "sum" ], Printf.sprintf "sum (%s)" e));
      (fun e -> ([ "length" ], Printf.sprintf "length (%s)" e));
      (fun e -> ([ "foldr" ], Printf.sprintf "foldr (fun a b -> a + b) 0 (%s)" e));
      (fun e -> ([ "tsum"; "foldr"; "tinsert" ], Printf.sprintf "tsum (foldr tinsert leaf (%s))" e));
      (fun e ->
        let k = int 0 20 in
        ([ "assoc"; "zip" ], bind e (fun v -> Printf.sprintf "assoc 0 %d (zip %s %s)" k v v)));
      (fun e -> ([ "member" ], Printf.sprintf "member %d (%s)" (int 0 20) e));
    |]
  in
  let used, e = producer () in
  let used = ref used and e = ref e in
  let apply f =
    let u, e' = f !e in
    used := u @ !used;
    e := e'
  in
  List.iter (fun i -> apply stages.(i)) picked;
  Option.iter (fun i -> apply consumers.(i)) consumer;
  (* an unused definition widens the definition count the solver sees *)
  used := extra :: !used;
  let rec close names =
    let more = List.concat_map deps names in
    if List.for_all (fun d -> List.mem d names) more then names
    else close (List.sort_uniq compare (names @ more))
  in
  let names = close (List.sort_uniq compare !used) in
  let defs = List.filter (fun d -> List.mem d names) def_order in
  wrap (List.map def_src defs) !e

let stage_kinds = 18
let consumer_kinds = 6
let extras = [| "length"; "sum"; "take"; "drop"; "nth"; "create_list"; "tsum"; "swap"; "konst"; "last" |]

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l |> List.sort compare |> List.map snd

let well_typed src =
  match Nml.Infer.infer_program (Nml.Surface.of_string src) with
  | _ -> true
  | exception Nml.Infer.Error _ -> false

(* 24 compositions.  Their shapes -- which stages, in which order, with
   which consumer and which unused definition -- come from a fixed
   generator, the same for every seed; the seed draws every literal: list
   contents, constants, thresholds, take/drop counts.  Solver and
   optimizer cost follow the shape, so the percentiles of a run move with
   the seed only as much as the data moves them.  Partition sort's solve
   dominates the analysis cost of any program that contains it (~100 ms
   against ~5-50 ms), so exactly 6 compositions contain [ps]: with the
   two fixed partition-sort programs that is 8 of the corpus's 57, which
   puts every p90 inside that plateau instead of on its edge.  The other
   66 stages are dealt from four copies of the other 17 kinds; half the
   compositions end in a consumer, each kind twice. *)
let compositions rng =
  let shape = Random.State.make [| 0x5eed |] in
  let deck =
    ref (shuffle shape (List.concat (List.init 4 (fun _ -> List.filter (( <> ) ps_stage) (List.init stage_kinds Fun.id)))))
  in
  let deal k =
    let hand = List.filteri (fun i _ -> i < k) !deck in
    deck := List.filteri (fun i _ -> i >= k) !deck;
    hand
  in
  let consumers = ref (shuffle shape (List.concat (List.init 2 (fun _ -> List.init consumer_kinds Fun.id)))) in
  List.init 24 (fun i ->
      let stages = if i < 6 then shuffle shape (ps_stage :: deal 2) else deal 3 in
      let consumer =
        if i mod 2 = 0 then (
          let c = List.hd !consumers in
          consumers := List.tl !consumers;
          Some c)
        else None
      in
      let extra = extras.(Random.State.int shape (Array.length extras)) in
      let src = composition rng ~stages ~consumer ~literal:(i mod 4 >= 2) ~extra in
      if not (well_typed src) then fail "composition %d does not type-check" i;
      plain (Printf.sprintf "composition-%02d" i) src)

let examples () =
  let dir = "examples/programs" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".nml")
  |> List.sort compare
  |> List.map (fun f ->
         let base = Filename.chop_suffix f ".nml" in
         {
           name = "example-" ^ base;
           src = read_file (Filename.concat dir f);
           golden = Printf.sprintf "test/golden/%s.report" base;
         })

(* A [let] as the argument of a call the sharing analysis licenses for
   reuse: [nmlc vet] reports VET015 on the optimizer's own output here
   (README.md, "Findings"), so this program's vet fails until the
   optimizer or the verifier is fixed. *)
let let_argument =
  wrap
    [
      "filter p l = if null l then nil else if p (car l) then cons (car l) (filter p (cdr l)) else \
       filter p (cdr l)";
      "zip a b = if null a then nil else if null b then nil else cons (mkpair (car a) (car b)) (zip \
       (cdr a) (cdr b))";
      "fsts l = if null l then nil else cons (fst (car l)) (fsts (cdr l))";
    ]
    "filter (fun x -> x < 15) (let v = [1, 2] in fsts (zip v v))"

(* the one program whose optimized run fills the generational nursery
   (1024 cells) and collects, so gc_work has a baseline here too *)
let nursery rng =
  wrap
    [ def_src "create_list"; def_src "map"; def_src "sum" ]
    (Printf.sprintf "sum (map (fun x -> x + %d) (create_list 1500))" (1 + Random.State.int rng 9))

(* compile-corpus: every shipped example, the whole harness corpus,
   three wide chains, three recursion nests, the let-argument program,
   the nursery program and 24 compositions, of which only the literals
   are drawn *)
let compile_corpus rng =
  examples ()
  @ List.map (fun (n, src) -> plain ("builtin-" ^ n) src) Check.Harness.builtin_corpus
  @ List.map (fun n -> plain (Printf.sprintf "wide-chain-%d" n) (wide_chain n)) [ 12; 18; 24 ]
  @ List.map (fun k -> plain (Printf.sprintf "deep-recursion-%d" k) (deep_recursion k)) [ 3; 5; 7 ]
  @ [ plain "let-argument" let_argument; plain "nursery-1500" (nursery rng) ]
  @ compositions rng

(* execute: six families with large inputs, sized so that execution is at
   least 80% of the in-process chain; only the generator seeds are drawn *)
let execute rng =
  let s () = 1 + Random.State.int rng 60000 in
  let p name defs main = plain name (wrap (List.map def_src defs @ [ gen_def; chk_def ]) main) in
  [
    p "reverse" [ "append"; "rev" ] (Printf.sprintf "chk 0 (rev (gen %d 900))" (s ()));
    p "partition-sort" [ "append"; "split"; "ps" ] (Printf.sprintf "chk 0 (ps (gen %d 6000))" (s ()));
    p "stream" [ "map"; "filter"; "sum" ]
      (Printf.sprintf "sum (map (fun x -> x + 1) (filter (fun x -> x < 50000) (gen %d 20000)))" (s ()));
    p "insertion-sort" [ "map"; "filter"; "insert"; "isort" ]
      (Printf.sprintf "chk 0 (isort (map (fun x -> x * x) (filter (fun x -> x < 50000) (gen %d 1600))))"
         (s ()));
    p "bst" [ "append"; "foldr"; "tinsert"; "mirror"; "flatten" ]
      (Printf.sprintf "chk 0 (flatten (mirror (foldr tinsert leaf (gen %d 3000))))" (s ()));
    p "map-pair" [ "append"; "map"; "pair"; "concat" ]
      (Printf.sprintf
         "chk 0 (concat (map pair (map (fun x -> cons x (cons (x + 1) nil)) (gen %d 8000))))" (s ()));
  ]

let programs workload seed =
  let rng = Random.State.make [| seed; 0x9e37 |] in
  match workload with
  | "compile-corpus" -> compile_corpus rng
  | "execute" -> execute rng
  | w -> fail "unknown workload %s" w

let storeless path src = (Cache.Batch.analyze_source ~path src).Cache.Batch.output

let gen workload seed dir =
  let entries =
    List.map
      (fun p ->
        let file = Filename.concat dir (p.name ^ ".nml") in
        write_file file p.src;
        let s = Nml.Surface.of_string ~file p.src in
        J.Obj
          [
            ("name", J.Str p.name);
            ("file", J.Str file);
            ("value", J.Str (value_key (Nml.Eval.run s)));
            ("golden", J.Str p.golden);
            ("analyze", J.Str (storeless file p.src));
          ])
      (programs workload seed)
  in
  write_file (Filename.concat dir "manifest.json")
    (J.to_string (J.Obj [ ("workload", J.Str workload); ("programs", J.Arr entries) ]))

(* ---- storeless references for daemon answers ---------------------------------- *)

let answer (r : Cache.Batch.result) =
  J.Obj [ ("output", J.Str r.Cache.Batch.output); ("code", J.int r.Cache.Batch.code) ]

(* Entries are independent, so they are spread over two domains with the
   batch pool; each job is named by its index into the list. *)
let refs list =
  let entries =
    Array.of_list
      (match J.parse (read_file list) with J.Arr a -> a | _ -> fail "refs: expected an array")
  in
  let analyze ~store:_ idx =
    let e = entries.(int_of_string idx) in
    let path = str "path" e and src = read_file (str "file" e) in
    match str "kind" e with
    | "analyze" -> Cache.Batch.analyze_source ~path src
    | "lint" -> Lint.Batch.analyze_source ~store:None ~path src
    | k -> fail "unknown kind %s" k
  in
  let results = Cache.Batch.run ~analyze ~jobs:2 (List.init (Array.length entries) string_of_int) in
  print_string (J.to_string (J.Arr (List.map answer results)))

(* ---- spans and counters ---------------------------------------------------------- *)

module Trace = struct
  type span = { id : int; name : string; parent : int; prog : string; start : float; stop : float }

  let on = ref false
  let spans = ref []
  let next = ref 0
  let stack = ref [ 0 ]
  let prog = ref ""
  let counters : (string, float) Hashtbl.t = Hashtbl.create 64

  let span name f =
    if not !on then f ()
    else begin
      incr next;
      let id = !next and parent = List.hd !stack in
      stack := id :: !stack;
      let start = now () in
      Fun.protect
        ~finally:(fun () ->
          let stop = now () in
          stack := List.tl !stack;
          spans := { id; name; parent; prog = !prog; start; stop } :: !spans)
        f
    end

  let add name v =
    if !on then
      Hashtbl.replace counters name (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

  let max name v =
    if !on then
      Hashtbl.replace counters name
        (Float.max v (Option.value ~default:0. (Hashtbl.find_opt counters name)))
end

let addi name v = Trace.add name (float_of_int v)

(* ---- the per-layer chain ---------------------------------------------------------- *)

let applications t =
  let s = Fix.stats t in
  (s.Fix.stats_cache_hits + s.Fix.stats_cache_misses, s.Fix.stats_cache_hits)

let word_bytes = float_of_int (Sys.word_size / 8)

(* One program through every layer in pipeline order: the stages of
   Transform.optimize taken apart (mono, infer, escape solve, optimize over
   the stabilized solver), the sibling solves, both lowerings, the three
   executions the workloads time and the vet audit.  Returns whether a
   result disagreed with the reference and whether the audit reported a
   finding. *)
let chain_one (name, file, expect) =
  let span = Trace.span in
  Trace.prog := name;
  span "program" @@ fun () ->
  let bad = ref 0 in
  let check v =
    if not (String.equal (value_key v) expect) then begin
      Printf.eprintf "pb: %s: result %s, expected %s\n%!" name (value_key v) expect;
      incr bad
    end
  in
  let src = read_file file in
  let s = span "nml.parse" (fun () -> Nml.Surface.of_string ~file src) in
  let mono = (span "nml.mono" (fun () -> Nml.Mono.run s)).Nml.Mono.program in
  addi "nml.mono.defs" (List.length mono.Nml.Surface.defs);
  let prog = span "nml.infer" (fun () -> Nml.Infer.infer_program mono) in
  let t =
    span "escape.solve" (fun () ->
        let w0 = Gc.allocated_bytes () in
        let t = Fix.make prog in
        Fix.stabilize t;
        ignore (Escape.Report.summarize_program t);
        Trace.add "escape.alloc_words" ((Gc.allocated_bytes () -. w0) /. word_bytes);
        t)
  in
  let apps, hits = applications t in
  addi "escape.evaluations" (Fix.stats t).Fix.stats_evaluations;
  addi "escape.applications" apps;
  addi "escape.memo_hits" hits;
  span "sharing.solve" (fun () ->
      let a = Framework.Alias.Solver.make prog in
      List.iter (fun (d, _) -> ignore (Framework.Alias.report a d)) mono.Nml.Surface.defs;
      addi "sharing.evaluations" (Framework.Alias.Solver.evaluations a));
  let hints =
    span "spinelive.solve" (fun () ->
        Framework.Spinelive.dead_spine_params (Framework.Spinelive.Solver.make prog))
  in
  let r = span "optimize" (fun () -> T.optimize_with t { T.all with T.pretenure = true } mono) in
  addi "optimize.escape_applications" (fst (applications t) - apps);
  (match r.T.reuse_report with
  | Some rr ->
      List.iter
        (fun c ->
          addi "optimize.reuse_sites"
            (List.length c.Optimize.Reuse.sites + List.length c.Optimize.Reuse.node_sites))
        rr.Optimize.Reuse.candidates
  | None -> ());
  (match r.T.stack_report with
  | Some sr -> addi "optimize.stack_sites" (List.length sr.Optimize.Stackalloc.annotations)
  | None -> ());
  (match r.T.block_report with
  | Some br -> addi "optimize.block_sites" (List.length br.Optimize.Blockalloc.annotations)
  | None -> ());
  addi "optimize.pretenure_sites" r.T.pretenure_sites;
  span "backend.lower" (fun () -> ignore (Backend.Closure.convert (Backend.Anf.lower r.T.ir)));
  let code = span "backend.compile" (fun () -> Backend.Vm.compile r.T.ir) in
  let config = { Runtime.Heap.generational with Runtime.Heap.liveness_hints = hints } in
  let vm = Backend.Vm.create ~config () in
  let v = span "vm.exec" (fun () -> Backend.Vm.eval vm code) in
  check (Backend.Vm.read_value vm v);
  let st = Backend.Vm.stats vm in
  let open Runtime.Stats in
  addi "vm.steps" st.steps;
  addi "heap.dcons_reuses" st.dcons_reuses;
  addi "heap.arena_allocs" st.arena_allocs;
  addi "heap.minor_gcs" st.minor_gcs;
  addi "heap.major_gcs" st.major_gcs;
  addi "heap.promoted" st.promoted;
  addi "heap.gc_work" (gc_work st);
  (match pause_percentiles_cells st with
  | Some (_, _, mx) -> Trace.max "heap.pause_cells.max" (float_of_int mx)
  | None -> ());
  Trace.max "heap.peak_live" (float_of_int st.peak_live);
  let m = Runtime.Machine.create ~config () in
  let w = span "machine.exec" (fun () -> Runtime.Machine.eval m r.T.ir) in
  check (Runtime.Machine.read_value m w);
  addi "machine.steps" (Runtime.Machine.stats m).steps;
  (* the unoptimized run: no analysis, legacy heap *)
  let base = span "backend.compile" (fun () -> Backend.Vm.compile (Runtime.Ir.of_program s)) in
  let bvm = Backend.Vm.create () in
  let bv = span "vm.exec" (fun () -> Backend.Vm.eval bvm base) in
  check (Backend.Vm.read_value bvm bv);
  addi "vm.steps" (Backend.Vm.stats bvm).steps;
  let _, summary = span "vet.audit" (fun () -> Vet.Verify.audit ~hints ~source:s r.T.ir) in
  let findings = summary.Vet.Verify.findings in
  if findings > 0 then Printf.eprintf "pb: %s: vet reports %d finding(s)\n%!" name findings;
  (!bad > 0, findings > 0)

let chain manifest trace_file =
  let progs =
    List.map
      (fun p -> (str "name" p, str "file" p, str "value" p))
      (arr "programs" (J.parse (read_file manifest)))
  in
  let pass traced =
    Gc.compact ();
    Trace.on := traced;
    Trace.spans := [];
    Hashtbl.reset Trace.counters;
    let t0 = now () in
    let bad =
      List.fold_left
        (fun (w, f) ((name, _, _) as p) ->
          let bad, findings = chain_one p in
          ((if bad then name :: w else w), if findings then name :: f else f))
        ([], []) progs
    in
    let dt = now () -. t0 in
    Trace.on := false;
    let covered =
      List.fold_left
        (fun acc sp -> if sp.Trace.name = "program" then acc else acc +. (sp.Trace.stop -. sp.Trace.start))
        0. !Trace.spans
    in
    (dt, covered, bad)
  in
  (* untraced and traced passes alternate, three pairs; the pairwise
     differences give the tracing overhead and the part of the untraced
     chain no layer span covers *)
  let pairs =
    List.init 3 (fun _ ->
        let u, _, (wu, fu) = pass false in
        let t, covered, (wt, ft) = pass true in
        (u, t, covered, (wu @ wt, fu @ ft)))
  in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  (* the programs whose results check or audit failed on some pass *)
  let wrong, findings =
    List.fold_left (fun (w, f) (_, _, _, (w', f')) -> (w @ w', f @ f')) ([], []) pairs
  in
  let names l = J.Arr (List.map (fun n -> J.Str n) (List.sort_uniq compare l)) in
  let spans = List.rev !Trace.spans in
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      Hashtbl.replace child_ns sp.Trace.parent
        (sp.Trace.stop -. sp.Trace.start
        +. Option.value ~default:0. (Hashtbl.find_opt child_ns sp.Trace.parent)))
    spans;
  let sum_by key value =
    let h = Hashtbl.create 32 in
    List.iter
      (fun sp ->
        let k = key sp in
        Hashtbl.replace h k (value sp +. Option.value ~default:0. (Hashtbl.find_opt h k)))
      spans;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare
  in
  let dur sp = sp.Trace.stop -. sp.Trace.start in
  let self sp =
    dur sp -. Option.value ~default:0. (Hashtbl.find_opt child_ns sp.Trace.id)
  in
  let obj l = J.Obj (List.map (fun (k, v) -> (k, ns_of v)) l) in
  let layers = List.filter (fun (k, _) -> k <> "program") (sum_by (fun sp -> sp.Trace.name) dur) in
  let per_program =
    sum_by (fun sp -> sp.Trace.prog ^ "\t" ^ sp.Trace.name) dur
    |> List.filter_map (fun (k, v) ->
           match String.split_on_char '\t' k with
           | [ p; n ] when n <> "program" -> Some (J.Obj [ ("program", J.Str p); ("layer", J.Str n); ("ns", ns_of v) ])
           | _ -> None)
  in
  let t_base = match spans with [] -> 0. | sp :: _ -> sp.Trace.start in
  let events =
    List.map
      (fun sp ->
        J.Obj
          [
            ("name", J.Str sp.Trace.name);
            ("ph", J.Str "X");
            ("ts", J.Num (Float.round ((sp.Trace.start -. t_base) *. 1e6)));
            ("dur", J.Num (Float.round (dur sp *. 1e6)));
            ("pid", J.int 1);
            ("tid", J.int 1);
            ( "args",
              J.Obj
                [ ("id", J.int sp.Trace.id); ("parent", J.int sp.Trace.parent); ("program", J.Str sp.Trace.prog) ] );
          ])
      spans
  in
  let counters =
    Hashtbl.fold (fun k v acc -> (k, J.Num v) :: acc) Trace.counters [] |> List.sort compare
  in
  write_file trace_file
    (J.to_string
       (J.Obj [ ("traceEvents", J.Arr events); ("otherData", J.Obj [ ("counters", J.Obj counters) ]) ]));
  print_string
    (J.to_string
       (J.Obj
          [
            ("untraced_ns", ns_of (median (List.map (fun (u, _, _, _) -> u) pairs)));
            ("traced_ns", ns_of (median (List.map (fun (_, t, _, _) -> t) pairs)));
            ("gap_ns", ns_of (median (List.map (fun (u, _, c, _) -> u -. c) pairs)));
            ("overhead_ns", ns_of (median (List.map (fun (u, t, _, _) -> t -. u) pairs)));
            ("wrong", names wrong);
            ("findings", names findings);
            ("layers", obj layers);
            ("self", obj (sum_by (fun sp -> sp.Trace.name) self));
            ("counters", J.Obj counters);
            ("programs", J.Arr per_program);
          ]))

(* ---- cache replay ------------------------------------------------------------------ *)

let replay seq =
  let j = J.parse (read_file seq) in
  let store = Cache.Store.create ~memory:true ~write_back:true (str "cache" j) in
  let run kind path src =
    match kind with
    | "analyze" -> Cache.Batch.analyze_source ~store ~path src
    | "lint" -> Lint.Batch.analyze_source ~store:(Some store) ~path src
    | k -> fail "unknown kind %s" k
  in
  List.iter
    (fun w ->
      let path = str "path" w and src = read_file (str "file" w) in
      ignore (run "analyze" path src);
      ignore (run "lint" path src))
    (arr "warm" j);
  let out =
    List.map
      (fun r ->
        let src = read_file (str "file" r) in
        let t0 = now () in
        let res = run (str "kind" r) (str "path" r) src in
        let dt = now () -. t0 in
        J.Obj
          [
            ("ns", ns_of dt);
            ("evaluations", J.int res.Cache.Batch.evaluations);
            ("scc_hits", J.int res.Cache.Batch.scc_hits);
            ("scc_misses", J.int res.Cache.Batch.scc_misses);
          ])
      (arr "requests" j)
  in
  print_string (J.to_string (J.Arr out))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; w; seed; dir ] -> gen w (int_of_string seed) dir
  | [ "refs"; list ] -> refs list
  | [ "chain"; manifest; trace ] -> chain manifest trace
  | [ "replay"; seq ] -> replay seq
  | _ -> fail "usage: pb gen WORKLOAD SEED DIR | refs LIST | chain MANIFEST TRACE | replay SEQ"
