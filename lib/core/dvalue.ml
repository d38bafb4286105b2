module Ty = Nml.Ty

(* ---- dependency sources ------------------------------------------------- *)

(* A [source] is a generation-stamped cell of mutable analysis state (one
   per fixpoint entry).  Computations register the sources they read in
   the innermost open frame; a memoized application records its read set
   and is discarded only when one of those sources has since been
   touched — the selective replacement for wholesale cache clearing. *)

type source = { sid : int; mutable gen : int }

(* Source ids are process-global atomics: a solver maps them back to
   entries, so two states colliding on an id would alias unrelated
   entries. *)
let next_sid = Atomic.make 0
let new_source () = { sid = Atomic.fetch_and_add next_sid 1 + 1; gen = 0 }
let touch s = s.gen <- s.gen + 1
let source_id s = s.sid

(* ---- values ------------------------------------------------------------- *)

(* An arrow value whose parameter is base-shaped carries [tab]: its
   applications live in a lazily grown array of cells indexed by the
   argument's position in B_e (an argument of that shape is determined
   by its basic escape value, so the index is an exact key).  Every
   other arrow value is memoized in the state's hash table under
   (id, argument key).  A cell is a memo entry: pending/re-entered
   flags and the sources its computation read. *)
type t = {
  id : int;
  ty : Ty.t;
  esc : Besc.t;
  app : t -> t;
  prod : (t * t) option;
  tab : tab option;
}

and tab = {
  mutable cells : centry option array;
  mutable epoch : int;  (* the state's [clear_cache] epoch the cells belong to *)
  staged : bool;
      (* a trie-internal stage: a cell holds the next stage, built once
         with no pending bookkeeping (building it reads nothing and
         cannot re-enter) *)
}

and centry = {
  mutable value : t;
  mutable complete : bool;
  mutable reentered : bool;
  mutable sources : (source * int) list;
      (* sources read while computing, with the generation read; the
         entry is stale as soon as any of them has been touched since *)
  mutable approx : source option;
      (* the entry's own approximation while it is pending, made on the
         first cyclic re-entry: whatever completes after reading it is
         stale once the approximation grows *)
}

exception Err_applied

let err _ = raise Err_applied

(* Value ids are process-global and atomic, so two solver states — even
   in different domains — never mint the same id.  An id names one
   function: values that depend only on their type are interned per
   state (one id each), and a copy that changes only the first component
   or the type keeps the behaviour — and the cells — of its original. *)
let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1 + 1

let base_param ty =
  match Ty.shape ty with
  | Ty.Sarrow (a, _) -> ( match Ty.shape a with Ty.Sbase -> true | _ -> false)
  | Ty.Sbase | Ty.Sprod _ -> false

let new_tab ~staged = Some { cells = [||]; epoch = 0; staged }

let make ~prod ~ty ~esc ~app =
  let tab = if base_param ty then new_tab ~staged:false else None in
  { id = fresh_id (); ty; esc; app; prod; tab }

let v ~ty ~esc ~app = make ~prod:None ~ty ~esc ~app

let stage ~ty ~esc ~next =
  if base_param ty then
    { id = fresh_id (); ty; esc; app = next; prod = None; tab = new_tab ~staged:true }
  else v ~ty ~esc ~app:next

let base ~ty esc = v ~ty ~esc ~app:err
let pair ~ty ~esc (a, b) = make ~prod:(Some (a, b)) ~ty ~esc ~app:err

let with_esc esc t =
  if Besc.equal esc t.esc then t else { t with id = fresh_id (); esc }

let with_ty ty t = { t with ty }

type frame = { reads : (int, source * int) Hashtbl.t; isolated : bool }

(* ---- solver state --------------------------------------------------------- *)

(* Everything mutable the application engine works over, hoisted out of
   module-level globals so each solver owns one and two solvers — in one
   domain or in different domains — cannot interfere.  The members:

   - [d]: the chain bound, the largest spine count seen so far;
   - [epoch]: the generation of the cell tables ([clear_cache] bumps it);
   - [frames]: the stack of open read frames;
   - [intern_table]: one physical value, hence one id, per primitive and
     type, per arrow-typed bottom, per probe/worst-case (esc, type);
   - [cache]: the application memo of arrow values without cells;
   - [probe_table]: probe families per (d, type);
   - hit/miss/invalidation counters (cells and memo alike).

   The cells of tabulated values live in the values themselves; a value
   belongs to the state it was built in. *)

type arg_key = Kbase of Besc.t | Kfun of int | Kprod of Besc.t * arg_key * arg_key

(* Keys of the intern table: every value that depends only on its type
   (and a few first-order parameters) is built once per state, so it
   keeps one id and its applications hit the memo.  Hashing follows
   {!Ty.hash}, which costs a walk of the (small) type — far cheaper than
   printing it. *)
type component = Cfst | Csnd

module Ikey = struct
  type t =
    | Iprim of Nml.Ast.prim * Ty.t
    | Ibottom of Ty.t
    | Iw of Besc.t * Ty.t
    | Iinteresting of Ty.t
    | Iboring of Ty.t
    | Icomponent of component list * Ty.t

  let equal a b =
    match (a, b) with
    | Iprim (p, t), Iprim (q, u) -> p = q && Ty.equal t u
    | Ibottom t, Ibottom u | Iinteresting t, Iinteresting u | Iboring t, Iboring u ->
        Ty.equal t u
    | Iw (e, t), Iw (f, u) -> Besc.equal e f && Ty.equal t u
    | Icomponent (p, t), Icomponent (q, u) -> p = q && Ty.equal t u
    | (Iprim _ | Ibottom _ | Iw _ | Iinteresting _ | Iboring _ | Icomponent _), _ ->
        false

  let hash = function
    | Iprim (p, t) -> Hashtbl.hash (0, p, Ty.hash t)
    | Ibottom t -> Hashtbl.hash (1, Ty.hash t)
    | Iw (e, t) -> Hashtbl.hash (2, e, Ty.hash t)
    | Iinteresting t -> Hashtbl.hash (3, Ty.hash t)
    | Iboring t -> Hashtbl.hash (4, Ty.hash t)
    | Icomponent (p, t) -> Hashtbl.hash (5, p, Ty.hash t)
end

module Itbl = Hashtbl.Make (Ikey)

module Ptbl = Hashtbl.Make (struct
  type t = int * Ty.t

  let equal (d, t) (d', u) = d = d' && Ty.equal t u
  let hash (d, t) = Hashtbl.hash (d, Ty.hash t)
end)

type state = {
  mutable d : int;
  mutable epoch : int;  (* bumped by [clear_cache]: older cells are dropped *)
  mutable frames : frame list;
  intern_table : t Itbl.t;
  cache : (int * arg_key, centry) Hashtbl.t;
  probe_table : t list Ptbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable invalidated : int;
}

let create_state () =
  {
    d = 0;
    epoch = 0;
    frames = [];
    intern_table = Itbl.create 64;
    cache = Hashtbl.create 4096;
    probe_table = Ptbl.create 64;
    hits = 0;
    misses = 0;
    invalidated = 0;
  }

(* The ambient state is domain-local: a domain that never installs a
   state (unit tests poking at values directly, the kleene trace) gets a
   private default, and worker domains of the batch driver are
   shared-nothing by construction. *)
let ambient : state Domain.DLS.key = Domain.DLS.new_key create_state
let current_state () = Domain.DLS.get ambient

let with_state s f =
  let old = Domain.DLS.get ambient in
  Domain.DLS.set ambient s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient old) f

(* ---- chain bound ------------------------------------------------------- *)

let ensure_d d =
  let st = current_state () in
  if d > st.d then st.d <- d

let current_d () = (current_state ()).d

(* ---- read frames ---------------------------------------------------------- *)

(* Keep the generation of the *first* read: if the source moved on since,
   the computation that used the older value must be considered stale. *)
let note_read_gen s g =
  match (current_state ()).frames with
  | [] -> ()
  | f :: _ -> if not (Hashtbl.mem f.reads s.sid) then Hashtbl.add f.reads s.sid (s, g)

let note_read s = note_read_gen s s.gen

let push_frame ~isolated =
  let st = current_state () in
  st.frames <- { reads = Hashtbl.create 8; isolated } :: st.frames

let pop_frame ?except () =
  let st = current_state () in
  match st.frames with
  | [] -> []
  | f :: rest ->
      st.frames <- rest;
      Option.iter (fun s -> Hashtbl.remove f.reads s.sid) except;
      let srcs = Hashtbl.fold (fun _ sg acc -> sg :: acc) f.reads [] in
      (* an application's reads are also reads of whatever computation
         encloses it; an isolated frame (a solver evaluating one entry)
         keeps them to itself *)
      if not f.isolated then List.iter (fun (s, g) -> note_read_gen s g) srcs;
      srcs

let with_reads fn =
  push_frame ~isolated:true;
  match fn () with
  | v -> (v, pop_frame ())
  | exception exn ->
      ignore (pop_frame ());
      raise exn

(* ---- interning ----------------------------------------------------------- *)

(* Probe, worst-case, bottom and primitive values are deterministic in
   their type (and esc), so repeated constructions within one state share
   one physical value — and therefore one [id], which is what lets
   [equal]/[leq], the escape tests and re-evaluated bodies hit the
   application memo across passes and across queries. *)

let interned key build =
  let st = current_state () in
  match Itbl.find_opt st.intern_table key with
  | Some v -> v
  | None ->
      let v = build () in
      Itbl.add st.intern_table key v;
      v

let interned_prim p ty build = interned (Ikey.Iprim (p, ty)) build

(* ---- lattice constants --------------------------------------------------- *)

let rec bottom ty =
  match Ty.shape ty with
  | Ty.Sbase -> base ~ty Besc.bottom
  | Ty.Sarrow (_, b) ->
      interned (Ikey.Ibottom ty) (fun () ->
          v ~ty ~esc:Besc.bottom ~app:(fun _ -> bottom b))
  | Ty.Sprod (a, b) -> pair ~ty ~esc:Besc.bottom (bottom a, bottom b)

(* The interned bottom of an arrow type is recognized physically; joining
   onto it builds no wrapper. *)
let is_bottom t =
  t.app != err && t.esc == Besc.Zero
  &&
  match Itbl.find_opt (current_state ()).intern_table (Ikey.Ibottom t.ty) with
  | Some b -> b == t
  | None -> false

let rec top ~d ty =
  match Ty.shape ty with
  | Ty.Sbase -> base ~ty (Besc.top ~d)
  | Ty.Sarrow (_, b) -> v ~ty ~esc:(Besc.top ~d) ~app:(fun _ -> top ~d b)
  | Ty.Sprod (a, b) -> pair ~ty ~esc:(Besc.top ~d) (top ~d a, top ~d b)

(* [saturate ~esc ty]: the conservative value "something with containment
   [esc] of unknown structure": functions absorb their arguments'
   containment, pair components inherit [esc].  Used when a component is
   projected out of a value that carries no structural information. *)
let rec saturate ~esc ty =
  match Ty.shape ty with
  | Ty.Sbase -> base ~ty esc
  | Ty.Sarrow (_, b) ->
      v ~ty ~esc ~app:(fun x -> saturate ~esc:(Besc.join esc (total_esc x)) b)
  | Ty.Sprod (a, b) -> pair ~ty ~esc (saturate ~esc a, saturate ~esc b)

(* Everything of the interesting object contained anywhere in the value's
   (product) structure. *)
and total_esc t =
  match t.prod with
  | None -> t.esc
  | Some (a, b) -> Besc.join t.esc (Besc.join (total_esc a) (total_esc b))

let prod_tys ty =
  match Ty.shape ty with
  | Ty.Sprod (a, b) -> (a, b)
  | Ty.Sbase | Ty.Sarrow _ -> invalid_arg "Dvalue: projection from a non-pair value"

let fst_of t =
  match t.prod with
  | Some (a, _) -> a
  | None -> saturate ~esc:t.esc (fst (prod_tys t.ty))

let snd_of t =
  match t.prod with
  | Some (_, b) -> b
  | None -> saturate ~esc:t.esc (snd (prod_tys t.ty))

(* ---- worst-case functions ---------------------------------------------- *)

(* [w_stage acc ty]: the value W yields after consuming arguments whose
   containment joins to [acc]. *)
let rec w_stage acc ty =
  match Ty.shape ty with
  | Ty.Sbase -> base ~ty acc
  | Ty.Sarrow (_, b) ->
      v ~ty ~esc:acc ~app:(fun x -> w_stage (Besc.join acc (total_esc x)) b)
  | Ty.Sprod _ -> saturate ~esc:acc ty

let w_value ~esc ty =
  interned (Ikey.Iw (esc, ty)) @@ fun () ->
  match Ty.shape ty with
  | Ty.Sbase -> base ~ty esc
  | Ty.Sarrow (_, b) -> v ~ty ~esc ~app:(fun x -> w_stage (total_esc x) b)
  | Ty.Sprod _ -> saturate ~esc ty

(* Probe argument values for the global test: each level of the structure
   is marked with its own spine count (the interesting case) or <0,0>
   (the boring case); function components are worst-case. *)
let rec probe_arg ~interesting ty =
  let esc = if interesting then Besc.one (Ty.spines ty) else Besc.zero in
  match Ty.shape ty with
  | Ty.Sbase -> base ~ty esc
  | Ty.Sarrow _ -> w_value ~esc ty
  | Ty.Sprod (a, b) ->
      pair ~ty ~esc (probe_arg ~interesting a, probe_arg ~interesting b)

let interesting ty =
  interned (Ikey.Iinteresting ty) (fun () -> probe_arg ~interesting:true ty)

let boring ty =
  interned (Ikey.Iboring ty) (fun () -> probe_arg ~interesting:false ty)

(* Local-test marking (section 4.2): keep the value's actual behaviour
   but replace its containment — every structural level gets its own
   spine count (interesting) or <0,0> (boring). *)
let rec mark ~interesting t =
  let esc = if interesting then Besc.one (Ty.spines t.ty) else Besc.zero in
  match t.prod with
  | None -> with_esc esc t
  | Some (a, b) ->
      make
        ~prod:(Some (mark ~interesting a, mark ~interesting b))
        ~ty:t.ty ~esc ~app:t.app

let mark_interesting t = mark ~interesting:true t
let mark_boring t = mark ~interesting:false t

(* Component-resolved tests: only the sub-structure at [path] is the
   interesting object. *)
let rec probe_component ~path ty =
  interned (Ikey.Icomponent (path, ty)) @@ fun () ->
  match (path, Ty.shape ty) with
  | [], _ -> probe_arg ~interesting:true ty
  | Cfst :: rest, Ty.Sprod (a, b) ->
      pair ~ty ~esc:Besc.zero
        (probe_component ~path:rest a, probe_arg ~interesting:false b)
  | Csnd :: rest, Ty.Sprod (a, b) ->
      pair ~ty ~esc:Besc.zero
        (probe_arg ~interesting:false a, probe_component ~path:rest b)
  | _ :: _, (Ty.Sbase | Ty.Sarrow _) ->
      invalid_arg "Dvalue.probe_component: path does not name a pair component"

let rec mark_component ~path t =
  match path with
  | [] -> mark_interesting t
  | c :: rest ->
      let a = fst_of t and b = snd_of t in
      let a', b' =
        match c with
        | Cfst -> (mark_component ~path:rest a, mark_boring b)
        | Csnd -> (mark_boring a, mark_component ~path:rest b)
      in
      make ~prod:(Some (a', b')) ~ty:t.ty ~esc:Besc.zero ~app:t.app

(* ---- application engine ------------------------------------------------ *)

let rec key_of arg =
  match Ty.shape arg.ty with
  | Ty.Sbase -> Kbase arg.esc
  | Ty.Sarrow _ -> Kfun arg.id
  | Ty.Sprod _ -> Kprod (arg.esc, key_of (fst_of arg), key_of (snd_of arg))

let entry_valid e = List.for_all (fun (s, g) -> s.gen = g) e.sources

(* Probe values are cached per (bound, type) so repeated comparisons apply
   the same values and hit the application cache. *)
let rec probes ty =
  let st = current_state () in
  let d = st.d in
  let k = (d, ty) in
  match Ptbl.find_opt st.probe_table k with
  | Some ps -> ps
  | None ->
      let escs = Besc.all ~d in
      let ps =
        match Ty.shape ty with
        | Ty.Sbase -> List.map (fun esc -> base ~ty esc) escs
        | Ty.Sarrow _ ->
            List.concat_map
              (fun esc -> [ w_value ~esc ty; with_esc esc (bottom ty) ])
              escs
        | Ty.Sprod (a, b) ->
            (* cross product of component probes, top esc zero (the pair
               cell itself carries its components' containment) *)
            List.concat_map
              (fun pa ->
                List.map (fun pb -> pair ~ty ~esc:Besc.zero (pa, pb)) (probes b))
              (probes a)
      in
      Ptbl.add st.probe_table k ps;
      ps

let rec cmp ~op a b =
  op a.esc b.esc
  &&
  match Ty.shape a.ty with
  | Ty.Sbase -> true
  | Ty.Sarrow (arg, _) ->
      List.for_all (fun p -> cmp ~op (apply a p) (apply b p)) (probes arg)
  | Ty.Sprod _ ->
      cmp ~op (fst_of a) (fst_of b) && cmp ~op (snd_of a) (snd_of b)

and equal a b = cmp ~op:Besc.equal a b
and leq a b = cmp ~op:Besc.leq a b

and join a b =
  if a.id = b.id then a
  else if is_bottom a then with_ty a.ty b
  else if is_bottom b then a
  else
    let prod =
      match (a.prod, b.prod) with
      | None, None -> None
      | _ -> Some (join (fst_of a) (fst_of b), join (snd_of a) (snd_of b))
    in
    make ~prod ~ty:a.ty
      ~esc:(Besc.join a.esc b.esc)
      ~app:(fun x -> join (apply a x) (apply b x))

(* Pending analysis: a cyclic re-entry on the same (function, argument)
   returns the entry's current approximation; the outer activation then
   re-runs the body until the approximation is stable.  The domain is
   finite and all operators are monotone, so the loop terminates; the
   iteration cap is a defensive backstop that widens to top (the safe
   direction).  The entry is a cell of [f] when [f] is tabulated, a
   hash-memo entry otherwise; [fill] is told how to store and drop it. *)
and apply f x =
  match f.tab with
  | Some tab -> apply_cell f tab x
  | None -> apply_memo f x

and apply_cell f tab x =
  let st = current_state () in
  if tab.epoch <> st.epoch then begin
    tab.cells <- [||];
    tab.epoch <- st.epoch
  end;
  let i = match x.esc with Besc.Zero -> 0 | Besc.One k -> k + 1 in
  if i >= Array.length tab.cells then begin
    let cells = Array.make (max (i + 1) (st.d + 2)) None in
    Array.blit tab.cells 0 cells 0 (Array.length tab.cells);
    tab.cells <- cells
  end;
  match tab.cells.(i) with
  | Some e when tab.staged ->
      st.hits <- st.hits + 1;
      e.value
  | None when tab.staged ->
      st.misses <- st.misses + 1;
      let r = f.app x in
      tab.cells.(i) <-
        Some { value = r; complete = true; reentered = false; sources = []; approx = None };
      r
  | found -> (
      match answer st found with
      | Some v -> v
      | None ->
          fill st f x
            ~store:(fun e -> tab.cells.(i) <- Some e)
            ~drop:(fun () -> tab.cells.(i) <- None))

and apply_memo f x =
  let st = current_state () in
  let key = (f.id, key_of x) in
  match answer st (Hashtbl.find_opt st.cache key) with
  | Some v -> v
  | None ->
      fill st f x
        ~store:(fun e -> Hashtbl.replace st.cache key e)
        ~drop:(fun () -> Hashtbl.remove st.cache key)

(* The looked-up entry's answer, if it has one: a complete, valid entry
   is a hit; a pending one is a cyclic re-entry and yields its
   approximation.  A stale entry is counted and must be recomputed. *)
and answer st = function
  | None -> None
  | Some e when not e.complete ->
      e.reentered <- true;
      let s =
        match e.approx with
        | Some s -> s
        | None ->
            let s = new_source () in
            e.approx <- Some s;
            s
      in
      note_read s;
      Some e.value
  | Some e when entry_valid e ->
      st.hits <- st.hits + 1;
      (* a hit stands in for the computation: its reads become reads of
         whatever computation encloses this application *)
      List.iter (fun (s, g) -> note_read_gen s g) e.sources;
      Some e.value
  | Some _ ->
      (* an entry this application depended on changed: discard just this
         memo and recompute against the current values *)
      st.invalidated <- st.invalidated + 1;
      None

and fill st f x ~store ~drop =
  st.misses <- st.misses + 1;
  let result_ty =
    match Ty.shape f.ty with
    | Ty.Sarrow (_, b) -> b
    | Ty.Sbase | Ty.Sprod _ -> f.ty (* err will raise before the type is used *)
  in
  let e =
    {
      value = bottom result_ty;
      complete = false;
      reentered = false;
      sources = [];
      approx = None;
    }
  in
  store e;
  push_frame ~isolated:false;
  let rec loop n =
    e.reentered <- false;
    let r = f.app x in
    (* the first round joins onto bottom: that is [r] itself *)
    let widened = if n = 0 then with_ty result_ty r else join e.value r in
    if e.reentered && not (equal widened e.value) then begin
      e.value <- (if n >= 64 then top ~d:st.d result_ty else widened);
      (* entries completed against the old approximation are now stale *)
      Option.iter touch e.approx;
      if n < 64 then loop (n + 1)
    end
    else e.value <- widened
  in
  (try loop 0
   with exn ->
     ignore (pop_frame ?except:e.approx ());
     drop ();
     raise exn);
  (* the entry's own approximation is settled: neither it nor the
     computations enclosing it depend on that source *)
  e.sources <- pop_frame ?except:e.approx ();
  e.complete <- true;
  e.value

let apply_all f xs = List.fold_left apply f xs

let clear_cache () =
  let st = current_state () in
  Hashtbl.reset st.cache;
  st.epoch <- st.epoch + 1

let cache_stats () =
  let st = current_state () in
  (st.hits, st.misses)

let invalidations () = (current_state ()).invalidated

let reset_stats () =
  let st = current_state () in
  st.hits <- 0;
  st.misses <- 0;
  st.invalidated <- 0

let pp ppf t = Format.fprintf ppf "@[%a : %a@]" Besc.pp t.esc Ty.pp t.ty
