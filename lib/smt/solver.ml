module L = Sat.Lit

type answer =
  | Sat
  | Unsat of string list
  | Unknown

exception Error of string

let error fmt = Fmt.kstr (fun msg -> raise (Error msg)) fmt

type scope = {
  act : L.t; (* activation literal guarding assertions of this scope *)
  saved_named : (string * L.t) list;
  saved_assertions : (string option * Term.t) list;
}

type cert = {
  query : int;
  verdict : [ `Sat | `Unsat ];
  steps : int; (* certificate trace length when this query was certified *)
  time : float; (* seconds spent checking this query's certificate *)
  ok : bool;
}

type cert_report = {
  enabled : bool;
  certs : cert list; (* oldest first *)
  failures : string list; (* oldest first *)
}

(* One solve attempt of one query, as recorded in a retry ladder's log. *)
type attempt = {
  attempt : int; (* 1-based; attempt 1 is the original budgeted call *)
  scale : int; (* budget multiplier this attempt ran under *)
  seed : int option;
  polarity : Sat.Solver.polarity_mode;
  result : [ `Sat | `Unsat | `Unknown ];
  conflicts : int; (* conflicts spent during this attempt *)
  time : float; (* seconds spent in this attempt *)
}

type retry_entry = {
  rquery : int; (* 0-based index of the [check] call *)
  attempts : attempt list; (* oldest first; length >= 2 *)
  recovered : bool; (* a retry turned [Unknown] into a verdict *)
}

type retry_report = {
  retry_enabled : bool;
  total_queries : int;
  retried : retry_entry list; (* oldest first; single-attempt queries omitted *)
}

type t = {
  sat : Sat.Solver.t;
  ctx : Blast.ctx;
  enums : (string, string array) Hashtbl.t;
  mutable scopes : scope list;
  mutable named : (string * L.t) list; (* live named assertions *)
  mutable assertions : (string option * Term.t) list; (* newest first *)
  mutable last_sat : bool;
  mutable budget : Sat.Solver.budget option; (* default for every [check] *)
  mutable escalation : Escalation.t option; (* default retry policy *)
  mutable any_retry_policy : bool; (* a policy was in force for some check *)
  mutable retries : retry_entry list; (* newest first *)
  (* certification state ([checker] is [Some] iff created with ~certify) *)
  checker : Sat.Checker.t option;
  mutable n_checks : int;
  mutable certs : cert list; (* newest first *)
  mutable cert_failures : string list; (* newest first *)
}

let enum_sorts t name =
  Hashtbl.find_opt t.enums name |> Option.map Array.to_list

let create ?(certify = false) () =
  let sat = Sat.Solver.create () in
  (* Proof logging must precede every clause, including the true-literal
     unit [Blast.create] adds below. *)
  if certify then Sat.Solver.enable_proof sat;
  let enums = Hashtbl.create 16 in
  let enum_universe name =
    match Hashtbl.find_opt enums name with
    | Some u -> u
    | None -> error "undeclared enum sort %s" name
  in
  let rec t =
    lazy
      (let sort_of term =
         try
           Term.sort_of ~enum_sorts:(fun n -> enum_sorts (Lazy.force t) n) term
         with Term.Sort_error msg -> error "%s" msg
       in
       {
         sat;
         ctx = Blast.create ~sat ~enum_universe ~sort_of;
         enums;
         scopes = [];
         named = [];
         assertions = [];
         last_sat = false;
         budget = None;
         escalation = None;
         any_retry_policy = false;
         retries = [];
         checker = Option.map Sat.Checker.create (Sat.Solver.proof sat);
         n_checks = 0;
         certs = [];
         cert_failures = [];
       })
  in
  Lazy.force t

let certifying t = t.checker <> None
let inject_unsoundness t m = Sat.Solver.inject_unsoundness t.sat m

let cert_report t =
  {
    enabled = t.checker <> None;
    certs = List.rev t.certs;
    failures = List.rev t.cert_failures;
  }

let declare_enum t name universe =
  if universe = [] then error "enum sort %s must have a non-empty universe" name;
  let sorted = List.sort_uniq String.compare universe in
  if List.length sorted <> List.length universe then
    error "enum sort %s has duplicate members" name;
  match Hashtbl.find_opt t.enums name with
  | Some existing ->
    if Array.to_list existing <> universe then
      error "enum sort %s redeclared with a different universe" name
  | None -> Hashtbl.add t.enums name (Array.of_list universe)

let enum_universe t name =
  match Hashtbl.find_opt t.enums name with
  | Some u -> Array.to_list u
  | None -> error "undeclared enum sort %s" name

let check_bool_sort t term =
  let sort =
    try Term.sort_of ~enum_sorts:(enum_sorts t) term
    with Term.Sort_error msg -> error "%s" msg
  in
  match sort with
  | Term.Bool -> ()
  | s -> error "assertion has sort %a, expected Bool" Term.pp_sort s

let blast_checked t term =
  check_bool_sort t term;
  try Blast.blast_bool t.ctx term
  with Invalid_argument msg -> error "%s" msg

let assert_ t term =
  t.last_sat <- false;
  let l = blast_checked t term in
  t.assertions <- (None, term) :: t.assertions;
  match t.scopes with
  | [] -> ignore (Sat.Solver.add_clause t.sat [ l ] : bool)
  | { act; _ } :: _ -> ignore (Sat.Solver.add_clause t.sat [ L.neg act; l ] : bool)

let assert_named t name term =
  t.last_sat <- false;
  if List.mem_assoc name t.named then error "assertion name %S already in use" name;
  let l = blast_checked t term in
  let guard = L.of_var (Sat.Solver.new_var t.sat) in
  ignore (Sat.Solver.add_clause t.sat [ L.neg guard; l ] : bool);
  t.assertions <- (Some name, term) :: t.assertions;
  t.named <- (name, guard) :: t.named

let push t =
  let act = L.of_var (Sat.Solver.new_var t.sat) in
  t.scopes <- { act; saved_named = t.named; saved_assertions = t.assertions } :: t.scopes

let pop t =
  match t.scopes with
  | [] -> error "pop without matching push"
  | { act; saved_named; saved_assertions } :: rest ->
    t.last_sat <- false;
    t.scopes <- rest;
    t.named <- saved_named;
    t.assertions <- saved_assertions;
    (* Permanently disable the scope's assertions. *)
    ignore (Sat.Solver.add_clause t.sat [ L.neg act ] : bool)

let num_scopes t = List.length t.scopes

let set_budget t budget = t.budget <- budget
let set_escalation t policy = t.escalation <- policy

let retry_report t =
  {
    retry_enabled = t.any_retry_policy;
    total_queries = t.n_checks;
    retried = List.rev t.retries;
  }

(* --- model extraction (needed below by certification) ----------------------- *)

let bits_value t bits =
  let v = ref 0L in
  Array.iteri
    (fun i l -> if Sat.Solver.lit_value t.sat l then v := Int64.logor !v (Int64.shift_left 1L i))
    bits;
  !v

let model_env t : Interp.env =
  {
    bool_var =
      (fun name ->
        match Hashtbl.find_opt t.ctx.bool_vars name with
        | Some l -> Sat.Solver.lit_value t.sat l
        | None -> false);
    bv_var =
      (fun name ->
        match Hashtbl.find_opt t.ctx.bv_vars name with
        | Some bits -> bits_value t bits
        | None -> 0L);
    enum_var =
      (fun name ->
        match Hashtbl.find_opt t.ctx.enum_vars name with
        | Some (sort, bits) ->
          let universe = Hashtbl.find t.enums sort in
          let i = Int64.to_int (bits_value t bits) in
          if i < Array.length universe then universe.(i)
          else universe.(0)
        | None ->
          (* Variable never blasted: any member is a valid default, but we
             cannot know the sort here; fail loudly instead. *)
          error "enum variable %s has no value in the current model" name);
    pred =
      (fun name values ->
        let key = name ^ "(" ^ String.concat "," values ^ ")" in
        match Hashtbl.find_opt t.ctx.pred_vars key with
        | Some l -> Sat.Solver.lit_value t.sat l
        | None -> false);
  }

(* --- certification ----------------------------------------------------------- *)

(* Certify the answer just produced by [Sat.Solver.solve].  Sat answers are
   model-checked twice: once at CNF level against every input clause of the
   trace, and once at term level by re-evaluating every live assertion (and
   this call's assumptions) under the extracted model via [Interp] — the
   latter catches bit-blasting bugs the former cannot.  Every answer first
   replays the trace suffix logged since the previous one; Unsat answers
   then confirm the conflict twice, from the solver's answer chain: under
   the full assumption set and again restricted to the reported unsat core.
   Unknown answers prove nothing and are exempt.
   Failures are recorded (never raised): callers surface them as error[CERT]
   diagnostics. *)
let certify_answer t ck ~lits ~assumption_terms answer =
  let q = t.n_checks in
  let fail fmt =
    Fmt.kstr
      (fun m -> t.cert_failures <- Fmt.str "query %d: %s" q m :: t.cert_failures)
      fmt
  in
  let t0 = Unix.gettimeofday () in
  let proof =
    match Sat.Solver.proof t.sat with
    | Some p -> p
    | None -> assert false (* enabled at creation whenever [ck] exists *)
  in
  let failures_before = List.length t.cert_failures in
  List.iter (fail "%s") (Sat.Checker.replay ck);
  let record verdict =
    t.certs <-
      {
        query = q;
        verdict;
        steps = Sat.Proof.length proof;
        time = Unix.gettimeofday () -. t0;
        ok = List.length t.cert_failures = failures_before;
      }
      :: t.certs
  in
  match answer with
  | Unknown -> () (* inconclusive by construction: nothing to certify *)
  | Sat ->
    (match Sat.Checker.check_model ck (fun l -> Sat.Solver.lit_value t.sat l) with
     | Ok () -> ()
     | Error m -> fail "%s" m);
    let env = model_env t in
    let eval_true what name term =
      match Interp.eval env term with
      | Interp.V_bool true -> ()
      | Interp.V_bool false -> fail "model falsifies %s %s" what name
      | _ -> fail "%s %s is not boolean under the model" what name
      | exception Interp.Eval_error m -> fail "evaluating %s %s: %s" what name m
      | exception Error m -> fail "evaluating %s %s: %s" what name m
    in
    List.iter
      (fun (name, term) ->
        let name = match name with Some n -> Fmt.str "%S" n | None -> "(unnamed)" in
        eval_true "assertion" name term)
      t.assertions;
    List.iteri
      (fun i term -> eval_true "assumption" (string_of_int i) term)
      assumption_terms;
    record `Sat
  | Unsat names ->
    let chain = Sat.Solver.unsat_chain t.sat in
    (match Sat.Checker.check_conflict ck lits chain with
     | Ok () -> ()
     | Error m -> fail "%s" m);
    let core = Sat.Solver.unsat_core t.sat in
    (match Sat.Checker.check_conflict ck core chain with
     | Ok () -> ()
     | Error m ->
       fail "unsat core [%s] not confirmed: %s" (String.concat "; " names) m);
    record `Unsat

(* Decide satisfiability, escalating on [Unknown].  The original attempt
   runs under the base budget with default heuristics; each rung of the
   retry policy re-runs the same query with a scaled budget and diversified
   restart parameters.  The SAT solver keeps its learnt clauses across
   attempts, so every retry resumes from all the work done so far.
   Certification (below) sees only the final answer — whichever attempt
   concluded produced the model/proof being certified. *)
let check ?(assumptions = []) ?budget ?retry t =
  let budget = match budget with Some _ as b -> b | None -> t.budget in
  let policy = match retry with Some _ as r -> r | None -> t.escalation in
  let extra = List.map (fun term -> (term, blast_checked t term)) assumptions in
  let lits =
    List.map (fun s -> s.act) t.scopes
    @ List.map snd t.named
    @ List.map snd extra
  in
  let solve_attempt ~attempt ~scale ?seed ?(polarity = Sat.Solver.Phase_saved)
      ?var_decay budget =
    let c0 = Sat.Solver.num_conflicts t.sat in
    let t0 = Unix.gettimeofday () in
    let r =
      Sat.Solver.solve ~assumptions:lits ?budget ?seed ~polarity_mode:polarity
        ?var_decay t.sat
    in
    {
      attempt;
      scale;
      seed;
      polarity;
      result =
        (match r with
         | Sat.Solver.Sat -> `Sat
         | Sat.Solver.Unsat -> `Unsat
         | Sat.Solver.Unknown -> `Unknown);
      conflicts = Sat.Solver.num_conflicts t.sat - c0;
      time = Unix.gettimeofday () -. t0;
    }
  in
  let first = solve_attempt ~attempt:1 ~scale:1 budget in
  let attempts =
    match (first.result, policy) with
    | `Unknown, Some { Escalation.steps = _ :: _ as steps } ->
      let rec escalate acc n = function
        | [] -> acc
        | (step : Escalation.step) :: rest ->
          let a =
            solve_attempt ~attempt:n ~scale:step.Escalation.scale
              ~seed:step.Escalation.seed ~polarity:step.Escalation.polarity
              ?var_decay:step.Escalation.var_decay
              (Escalation.scale_budget budget step.Escalation.scale)
          in
          if a.result = `Unknown then escalate (a :: acc) (n + 1) rest
          else a :: acc
      in
      List.rev (escalate [ first ] 2 steps)
    | _ -> [ first ]
  in
  if policy <> None then t.any_retry_policy <- true;
  (match attempts with
   | _ :: _ :: _ ->
     let last = List.nth attempts (List.length attempts - 1) in
     t.retries <-
       { rquery = t.n_checks; attempts; recovered = last.result <> `Unknown }
       :: t.retries
   | _ -> ());
  let answer =
    match (List.nth attempts (List.length attempts - 1)).result with
    | `Sat ->
      t.last_sat <- true;
      Sat
    | `Unsat ->
      t.last_sat <- false;
      let core = Sat.Solver.unsat_core t.sat in
      let names =
        List.filter_map
          (fun (name, guard) -> if List.mem guard core then Some name else None)
          t.named
      in
      Unsat names
    | `Unknown ->
      t.last_sat <- false;
      Unknown
  in
  (match t.checker with
   | Some ck -> certify_answer t ck ~lits ~assumption_terms:assumptions answer
   | None -> ());
  t.n_checks <- t.n_checks + 1;
  answer

let forall_enum t ~sort f =
  Term.and_ (List.map (fun c -> f (Term.enum ~sort c)) (enum_universe t sort))

let exists_enum t ~sort f =
  Term.or_ (List.map (fun c -> f (Term.enum ~sort c)) (enum_universe t sort))

(* --- models ----------------------------------------------------------------- *)

let model_eval t term =
  if not t.last_sat then error "no model available (last answer was not Sat)";
  (* Sort-check first so evaluation errors are reported as such. *)
  (try ignore (Term.sort_of ~enum_sorts:(enum_sorts t) term : Term.sort)
   with Term.Sort_error msg -> error "%s" msg);
  try Interp.eval (model_env t) term
  with Interp.Eval_error msg -> error "%s" msg

let get_bool t term =
  match model_eval t term with
  | Interp.V_bool b -> b
  | v -> error "expected a boolean value, got %a" Interp.pp_value v

let get_bv t term =
  match model_eval t term with
  | Interp.V_bv { value; _ } -> value
  | v -> error "expected a bit-vector value, got %a" Interp.pp_value v

let get_enum t term =
  match model_eval t term with
  | Interp.V_enum { value; _ } -> value
  | v -> error "expected an enum value, got %a" Interp.pp_value v

(* Smallest value of a bit-vector term consistent with the live assertions,
   by binary search over check-sat calls (each probe in its own scope) —
   the incremental-solving pattern an optimizing solver runs internally. *)
let minimize ?(assumptions = []) t term =
  let width =
    match Term.sort_of ~enum_sorts:(enum_sorts t) term with
    | Term.Bitvec w -> w
    | s -> error "minimize: expected a bit-vector term, got %a" Term.pp_sort s
    | exception Term.Sort_error msg -> error "%s" msg
  in
  match check ~assumptions t with
  | Unsat _ | Unknown -> None
  | Sat ->
    (* Unsigned binary search: [lo] is a proven lower bound, [hi] is
       achievable; every probe either tightens [hi] to a model value or
       raises [lo] past the midpoint. *)
    let lo = ref 0L and hi = ref (get_bv t term) in
    while Int64.unsigned_compare !lo !hi < 0 do
      let mid = Int64.add !lo (Int64.shift_right_logical (Int64.sub !hi !lo) 1) in
      push t;
      assert_ t (Term.ule term (Term.bv ~width mid));
      (match check ~assumptions t with
       | Sat -> hi := get_bv t term
       | Unsat _ -> lo := Int64.add mid 1L
       (* budget exhausted: stop the descent, keep the best model value *)
       | Unknown -> lo := !hi);
      pop t
    done;
    Some !hi

let assertions t = List.rev t.assertions

(* SMT-LIB2-flavoured dump of the live assertion set: sort and function
   declarations synthesised from the terms, then one (assert ...) per live
   assertion (named ones with :named attributes). *)
let pp_smtlib ppf t =
  let live = assertions t in
  (* Collect declarations from the terms. *)
  let bools = Hashtbl.create 16
  and bvs = Hashtbl.create 16
  and enums = Hashtbl.create 16
  and preds = Hashtbl.create 16 in
  let rec collect (term : Term.t) =
    match term with
    | Term.Bool_var v -> Hashtbl.replace bools v ()
    | Term.Bv_var (v, w) -> Hashtbl.replace bvs v w
    | Term.Enum_var (v, sort) -> Hashtbl.replace enums v sort
    | Term.Pred (name, args) ->
      Hashtbl.replace preds name (List.length args);
      List.iter collect args
    | Term.Not a | Term.Bv_unop (_, a) | Term.Bv_extract { arg = a; _ }
    | Term.Bv_extend { arg = a; _ } ->
      collect a
    | Term.And ts | Term.Or ts | Term.Distinct ts -> List.iter collect ts
    | Term.Implies (a, b) | Term.Iff (a, b) | Term.Xor (a, b) | Term.Eq (a, b)
    | Term.Bv_binop (_, a, b) | Term.Bv_cmp (_, a, b) | Term.Bv_concat (a, b) ->
      collect a;
      collect b
    | Term.Ite (c, a, b) ->
      collect c;
      collect a;
      collect b
    | Term.True | Term.False | Term.Bv_const _ | Term.Enum_const _ -> ()
  in
  List.iter (fun (_, term) -> collect term) live;
  let used_sorts = Hashtbl.create 8 in
  Hashtbl.iter (fun _ sort -> Hashtbl.replace used_sorts sort ()) enums;
  Fmt.pf ppf "(set-logic QF_BV) ; enums/predicates grounded over finite sorts@.";
  Hashtbl.iter
    (fun sort () ->
      match Hashtbl.find_opt t.enums sort with
      | Some universe ->
        Fmt.pf ppf "; sort %s = { %s }@." sort
          (String.concat " " (Array.to_list universe))
      | None -> ())
    used_sorts;
  Hashtbl.iter (fun v () -> Fmt.pf ppf "(declare-const %s Bool)@." v) bools;
  Hashtbl.iter (fun v w -> Fmt.pf ppf "(declare-const %s (_ BitVec %d))@." v w) bvs;
  Hashtbl.iter (fun v sort -> Fmt.pf ppf "(declare-const %s %s)@." v sort) enums;
  Hashtbl.iter
    (fun name arity ->
      Fmt.pf ppf "(declare-fun %s (%s) Bool)@." name
        (String.concat " " (List.init arity (fun _ -> "String"))))
    preds;
  List.iter
    (fun (name, term) ->
      match name with
      | Some n -> Fmt.pf ppf "(assert (! %a :named %S))@." Term.pp term n
      | None -> Fmt.pf ppf "(assert %a)@." Term.pp term)
    live;
  Fmt.pf ppf "(check-sat)@."

let pp_stats ppf t = Sat.Solver.pp_stats ppf t.sat
