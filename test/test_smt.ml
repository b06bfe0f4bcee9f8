(* Tests for the SMT layer: bit-vector semantics (differentially against the
   reference interpreter), enum sorts, predicates and finite quantifiers,
   incremental push/pop, named assertions and unsat cores, and models. *)

module T = Smt.Term
module S = Smt.Solver

let check_bool = Alcotest.(check bool)
let check_int64 = Alcotest.(check int64)

let is_sat = function S.Sat -> true | S.Unsat _ | S.Unknown -> false

(* --- bit-vector basics ----------------------------------------------------- *)

(* A product of zero-extended operands, as multipleOf builds it, here of
   two variables: 35 = 5 * 7 is its only factorisation with 1 < x < y. *)
let test_bv_arith_model () =
  let s = S.create () in
  let x = T.bv_var "x" ~width:8 and y = T.bv_var "y" ~width:8 in
  let wide t = T.zero_extend ~by:8 t in
  S.assert_ s (T.eq (T.mul (wide x) (wide y)) (T.bv_of_int ~width:16 35));
  S.assert_ s (T.ult (T.bv_of_int ~width:8 1) x);
  S.assert_ s (T.ult x y);
  check_bool "sat" true (is_sat (S.check s));
  check_int64 "x" 5L (S.get_bv s x);
  check_int64 "y" 7L (S.get_bv s y)

(* A product wraps modulo 2^width: 3 * 171 = 513 = 2 * 256 + 1.  This is
   why multipleOf multiplies zero-extended operands. *)
let test_bv_overflow_wraps () =
  let s = S.create () in
  let x = T.bv_var "x" ~width:8 in
  S.assert_ s (T.eq (T.mul x (T.bv_of_int ~width:8 3)) (T.bv_of_int ~width:8 1));
  check_bool "sat" true (is_sat (S.check s));
  check_int64 "x = 171 wraps" 171L (S.get_bv s x)

let test_bv_mul () =
  let s = S.create () in
  let x = T.bv_var "x" ~width:8 in
  S.assert_ s (T.eq (T.mul x (T.bv_of_int ~width:8 3)) (T.bv_of_int ~width:8 21));
  S.assert_ s (T.ult x (T.bv_of_int ~width:8 10));
  check_bool "sat" true (is_sat (S.check s));
  check_int64 "x" 7L (S.get_bv s x)

let test_bv_extend () =
  let s = S.create () in
  let x = T.bv_var "x" ~width:4 in
  S.assert_ s (T.eq x (T.bv_of_int ~width:4 0xF));
  S.assert_ s
    (T.eq (T.zero_extend ~by:4 x) (T.bv_of_int ~width:8 0x0F));
  check_bool "zero-extends" true (is_sat (S.check s))

(* 64-bit addresses as the semantic checks compare them.  The order is
   unsigned up to the top bit: 0x8000000040000000 is above 0x40000000. *)
let test_wide_64bit () =
  let s = S.create () in
  let base = T.bv_var "base" ~width:64 in
  let high = T.bv ~width:64 0x8000000040000000L in
  S.assert_ s (T.ule high base);
  S.assert_ s (T.ule base high);
  check_bool "sat" true (is_sat (S.check s));
  check_int64 "base" 0x8000000040000000L (S.get_bv s base);
  S.assert_ s (T.ult base (T.bv ~width:64 0x40000000L));
  check_bool "not below 0x40000000" false (is_sat (S.check s))

(* --- overlap formula (paper formula (7) shape) ------------------------------ *)

let regions_overlap s (b1, s1) (b2, s2) =
  let bv v = T.bv ~width:64 v in
  (* exists x in [b1, b1+s1) and [b2, b2+s2): standard interval intersection
     b1 < b2+s2 && b2 < b1+s1, with the ends folded on the constants as
     Semantic.contains folds them *)
  S.assert_ s
    (T.and_ [ T.ult (bv b1) (bv (Int64.add b2 s2)); T.ult (bv b2) (bv (Int64.add b1 s1)) ]);
  is_sat (S.check s)

let test_overlap_disjoint () =
  check_bool "disjoint regions" false
    (regions_overlap (S.create ()) (0x40000000L, 0x20000000L) (0x60000000L, 0x20000000L))

let test_overlap_clash () =
  check_bool "overlapping regions" true
    (regions_overlap (S.create ()) (0x40000000L, 0x40000000L) (0x60000000L, 0x20000000L))

(* --- enum sorts and predicates ---------------------------------------------- *)

let test_enum_basic () =
  let s = S.create () in
  S.declare_enum s "prop" [ "reg"; "device_type"; "compatible" ];
  let x = T.enum_var "x" ~sort:"prop" in
  S.assert_ s (T.not_ (T.eq x (T.enum ~sort:"prop" "reg")));
  S.assert_ s (T.not_ (T.eq x (T.enum ~sort:"prop" "compatible")));
  check_bool "sat" true (is_sat (S.check s));
  Alcotest.(check string) "only device_type remains" "device_type" (S.get_enum s x)

let test_enum_exhausted () =
  let s = S.create () in
  S.declare_enum s "ab" [ "a"; "b" ];
  let x = T.enum_var "x" ~sort:"ab" in
  S.assert_ s (T.not_ (T.eq x (T.enum ~sort:"ab" "a")));
  S.assert_ s (T.not_ (T.eq x (T.enum ~sort:"ab" "b")));
  check_bool "unsat when universe exhausted" false (is_sat (S.check s))

let test_enum_redeclare () =
  let s = S.create () in
  S.declare_enum s "e" [ "x"; "y" ];
  S.declare_enum s "e" [ "x"; "y" ];
  Alcotest.check_raises "different universe rejected"
    (S.Error "enum sort e redeclared with a different universe") (fun () ->
      S.declare_enum s "e" [ "x"; "z" ])

let test_pred_and_forall () =
  (* The paper's closure axiom (6): forall x. (C(x) -> R(x)) & (!C(x) -> !R(x)),
     with C defined by (5) as x = reg or x = device_type. *)
  let s = S.create () in
  S.declare_enum s "prop" [ "reg"; "device_type"; "compatible" ];
  let c x = T.pred "C" [ x ] and r x = T.pred "R" [ x ] in
  S.assert_ s
    (S.forall_enum s ~sort:"prop" (fun x ->
         T.iff (c x)
           (T.or_
              [ T.eq x (T.enum ~sort:"prop" "reg");
                T.eq x (T.enum ~sort:"prop" "device_type")
              ])));
  S.assert_ s
    (S.forall_enum s ~sort:"prop" (fun x ->
         T.and_ [ T.implies (c x) (r x); T.implies (T.not_ (c x)) (T.not_ (r x)) ]));
  check_bool "sat" true (is_sat (S.check s));
  check_bool "R(reg)" true (S.get_bool s (r (T.enum ~sort:"prop" "reg")));
  check_bool "R(device_type)" true (S.get_bool s (r (T.enum ~sort:"prop" "device_type")));
  check_bool "!R(compatible)" false (S.get_bool s (r (T.enum ~sort:"prop" "compatible")));
  (* Requiring R(compatible) now contradicts the closure. *)
  S.assert_ s (r (T.enum ~sort:"prop" "compatible"));
  check_bool "unsat" false (is_sat (S.check s))

let test_exists_enum () =
  let s = S.create () in
  S.declare_enum s "e" [ "a"; "b"; "c" ];
  let p x = T.pred "P" [ x ] in
  S.assert_ s (S.exists_enum s ~sort:"e" p);
  S.assert_ s (T.not_ (p (T.enum ~sort:"e" "a")));
  S.assert_ s (T.not_ (p (T.enum ~sort:"e" "b")));
  check_bool "sat" true (is_sat (S.check s));
  check_bool "P(c) forced" true (S.get_bool s (p (T.enum ~sort:"e" "c")))

(* --- incremental interface --------------------------------------------------- *)

let test_push_pop () =
  let s = S.create () in
  let x = T.bool_var "x" in
  S.assert_ s (T.or_ [ x; T.not_ x ]);
  check_bool "sat" true (is_sat (S.check s));
  S.push s;
  S.assert_ s x;
  S.assert_ s (T.not_ x);
  check_bool "unsat inside scope" false (is_sat (S.check s));
  S.pop s;
  check_bool "sat after pop" true (is_sat (S.check s));
  Alcotest.(check int) "no scopes" 0 (S.num_scopes s)

let test_nested_scopes () =
  let s = S.create () in
  let x = T.bv_var "x" ~width:4 in
  S.push s;
  S.assert_ s (T.ult x (T.bv_of_int ~width:4 5));
  S.push s;
  S.assert_ s (T.ult (T.bv_of_int ~width:4 10) x);
  check_bool "unsat nested" false (is_sat (S.check s));
  S.pop s;
  check_bool "sat after inner pop" true (is_sat (S.check s));
  check_bool "outer constraint still active" true (S.get_bv s x < 5L);
  S.pop s;
  Alcotest.check_raises "pop on empty" (S.Error "pop without matching push") (fun () ->
      S.pop s)

let test_named_core () =
  let s = S.create () in
  let x = T.bv_var "x" ~width:8 in
  S.assert_named s "lower" (T.ult (T.bv_of_int ~width:8 10) x);
  S.assert_named s "upper" (T.ult x (T.bv_of_int ~width:8 5));
  S.assert_named s "irrelevant" (T.ult x (T.bv_of_int ~width:8 200));
  match S.check s with
  | S.Sat | S.Unknown -> Alcotest.fail "expected unsat"
  | S.Unsat core ->
    check_bool "lower in core" true (List.mem "lower" core);
    check_bool "upper in core" true (List.mem "upper" core);
    check_bool "irrelevant not in core" false (List.mem "irrelevant" core)

let test_check_assumptions () =
  let s = S.create () in
  let x = T.bool_var "x" and y = T.bool_var "y" in
  S.assert_ s (T.implies x y);
  check_bool "sat assuming x" true (is_sat (S.check ~assumptions:[ x ] s));
  check_bool "y forced" true (S.get_bool s y);
  check_bool "unsat assuming x & !y" false
    (is_sat (S.check ~assumptions:[ x; T.not_ y ] s));
  check_bool "recovers" true (is_sat (S.check s))

(* --- error handling ----------------------------------------------------------- *)

let test_sort_errors () =
  let s = S.create () in
  Alcotest.check_raises "bv as assertion"
    (S.Error "assertion has sort (_ BitVec 8), expected Bool") (fun () ->
      S.assert_ s (T.bv_of_int ~width:8 3));
  (try
     S.assert_ s (T.eq (T.bv_of_int ~width:8 1) (T.bv_of_int ~width:4 1));
     Alcotest.fail "expected width mismatch error"
   with S.Error _ -> ());
  try
    S.assert_ s (T.eq (T.enum_var "e" ~sort:"nope") (T.enum_var "f" ~sort:"nope"));
    Alcotest.fail "expected unknown sort error"
  with S.Error _ -> ()

let test_model_unavailable () =
  let s = S.create () in
  S.assert_ s T.ff;
  check_bool "unsat" false (is_sat (S.check s));
  try
    ignore (S.get_bool s (T.bool_var "x") : bool);
    Alcotest.fail "expected model error"
  with S.Error _ -> ()

(* A released solver's reports stay readable; every use that reaches the
   SAT solver raises. *)
let test_released_solver () =
  let s = S.create ~certify:true () in
  let x = T.bv_var "x" ~width:8 in
  S.assert_ s (T.ult x (T.bv_of_int ~width:8 3));
  check_bool "sat" true (is_sat (S.check s));
  S.release s;
  Alcotest.(check int) "certified before release" 1
    (List.length (S.cert_report s).S.certs);
  let refuses what f =
    match f () with
    | () -> Alcotest.failf "%s on a released solver must raise" what
    | exception Invalid_argument _ -> ()
  in
  refuses "check" (fun () -> ignore (S.check s : S.answer));
  refuses "model" (fun () -> ignore (S.get_bv s x : int64));
  refuses "assert" (fun () -> S.assert_ s (T.eq x (T.bv_of_int ~width:8 9)))

(* --- certification ------------------------------------------------------------ *)

let test_certify_mixed_queries () =
  (* Sat and Unsat verdicts across push/pop scopes, all on one certified
     incremental solver: every query certifies, none fails. *)
  let s = S.create ~certify:true () in
  check_bool "certifying" true (S.certifying s);
  let x = T.bv_var "x" ~width:8 in
  S.assert_ s (T.ult (T.bv_of_int ~width:8 10) x);
  check_bool "q0 sat" true (is_sat (S.check s));
  S.push s;
  S.assert_ s (T.ult x (T.bv_of_int ~width:8 5));
  check_bool "q1 unsat in scope" false (is_sat (S.check s));
  S.pop s;
  check_bool "q2 sat after pop" true (is_sat (S.check s));
  check_bool "q3 unsat under assumptions" false
    (is_sat (S.check ~assumptions:[ T.ult x (T.bv_of_int ~width:8 3) ] s));
  let r = S.cert_report s in
  check_bool "enabled" true r.S.enabled;
  Alcotest.(check int) "4 certs" 4 (List.length r.S.certs);
  Alcotest.(check (list string)) "no failures" [] r.S.failures;
  check_bool "all ok" true (List.for_all (fun c -> c.S.ok) r.S.certs);
  check_bool "verdict mix" true
    (List.map (fun c -> c.S.verdict) r.S.certs = [ `Sat; `Unsat; `Sat; `Unsat ])

let test_certify_unknown_exempt () =
  (* An Unknown verdict asserts nothing, so there is nothing to certify:
     no cert entry and no failure. *)
  let s = S.create ~certify:true () in
  let x = T.bv_var "x" ~width:8 in
  S.assert_ s (T.ult (T.bv_of_int ~width:8 10) x);
  S.set_budget s (Some (Sat.Solver.budget ~max_decisions:0 ~max_conflicts:0 ()));
  (match S.check s with
   | S.Unknown -> ()
   | S.Sat | S.Unsat _ -> Alcotest.fail "expected Unknown under zero budget");
  let r = S.cert_report s in
  check_bool "enabled" true r.S.enabled;
  Alcotest.(check int) "no certs" 0 (List.length r.S.certs);
  Alcotest.(check (list string)) "no failures" [] r.S.failures;
  (* The solver stays certifiable after the exempt query. *)
  S.set_budget s None;
  check_bool "sat after budget removed" true (is_sat (S.check s));
  let r = S.cert_report s in
  Alcotest.(check int) "one cert" 1 (List.length r.S.certs);
  Alcotest.(check (list string)) "still no failures" [] r.S.failures

(* --- retry-with-escalation ladder ------------------------------------------- *)

let test_escalation_recovers_forced_unknown () =
  (* Force_unknown 2 hits every 2nd SAT-solve call.  Check #1 (call 1)
     concludes on attempt 1; check #2's first attempt (call 2) is forced
     Unknown, and the ladder's first retry (call 3) recovers. *)
  let s = S.create () in
  let x = T.bv_var "x" ~width:8 in
  S.assert_ s (T.ult (T.bv_of_int ~width:8 10) x);
  S.set_escalation s (Some Smt.Escalation.default);
  S.inject_unsoundness s (Sat.Solver.Force_unknown 2);
  check_bool "check #1 concludes on attempt 1" true (is_sat (S.check s));
  check_bool "check #2 recovers via retry" true (is_sat (S.check s));
  let r = S.retry_report s in
  check_bool "retry policy was in force" true r.S.retry_enabled;
  Alcotest.(check int) "both checks counted" 2 r.S.total_queries;
  match r.S.retried with
  | [ e ] ->
    Alcotest.(check int) "the retried query is check #2" 1 e.S.rquery;
    check_bool "recovered" true e.S.recovered;
    (match e.S.attempts with
     | [ a1; a2 ] ->
       Alcotest.(check int) "attempt numbering" 1 a1.S.attempt;
       check_bool "attempt 1 unknown" true (a1.S.result = `Unknown);
       Alcotest.(check int) "attempt 1 at scale 1" 1 a1.S.scale;
       check_bool "attempt 2 concluded" true (a2.S.result = `Sat);
       Alcotest.(check int) "attempt 2 at scale 4" 4 a2.S.scale;
       check_bool "retry attempt carries a seed" true (a2.S.seed <> None)
     | l -> Alcotest.failf "expected 2 attempts, got %d" (List.length l))
  | l -> Alcotest.failf "expected 1 retried query, got %d" (List.length l)

let test_escalation_exhausts_honestly () =
  (* Force_unknown 1 fires on every attempt: the ladder runs out and the
     answer degrades to Unknown — never a fabricated verdict. *)
  let s = S.create () in
  let x = T.bv_var "x" ~width:8 in
  S.assert_ s (T.ult (T.bv_of_int ~width:8 10) x);
  S.inject_unsoundness s (Sat.Solver.Force_unknown 1);
  S.set_escalation s (Some (Smt.Escalation.ladder ~attempts:3 ()));
  (match S.check s with
   | S.Unknown -> ()
   | S.Sat | S.Unsat _ -> Alcotest.fail "exhausted ladder must stay Unknown");
  let r = S.retry_report s in
  match r.S.retried with
  | [ e ] ->
    check_bool "not recovered" false e.S.recovered;
    Alcotest.(check int) "all 3 attempts logged" 3 (List.length e.S.attempts);
    check_bool "every attempt Unknown" true
      (List.for_all (fun (a : S.attempt) -> a.S.result = `Unknown) e.S.attempts)
  | l -> Alcotest.failf "expected 1 retried query, got %d" (List.length l)

let test_escalation_certifies_final_attempt () =
  (* PR 2's guarantee survives escalation: the verdict that concludes —
     on whichever rung — is the one certified, and it passes. *)
  let s = S.create ~certify:true () in
  let x = T.bv_var "x" ~width:8 in
  S.assert_ s (T.ult (T.bv_of_int ~width:8 10) x);
  S.set_escalation s (Some Smt.Escalation.default);
  S.inject_unsoundness s (Sat.Solver.Force_unknown 2);
  check_bool "query 0 sat" true (is_sat (S.check s));
  check_bool "query 1 recovers" true (is_sat (S.check s));
  let cert = S.cert_report s in
  Alcotest.(check (list string)) "escalated verdict certifies" [] cert.S.failures;
  Alcotest.(check int) "both final verdicts certified" 2 (List.length cert.S.certs);
  let r = S.retry_report s in
  Alcotest.(check int) "one query escalated" 1 (List.length r.S.retried)

let test_escalation_none_is_inert () =
  let s = S.create () in
  S.assert_ s (T.bool_var "p");
  S.set_escalation s (Some Smt.Escalation.none);
  check_bool "sat" true (is_sat (S.check s));
  let r = S.retry_report s in
  check_bool "policy with no steps never retries" true (r.S.retried = []);
  check_bool "but counts as enabled" true r.S.retry_enabled

let test_escalation_budget_scaling () =
  let b = Sat.Solver.budget ~max_conflicts:10 ~max_propagations:max_int ~time_limit:0.5 () in
  match Smt.Escalation.scale_budget (Some b) 4 with
  | None -> Alcotest.fail "scaled budget must stay Some"
  | Some b' ->
    Alcotest.(check (option int)) "conflicts x4" (Some 40) b'.Sat.Solver.max_conflicts;
    Alcotest.(check (option int)) "saturates at max_int" (Some max_int)
      b'.Sat.Solver.max_propagations;
    check_bool "time x4" true (b'.Sat.Solver.time_limit = Some 2.0);
    check_bool "unbudgeted stays unbudgeted" true
      (Smt.Escalation.scale_budget None 16 = None)

let test_certify_catches_unsound_solver () =
  (* Acceptance test for the ISSUE: a solver made deliberately unsound is
     caught by certification and surfaces as a failure, never a silent ok. *)
  let s = S.create ~certify:true () in
  S.inject_unsoundness s (Sat.Solver.Flip_model_bit 5);
  let x = T.bv_var "x" ~width:16 in
  S.assert_ s (T.eq x (T.bv_of_int ~width:16 0xBEEF));
  (match S.check s with
   | S.Sat -> ()
   | S.Unsat _ | S.Unknown -> Alcotest.fail "expected (unsound) Sat");
  let r = S.cert_report s in
  check_bool "failure recorded" true (r.S.failures <> []);
  check_bool "cert flagged not ok" true
    (List.exists (fun c -> not c.S.ok) r.S.certs)

let test_certify_off_by_default () =
  let s = S.create () in
  check_bool "not certifying" false (S.certifying s);
  S.assert_ s (T.bool_var "b");
  check_bool "sat" true (is_sat (S.check s));
  let r = S.cert_report s in
  check_bool "disabled" false r.S.enabled;
  Alcotest.(check int) "no certs" 0 (List.length r.S.certs)

(* --- differential property tests --------------------------------------------- *)

(* Random bit-vector term generator over variables a b of a given width:
   products of leaves, the one arithmetic operator the checkers build. *)
let gen_term width =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ return (T.bv_var "a" ~width);
        return (T.bv_var "b" ~width);
        map (fun v -> T.bv ~width (Int64.of_int v)) (int_bound 1000);
      ]
  in
  fix
    (fun self n ->
      if n = 0 then leaf
      else
        let sub = self (n / 2) in
        oneof [ leaf; map2 T.mul sub sub ])
    3

let interp_env ~a ~b : Smt.Interp.env =
  {
    bool_var = (fun _ -> false);
    bv_var = (fun name -> if name = "a" then a else b);
    enum_var = (fun _ -> "");
    pred = (fun _ _ -> false);
  }

let prop_blaster_matches_interp width =
  QCheck.Test.make ~count:120
    ~name:(Printf.sprintf "blaster = interpreter (width %d)" width)
    QCheck.(
      make
        Gen.(triple (gen_term width) (int_bound 0xFFFF) (int_bound 0xFFFF)))
    (fun (term, a, b) ->
      let a = Int64.of_int a and b = Int64.of_int b in
      let expected =
        match Smt.Interp.eval (interp_env ~a ~b) term with
        | Smt.Interp.V_bv { value; _ } -> value
        | _ -> QCheck.assume_fail ()
      in
      let s = S.create () in
      S.assert_ s (T.eq (T.bv_var "a" ~width) (T.bv ~width a));
      S.assert_ s (T.eq (T.bv_var "b" ~width) (T.bv ~width b));
      S.assert_ s (T.eq term (T.bv ~width expected));
      is_sat (S.check s))

let prop_comparisons_match width =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "comparison blasting (width %d)" width)
    (* Operands over the whole 64-bit range, equal ones included. *)
    QCheck.(make Gen.(ui64 >>= fun a -> map (fun b -> (a, b)) (oneof [ ui64; return a ])))
    (fun (a64, b64) ->
      let s = S.create () in
      let ta = T.bv ~width a64 and tb = T.bv ~width b64 in
      let mask v =
        if width = 64 then v
        else Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)
      in
      let cases =
        [ (T.ult ta tb, Int64.unsigned_compare (mask a64) (mask b64) < 0);
          (T.ule ta tb, Int64.unsigned_compare (mask a64) (mask b64) <= 0);
        ]
      in
      List.for_all
        (fun (term, expected) ->
          let s' = s in
          S.push s';
          S.assert_ s' (if expected then term else T.not_ term);
          let r = is_sat (S.check s') in
          S.pop s';
          r)
        cases)

(* --- certification against brute force --------------------------------------- *)

(* A random query over [a] and [b] of one width: two named assertions, one
   assertion inside a scope and one assumption, each a comparison of two
   random terms. *)
type cert_query = { cwidth : int; named : T.t list; scoped : T.t; assumption : T.t }

let gen_cert_query =
  let open QCheck.Gen in
  let* cwidth = int_range 3 6 in
  let atom =
    let* x = gen_term cwidth and* y = gen_term cwidth in
    oneofl [ T.eq x y; T.not_ (T.eq x y); T.ult x y; T.ule x y ]
  in
  let* named = list_repeat 2 atom and* scoped = atom and* assumption = atom in
  return { cwidth; named; scoped; assumption }

let cert_atoms q = q.scoped :: q.assumption :: q.named

let holds_at ~a ~b term = Smt.Interp.eval (interp_env ~a ~b) term = Smt.Interp.V_bool true

(* Ground truth: some assignment of [a] and [b] makes every atom true. *)
let cert_truth q =
  let n = 1 lsl q.cwidth in
  let rec search i =
    i < n * n
    && (List.for_all (holds_at ~a:(Int64.of_int (i / n)) ~b:(Int64.of_int (i mod n)))
          (cert_atoms q)
       || search (i + 1))
  in
  search 0

(* Run [q] on a certifying solver under [mutation]: whether the answer
   contradicts the truth, whether a Sat answer's model falsifies a live
   assertion or the assumption, and whether certification failed. *)
let run_cert_query q truth mutation =
  let s = S.create ~certify:true () in
  Option.iter (S.inject_unsoundness s) mutation;
  List.iteri (fun i t -> S.assert_named s (Printf.sprintf "n%d" i) t) q.named;
  S.push s;
  S.assert_ s q.scoped;
  let answer = S.check ~assumptions:[ q.assumption ] s in
  let wrong =
    match answer with S.Sat -> not truth | S.Unsat _ -> truth | S.Unknown -> false
  in
  let falsified =
    answer = S.Sat
    &&
    let a = S.get_bv s (T.bv_var "a" ~width:q.cwidth)
    and b = S.get_bv s (T.bv_var "b" ~width:q.cwidth) in
    not (List.for_all (holds_at ~a ~b) (cert_atoms q))
  in
  (wrong, falsified, (S.cert_report s).S.failures <> [])

let cert_mutations =
  let open QCheck.Gen in
  let* drop = int_range 1 3 and* mute = int_range 1 3 and* flip = int_range 1 12 in
  return
    Sat.Solver.[ Drop_learnt_literal drop; Mute_proof_step mute; Flip_model_bit flip ]

(* Per instance: the honest run answers right with no failure, and every
   mutated answer that is wrong or whose model falsifies a term is
   flagged.  Returns the mutated runs' [(wrong, falsified)] pairs. *)
let cert_instance (q, mutations) =
  let truth = cert_truth q in
  let honest = run_cert_query q truth None = (false, false, false) in
  let mutated = List.map (fun m -> run_cert_query q truth (Some m)) mutations in
  ( honest && List.for_all (fun (w, f, flagged) -> flagged || not (w || f)) mutated,
    List.map (fun (w, f, _) -> (w, f)) mutated )

let prop_certify_flags_wrong_answers =
  QCheck.Test.make ~count:150
    ~name:"certification flags every wrong answer and falsifying model"
    (QCheck.make QCheck.Gen.(pair gen_cert_query cert_mutations))
    (fun inst -> fst (cert_instance inst))

(* The property above is not vacuous: on a fixed sample, drop-lit yields
   wrong verdicts and flip-model yields falsifying models. *)
let test_certify_property_bites () =
  let rand = Random.State.make [| 26 |] in
  let instances =
    QCheck.Gen.(generate ~rand ~n:300 (pair gen_cert_query cert_mutations))
  in
  let wrong = ref 0 and falsified = ref 0 in
  List.iter
    (fun inst ->
      match cert_instance inst with
      | false, _ -> Alcotest.fail "an honest run failed or a wrong answer went unflagged"
      | true, [ (drop_wrong, _); _; (_, flip_falsified) ] ->
        if drop_wrong then incr wrong;
        if flip_falsified then incr falsified
      | true, _ -> assert false)
    instances;
  check_bool (Printf.sprintf "drop-lit wrong verdicts (%d)" !wrong) true (!wrong > 0);
  check_bool (Printf.sprintf "flip-model falsifying models (%d)" !falsified) true
    (!falsified > 0)


(* --- introspection ----------------------------------------------------------- *)

let test_assertions_tracking () =
  let s = S.create () in
  S.assert_ s (T.bool_var "a");
  S.assert_named s "n1" (T.bool_var "b");
  Alcotest.(check int) "two live" 2 (List.length (S.assertions s));
  S.push s;
  S.assert_ s (T.bool_var "c");
  Alcotest.(check int) "three live" 3 (List.length (S.assertions s));
  S.pop s;
  Alcotest.(check int) "two after pop" 2 (List.length (S.assertions s));
  match S.assertions s with
  | [ (None, _); (Some "n1", _) ] -> ()
  | _ -> Alcotest.fail "unexpected assertion list shape"

let test_smtlib_dump () =
  let s = S.create () in
  S.declare_enum s "prop" [ "reg"; "device_type" ];
  S.assert_ s (T.ult (T.bv_var "x" ~width:8) (T.bv_of_int ~width:8 5));
  S.assert_named s "presence" (T.pred "R" [ T.enum_var "p" ~sort:"prop" ]);
  let dump = Fmt.str "%a" S.pp_smtlib s in
  let has n = Test_util.contains dump n in
  check_bool "logic line" true (has "(set-logic");
  check_bool "bv decl" true (has "(declare-const x (_ BitVec 8))");
  check_bool "pred decl" true (has "(declare-fun R");
  check_bool "named assert" true (has ":named \"presence\"");
  check_bool "bvult" true (has "(bvult x (_ bv5 8))");
  check_bool "sort comment" true (has "; sort prop = { reg device_type }");
  check_bool "check-sat" true (has "(check-sat)")


(* --- additional term coverage -------------------------------------------------- *)

let test_distinct_three () =
  let s = S.create () in
  let xs = List.init 3 (fun i -> T.bv_var (Printf.sprintf "d%d" i) ~width:2) in
  S.assert_ s (T.distinct xs);
  (* 3 distinct values fit in 2 bits... *)
  check_bool "3 in 2 bits sat" true (is_sat (S.check s));
  (* ...but 5 distinct values cannot. *)
  let s2 = S.create () in
  let ys = List.init 5 (fun i -> T.bv_var (Printf.sprintf "e%d" i) ~width:2) in
  S.assert_ s2 (T.distinct ys);
  check_bool "5 in 2 bits unsat" false (is_sat (S.check s2))

let test_binary_predicate () =
  (* A binary "requires" relation over a finite sort. *)
  let s = S.create () in
  S.declare_enum s "f" [ "cpu"; "mem"; "net" ];
  let req a b = T.pred "Req" [ T.enum ~sort:"f" a; T.enum ~sort:"f" b ] in
  S.assert_ s (req "net" "cpu");
  S.assert_ s (req "cpu" "mem");
  (* Transitivity axiom, grounded. *)
  S.assert_ s
    (S.forall_enum s ~sort:"f" (fun x ->
         S.forall_enum s ~sort:"f" (fun y ->
             S.forall_enum s ~sort:"f" (fun z ->
                 T.implies
                   (T.and_ [ T.pred "Req" [ x; y ]; T.pred "Req" [ y; z ] ])
                   (T.pred "Req" [ x; z ])))));
  check_bool "sat" true (is_sat (S.check s));
  check_bool "transitive consequence" true (S.get_bool s (req "net" "mem"));
  S.assert_ s (T.not_ (req "net" "mem"));
  check_bool "contradiction unsat" false (is_sat (S.check s))

(* --- CNF identity --------------------------------------------------------------- *)

(* The clauses the blaster hands the SAT solver are part of the report
   contract: certified reports print each query's trace-step count, and
   models, cores and containment witnesses follow from the exact clause
   stream.  These tests blast fixed terms onto a proof-logging solver, solve
   under activation literals as the checker's scopes do, and pin the digest
   of the whole trace (input clauses verbatim, then learnt clauses and
   deletions) together with the variable and clause counts.  An optimisation
   of [Blast] or [Sat.Solver] must reproduce all of it. *)

let cnf_enum_sorts =
  [ ("props", [ "compatible"; "reg"; "status"; "interrupts"; "clocks" ]);
    ("status", [ "okay"; "disabled"; "reserved" ]) ]

(* Blast each group's terms, each guarded by a fresh activation literal;
   then solve once per group with that group's literals assumed. *)
let cnf_digest groups =
  let sat = Sat.Solver.create () in
  Sat.Solver.enable_proof sat;
  let enum_universe s = Array.of_list (List.assoc s cnf_enum_sorts) in
  let sort_of =
    T.sort_of ~enum_sorts:(fun s -> Option.map Array.of_list (List.assoc_opt s cnf_enum_sorts))
  in
  let ctx = Smt.Blast.create ~sat ~enum_universe ~sort_of in
  let guard term =
    let l = Smt.Blast.blast_bool ctx term in
    let act = Sat.Lit.of_var (Sat.Solver.new_var sat) in
    ignore (Sat.Solver.add_clause sat [ Sat.Lit.neg act; l ] : bool);
    act
  in
  let acts = List.map (List.map guard) groups in
  let verdicts =
    List.map
      (fun assumptions ->
        match Sat.Solver.solve ~assumptions sat with
        | Sat.Solver.Sat -> "sat"
        | Sat.Solver.Unsat -> "unsat"
        | Sat.Solver.Unknown -> "unknown")
      acts
  in
  let trace = Fmt.str "%a" Sat.Proof.pp_drup (Option.get (Sat.Solver.proof sat)) in
  ( Digest.to_hex (Digest.string trace),
    Sat.Solver.num_vars sat,
    Sat.Solver.num_clauses sat,
    String.concat " " verdicts )

let check_cnf name (digest, vars, clauses, verdicts) actual =
  let digest', vars', clauses', verdicts' = actual in
  Alcotest.(check string) (name ^ ": verdicts") verdicts verdicts';
  Alcotest.(check int) (name ^ ": vars") vars vars';
  Alcotest.(check int) (name ^ ": stored clauses") clauses clauses';
  Alcotest.(check string) (name ^ ": trace digest") digest digest'

(* The shapes the schema compiler and the semantic checks emit. *)
let test_cnf_checker_shapes () =
  let path = "/soc/uart@10000000" in
  let pname p = T.enum ~sort:"props" p in
  let r x = T.pred ("R|uart|" ^ path) [ x ] and c x = T.pred ("C|uart|" ^ path) [ x ] in
  let forall f = T.and_ (List.map (fun p -> f (pname p)) (List.assoc "props" cnf_enum_sorts)) in
  let cnt = T.bv_var "cnt" ~width:16 and cells = T.bv_var "cells" ~width:16 in
  let cell i = T.bv_var (Printf.sprintf "cell|%d" i) ~width:32 in
  let cell0 = T.bv_var "cell0" ~width:64 in
  let wide t = T.zero_extend ~by:16 t in
  let multiple_of m q =
    T.implies (r (pname "reg"))
      (T.eq (wide cells) (T.mul (wide (T.bv_of_int ~width:16 m)) (wide (T.bv_var q ~width:16))))
  in
  let status = T.enum_var "valv|status" ~sort:"status" in
  let present = [ "compatible"; "reg"; "status" ] in
  let base i = T.bv_var (Printf.sprintf "base%d" i) ~width:64 in
  let shapes =
    [ T.eq cnt (T.bv_of_int ~width:16 2);
      T.eq cells (T.bv_of_int ~width:16 12);
      T.implies (r (pname "reg")) (T.eq (cell 0) (T.bv ~width:32 0x10000000L));
      T.eq (cell 1) (T.bv ~width:32 0x1000L);
      T.eq cell0 (T.bv ~width:64 0x10000000L);
      T.implies (r (pname "reg")) (T.ule (T.bv_of_int ~width:16 1) cnt);
      T.implies (r (pname "reg")) (T.ule cnt (T.bv_of_int ~width:16 4));
      T.implies (r (pname "reg")) (T.uge cell0 (T.bv ~width:64 0x10000000L));
      T.implies (r (pname "reg")) (T.ule cell0 (T.bv ~width:64 0x1fffffffL));
      multiple_of 1 "q1";
      multiple_of 2 "q2";
      multiple_of 3 "q3";
      multiple_of 12 "q12";
      T.implies (r (pname "status"))
        (T.or_ [ T.eq status (T.enum ~sort:"status" "okay"); T.eq status (T.enum ~sort:"status" "disabled") ]);
      T.eq status (T.enum ~sort:"status" "okay");
      forall (fun x -> T.iff (c x) (T.or_ (List.map (fun p -> T.eq x (pname p)) present)));
      forall (fun x ->
          T.and_ [ T.implies (c x) (r x); T.implies (T.not_ (c x)) (T.not_ (r x)) ]);
      T.distinct [ base 0; base 1; base 2 ];
    ]
  in
  (* Five 64-bit bases below 4 cannot be distinct: a search with conflicts,
     so learnt clauses enter the trace too. *)
  let pigeons =
    T.distinct (List.init 5 (fun i -> base (10 + i)))
    :: List.init 5 (fun i -> T.ule (base (10 + i)) (T.bv ~width:64 3L))
  in
  (* 12 is not a multiple of 5. *)
  let not_multiple =
    [ r (pname "reg"); multiple_of 5 "q5"; T.eq cells (T.bv_of_int ~width:16 12) ]
  in
  check_cnf "checker shapes"
    ("a5180b17e318863579898f8598785dc1", 2884, 8447, "sat unsat unsat")
    (cnf_digest [ shapes; pigeons; not_multiple ])

(* Predicates applied to enum constants, and equalities of two constants.
   [P] is first grounded on a constant and later on a variable; [Q] first
   on variables and later on constants, in both argument orders and
   mixed with a variable.  Grounding numbers every instance of a
   predicate in one go, so the order of first use pins the numbering. *)
let test_cnf_constant_predicates () =
  let prop v = T.enum ~sort:"props" v and status v = T.enum ~sort:"status" v in
  let x = T.enum_var "x" ~sort:"props" and y = T.enum_var "y" ~sort:"status" in
  let p a = T.pred "P" [ a ] and q a b = T.pred "Q" [ a; b ] in
  let terms =
    [ p (prop "reg");
      T.not_ (p (prop "status"));
      T.implies (p x) (T.or_ [ T.eq x (prop "reg"); T.eq x (prop "clocks") ]);
      q x y;
      T.not_ (q (prop "reg") (status "okay"));
      T.implies (q (prop "clocks") y) (T.eq y (status "reserved"));
      q (prop "interrupts") (status "disabled");
      T.or_ [ T.eq (prop "reg") (prop "status"); T.eq (status "okay") (status "okay") ];
      T.not_ (T.eq (status "okay") (status "disabled"));
    ]
  in
  let clash = [ q (prop "reg") (status "okay"); p (prop "reg") ] in
  check_cnf "constant predicates"
    ("ad7eccd7c3ef5b0a202b592666ef81ee", 133, 331, "sat unsat")
    (cnf_digest [ terms; clash @ terms ])

(* Seeded products: of leaves, as gen_term draws them, and of a term with
   a zero-extended half-width variable, as multipleOf builds them.  A
   local xorshift drives the choices, so the terms do not depend on the
   generator internals of QCheck or Stdlib.Random, which differ between
   library versions. *)
let seeded_terms ~seed ~width n =
  let state = ref seed in
  let next bound =
    let x = !state in
    let x = x lxor ((x lsl 13) land 0xFFFFFFFF) in
    let x = x lxor (x lsr 17) in
    let x = x lxor ((x lsl 5) land 0xFFFFFFFF) in
    state := x;
    x mod bound
  in
  let leaf () =
    match next 3 with
    | 0 -> T.bv_var "a" ~width
    | 1 -> T.bv_var "b" ~width
    | _ -> T.bv ~width (Int64.of_int (next 1001))
  in
  let half = T.zero_extend ~by:(width / 2) (T.bv_var "h" ~width:(width / 2)) in
  let rec gen n =
    if n = 0 then leaf ()
    else
      match next 3 with
      | 0 -> leaf ()
      | 1 ->
        let x = gen (n / 2) in
        let y = gen (n / 2) in
        T.mul x y
      | _ -> T.mul (gen (n / 2)) half
  in
  List.init n (fun _ -> gen 3)

let test_cnf_seeded_terms () =
  List.iter
    (fun (width, expected) ->
      let terms = seeded_terms ~seed:(0x9E3779B9 + width) ~width 6 in
      let result i term = T.eq term (T.bv_var (Printf.sprintf "r%d" i) ~width) in
      let pin name ~width v = T.eq (T.bv_var name ~width) (T.bv ~width v) in
      (* The results as free circuits, then every result under fixed inputs. *)
      let circuits = List.mapi result terms in
      let fixed =
        pin "a" ~width 0x5A5A5A5A5A5A5A5AL
        :: pin "b" ~width 0x0123456789ABCDEFL
        :: pin "h" ~width:(width / 2) 0x0F1E2D3C4B5A6978L
        :: circuits
      in
      check_cnf (Printf.sprintf "width %d" width) expected (cnf_digest [ circuits; fixed ]))
    [ (8, ("305835c217cdff2354c368c2b75b16ff", 772, 2435, "sat sat"));
      (16, ("847a84acfe05f05cb6612d61ccf577e5", 3976, 13328, "sat sat"));
      (32, ("e742362fded1cc582a229848319d59b9", 21816, 74284, "sat sat"));
    ]

let () =
  Alcotest.run "smt"
    [
      ( "bitvectors",
        [
          Alcotest.test_case "arith model" `Quick test_bv_arith_model;
          Alcotest.test_case "overflow wraps" `Quick test_bv_overflow_wraps;
          Alcotest.test_case "mul" `Quick test_bv_mul;
          Alcotest.test_case "extend" `Quick test_bv_extend;
          Alcotest.test_case "64-bit addresses" `Quick test_wide_64bit;
        ] );
      ( "overlap",
        [
          Alcotest.test_case "disjoint" `Quick test_overlap_disjoint;
          Alcotest.test_case "clash" `Quick test_overlap_clash;
        ] );
      ( "enums",
        [
          Alcotest.test_case "basic" `Quick test_enum_basic;
          Alcotest.test_case "exhausted universe" `Quick test_enum_exhausted;
          Alcotest.test_case "redeclare" `Quick test_enum_redeclare;
          Alcotest.test_case "pred + forall (closure axiom)" `Quick test_pred_and_forall;
          Alcotest.test_case "exists" `Quick test_exists_enum;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "push/pop" `Quick test_push_pop;
          Alcotest.test_case "nested scopes" `Quick test_nested_scopes;
          Alcotest.test_case "named core" `Quick test_named_core;
          Alcotest.test_case "assumptions" `Quick test_check_assumptions;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "distinct (3+)" `Quick test_distinct_three;
          Alcotest.test_case "binary predicate + grounded transitivity" `Quick test_binary_predicate;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "assertions tracking" `Quick test_assertions_tracking;
          Alcotest.test_case "smtlib dump" `Quick test_smtlib_dump;
        ] );
      ( "errors",
        [
          Alcotest.test_case "sort errors" `Quick test_sort_errors;
          Alcotest.test_case "model unavailable" `Quick test_model_unavailable;
          Alcotest.test_case "released solver" `Quick test_released_solver;
        ] );
      ( "certification",
        [
          Alcotest.test_case "mixed queries across scopes" `Quick test_certify_mixed_queries;
          Alcotest.test_case "unknown exempt" `Quick test_certify_unknown_exempt;
          Alcotest.test_case "catches unsound solver" `Quick
            test_certify_catches_unsound_solver;
          Alcotest.test_case "off by default" `Quick test_certify_off_by_default;
          Alcotest.test_case "mutants yield wrong answers" `Quick
            test_certify_property_bites;
          QCheck_alcotest.to_alcotest prop_certify_flags_wrong_answers;
        ] );
      ( "escalation",
        [
          Alcotest.test_case "recovers forced Unknown" `Quick
            test_escalation_recovers_forced_unknown;
          Alcotest.test_case "exhausts honestly" `Quick test_escalation_exhausts_honestly;
          Alcotest.test_case "certifies final attempt" `Quick
            test_escalation_certifies_final_attempt;
          Alcotest.test_case "none is inert" `Quick test_escalation_none_is_inert;
          Alcotest.test_case "budget scaling" `Quick test_escalation_budget_scaling;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest (prop_blaster_matches_interp 8);
          QCheck_alcotest.to_alcotest (prop_blaster_matches_interp 16);
          QCheck_alcotest.to_alcotest (prop_blaster_matches_interp 32);
          QCheck_alcotest.to_alcotest (prop_comparisons_match 8);
          QCheck_alcotest.to_alcotest (prop_comparisons_match 16);
          QCheck_alcotest.to_alcotest (prop_comparisons_match 64);
        ] );
      ( "cnf-identity",
        [
          Alcotest.test_case "checker shapes" `Quick test_cnf_checker_shapes;
          Alcotest.test_case "seeded terms" `Quick test_cnf_seeded_terms;
          Alcotest.test_case "constant predicates" `Quick test_cnf_constant_predicates;
        ] );
    ]
