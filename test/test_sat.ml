(* Tests for the CDCL SAT solver substrate: unit behaviour, classic hard
   instances, assumptions/cores, and a qcheck comparison against a
   brute-force model enumerator on random small CNFs. *)

let lit v = Sat.Lit.of_var v
let nlit v = Sat.Lit.neg (Sat.Lit.of_var v)

let fresh_solver n =
  let s = Sat.Solver.create () in
  let vars = Array.init n (fun _ -> Sat.Solver.new_var s) in
  (s, vars)

let check_sat = Alcotest.(check bool)

(* --- basic behaviour ----------------------------------------------------- *)

let test_empty () =
  let s = Sat.Solver.create () in
  check_sat "empty problem is sat" true (Sat.Solver.solve s = Sat.Solver.Sat)

let test_unit_clause () =
  let s, v = fresh_solver 1 in
  ignore (Sat.Solver.add_clause s [ lit v.(0) ] : bool);
  check_sat "sat" true (Sat.Solver.solve s = Sat);
  check_sat "forced true" true (Sat.Solver.value s v.(0))

let test_contradiction () =
  let s, v = fresh_solver 1 in
  ignore (Sat.Solver.add_clause s [ lit v.(0) ] : bool);
  let ok = Sat.Solver.add_clause s [ nlit v.(0) ] in
  check_sat "becomes trivially unsat" false ok;
  check_sat "unsat" true (Sat.Solver.solve s = Unsat)

(* add_clause stores the sorted clause without duplicates or literals false
   at level 0, drops tautologies and satisfied clauses, and logs every
   input verbatim. *)
let test_add_clause_simplifies () =
  let s, v = fresh_solver 4 in
  Sat.Solver.enable_proof s;
  let add lits = Sat.Solver.add_clause s lits in
  let stored () = Sat.Solver.num_clauses s in
  check_sat "tautology accepted" true (add [ lit v.(0); nlit v.(1); nlit v.(0) ]);
  Alcotest.(check int) "tautology not stored" 0 (stored ());
  check_sat "duplicate unit accepted" true (add [ lit v.(1); lit v.(1) ]);
  Alcotest.(check int) "unit not stored" 0 (stored ());
  check_sat "false literal dropped" true (add [ lit v.(3); nlit v.(1); lit v.(2) ]);
  Alcotest.(check int) "binary stored" 1 (stored ());
  check_sat "satisfied accepted" true (add [ lit v.(2); lit v.(1) ]);
  Alcotest.(check int) "satisfied not stored" 1 (stored ());
  check_sat "sat" true (Sat.Solver.solve s = Sat);
  check_sat "unit propagated" true (Sat.Solver.value s v.(1));
  check_sat "all false refutes" false (add [ nlit v.(1); nlit v.(1) ]);
  let proof = Option.get (Sat.Solver.proof s) in
  Alcotest.(check int) "every input logged" 5 (Sat.Proof.n_inputs proof);
  match Sat.Proof.step proof 2 with
  | Sat.Proof.Input c ->
    Alcotest.(check (array int)) "logged verbatim" [| lit v.(3); nlit v.(1); lit v.(2) |] c
  | _ -> Alcotest.fail "expected an input step"

(* Variables must be allocated before a clause or an assumption names
   them; otherwise the literal would read and write unowned slots. *)
let test_unallocated_variables_rejected () =
  let s, _ = fresh_solver 1 in
  Sat.Solver.enable_proof s;
  Alcotest.check_raises "clause"
    (Invalid_argument "Solver.add_clause: literal of an unallocated variable") (fun () ->
      ignore (Sat.Solver.add_clause s [ lit 5 ] : bool));
  Alcotest.check_raises "negative literal"
    (Invalid_argument "Solver.add_clause: literal of an unallocated variable") (fun () ->
      ignore (Sat.Solver.add_clause s [ lit 0; -1 ] : bool));
  Alcotest.check_raises "assumption"
    (Invalid_argument "Solver.solve: assumption of an unallocated variable") (fun () ->
      ignore (Sat.Solver.solve ~assumptions:[ lit 9 ] s : Sat.Solver.result));
  Alcotest.(check int) "nothing logged" 0 (Sat.Proof.length (Option.get (Sat.Solver.proof s)));
  Alcotest.(check int) "nothing stored" 0 (Sat.Solver.num_clauses s);
  check_sat "still usable" true (Sat.Solver.solve ~assumptions:[ lit 0 ] s = Sat);
  check_sat "assumption holds" true (Sat.Solver.value s 0)

let test_propagation_chain () =
  (* x0 and a chain x_i -> x_{i+1} forces everything true. *)
  let n = 50 in
  let s, v = fresh_solver n in
  ignore (Sat.Solver.add_clause s [ lit v.(0) ] : bool);
  for i = 0 to n - 2 do
    ignore (Sat.Solver.add_clause s [ nlit v.(i); lit v.(i + 1) ] : bool)
  done;
  check_sat "sat" true (Sat.Solver.solve s = Sat);
  for i = 0 to n - 1 do
    check_sat (Printf.sprintf "x%d true" i) true (Sat.Solver.value s v.(i))
  done

let test_three_coloring_triangle () =
  (* A triangle is 3-colorable but not 2-colorable. *)
  let solve_coloring colors =
    let nodes = 3 in
    let s = Sat.Solver.create () in
    let var = Array.init nodes (fun _ -> Array.init colors (fun _ -> Sat.Solver.new_var s)) in
    for n = 0 to nodes - 1 do
      ignore
        (Sat.Solver.add_clause s (List.init colors (fun c -> lit var.(n).(c))) : bool);
      for c = 0 to colors - 1 do
        for c' = c + 1 to colors - 1 do
          ignore (Sat.Solver.add_clause s [ nlit var.(n).(c); nlit var.(n).(c') ] : bool)
        done
      done
    done;
    let edge a b =
      for c = 0 to colors - 1 do
        ignore (Sat.Solver.add_clause s [ nlit var.(a).(c); nlit var.(b).(c) ] : bool)
      done
    in
    edge 0 1;
    edge 1 2;
    edge 0 2;
    Sat.Solver.solve s
  in
  check_sat "2 colors unsat" true (solve_coloring 2 = Unsat);
  check_sat "3 colors sat" true (solve_coloring 3 = Sat)

let test_pigeonhole () =
  (* PHP(n+1, n): n+1 pigeons in n holes is unsat; classic hard family. *)
  let php pigeons holes =
    let s = Sat.Solver.create () in
    let var =
      Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.Solver.new_var s))
    in
    for p = 0 to pigeons - 1 do
      ignore
        (Sat.Solver.add_clause s (List.init holes (fun h -> lit var.(p).(h))) : bool)
    done;
    for h = 0 to holes - 1 do
      for p = 0 to pigeons - 1 do
        for p' = p + 1 to pigeons - 1 do
          ignore (Sat.Solver.add_clause s [ nlit var.(p).(h); nlit var.(p').(h) ] : bool)
        done
      done
    done;
    Sat.Solver.solve s
  in
  check_sat "php(6,5) unsat" true (php 6 5 = Unsat);
  check_sat "php(5,5) sat" true (php 5 5 = Sat)

(* --- resource budgets ------------------------------------------------------ *)

let test_budget_unknown_on_hard_instance () =
  (* PHP(9,8) needs far more than 100 conflicts; the budget must make the
     solver give up with Unknown instead of running to completion. *)
  let pigeons = 9 and holes = 8 in
  let s = Sat.Solver.create () in
  let var =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.Solver.new_var s))
  in
  for p = 0 to pigeons - 1 do
    ignore (Sat.Solver.add_clause s (List.init holes (fun h -> lit var.(p).(h))) : bool)
  done;
  for h = 0 to holes - 1 do
    for p = 0 to pigeons - 1 do
      for p' = p + 1 to pigeons - 1 do
        ignore (Sat.Solver.add_clause s [ nlit var.(p).(h); nlit var.(p').(h) ] : bool)
      done
    done
  done;
  let budget = Sat.Solver.budget ~max_conflicts:100 () in
  check_sat "unknown under tight budget" true (Sat.Solver.solve ~budget s = Unknown);
  (* The same solver must remain usable: a follow-up budgetless solve on a
     trivial extra query still terminates with a definite answer. *)
  let x = Sat.Solver.new_var s in
  check_sat "usable after unknown" true
    (Sat.Solver.solve ~assumptions:[ lit x ] s <> Unknown)

let test_budget_scrubs_stale_model_and_core () =
  (* Populate a model and a core, then force Unknown: the stale artifacts
     of earlier solves must not leak through the accessors. *)
  let s, v = fresh_solver 3 in
  ignore (Sat.Solver.add_clause s [ lit v.(0) ] : bool);
  check_sat "sat populates model" true (Sat.Solver.solve s = Sat);
  check_sat "model nonempty" true (Sat.Solver.model s <> [||]);
  ignore (Sat.Solver.add_clause s [ nlit v.(1); nlit v.(2) ] : bool);
  check_sat "unsat populates core" true
    (Sat.Solver.solve ~assumptions:[ lit v.(1); lit v.(2) ] s = Unsat);
  check_sat "core nonempty" true (Sat.Solver.unsat_core s <> []);
  let budget = Sat.Solver.budget ~max_decisions:0 ~max_conflicts:0 () in
  check_sat "zero budget gives unknown" true (Sat.Solver.solve ~budget s = Unknown);
  check_sat "model scrubbed" true (Sat.Solver.model s = [||]);
  check_sat "core scrubbed" true (Sat.Solver.unsat_core s = []);
  (* And the budget does not stick to the solver. *)
  check_sat "budget is per-call" true (Sat.Solver.solve s = Sat)

let test_budget_time_limit () =
  let s, v = fresh_solver 2 in
  ignore (Sat.Solver.add_clause s [ lit v.(0); lit v.(1) ] : bool);
  (* An already-expired deadline must yield Unknown even on an easy query. *)
  let expired = Sat.Solver.budget ~time_limit:(-1.0) () in
  check_sat "expired deadline" true (Sat.Solver.solve ~budget:expired s = Unknown);
  let generous = Sat.Solver.budget ~time_limit:60.0 () in
  check_sat "generous deadline" true (Sat.Solver.solve ~budget:generous s = Sat)

(* --- assumptions and cores ----------------------------------------------- *)

let test_assumptions_sat_unsat () =
  let s, v = fresh_solver 2 in
  ignore (Sat.Solver.add_clause s [ nlit v.(0); lit v.(1) ] : bool);
  check_sat "assume x0 sat" true (Sat.Solver.solve ~assumptions:[ lit v.(0) ] s = Sat);
  check_sat "x1 forced" true (Sat.Solver.value s v.(1));
  check_sat "conflicting assumptions unsat" true
    (Sat.Solver.solve ~assumptions:[ lit v.(0); nlit v.(1) ] s = Unsat);
  (* Solver must remain usable afterwards. *)
  check_sat "still sat without assumptions" true (Sat.Solver.solve s = Sat)

let test_unsat_core () =
  let s, v = fresh_solver 4 in
  (* x0 -> x1, x1 -> x2; assuming x0 and !x2 is unsat, x3 irrelevant. *)
  ignore (Sat.Solver.add_clause s [ nlit v.(0); lit v.(1) ] : bool);
  ignore (Sat.Solver.add_clause s [ nlit v.(1); lit v.(2) ] : bool);
  let r = Sat.Solver.solve ~assumptions:[ lit v.(3); lit v.(0); nlit v.(2) ] s in
  check_sat "unsat" true (r = Unsat);
  let core = Sat.Solver.unsat_core s in
  check_sat "core nonempty" true (core <> []);
  check_sat "core excludes irrelevant x3" true
    (not (List.mem (lit v.(3)) core));
  (* The core itself must be unsat. *)
  check_sat "core is unsat" true (Sat.Solver.solve ~assumptions:core s = Unsat)

(* --- formulas / Tseitin --------------------------------------------------- *)

let test_formula_assert () =
  let open Sat.Formula in
  let s, v = fresh_solver 3 in
  let f =
    conj
      [ iff (atom v.(0)) (atom v.(1));
        neg (iff (atom v.(1)) (atom v.(2)));
        atom v.(0)
      ]
  in
  check_sat "asserted ok" true (Sat.Formula.assert_in s f);
  check_sat "sat" true (Sat.Solver.solve s = Sat);
  check_sat "x0" true (Sat.Solver.value s v.(0));
  check_sat "x1" true (Sat.Solver.value s v.(1));
  check_sat "x2 false" false (Sat.Solver.value s v.(2))

(* Exactly one of four: the encoding a feature model's Xor group gets. *)
let test_formula_exactly_one () =
  let open Sat.Formula in
  let s, v = fresh_solver 4 in
  let atoms = List.init 4 (fun i -> atom v.(i)) in
  let f = conj [ disj atoms; at_most_one atoms ] in
  check_sat "ok" true (assert_in s f);
  check_sat "sat" true (Sat.Solver.solve s = Sat);
  let count = ref 0 in
  for i = 0 to 3 do
    if Sat.Solver.value s v.(i) then incr count
  done;
  Alcotest.(check int) "exactly one true" 1 !count

(* --- dimacs --------------------------------------------------------------- *)

let test_dimacs_roundtrip () =
  let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let cnf = Sat.Dimacs.parse text in
  Alcotest.(check int) "vars" 3 cnf.num_vars;
  Alcotest.(check int) "clauses" 2 (List.length cnf.clauses);
  let printed = Fmt.str "%a" Sat.Dimacs.print cnf in
  let cnf' = Sat.Dimacs.parse printed in
  Alcotest.(check int) "roundtrip clauses" 2 (List.length cnf'.clauses);
  let solver, ok = Sat.Dimacs.load cnf in
  check_sat "load ok" true ok;
  check_sat "sat" true (Sat.Solver.solve solver = Sat)

let test_dimacs_errors () =
  let expect_error what input =
    match Sat.Dimacs.parse input with
    | (_ : Sat.Dimacs.cnf) -> Alcotest.failf "%s: expected Dimacs.Error" what
    | exception Sat.Dimacs.Error _ -> ()
  in
  expect_error "unterminated clause" "p cnf 2 1\n1 2";
  expect_error "count mismatch" "p cnf 2 2\n1 0\n";
  expect_error "bad token" "p cnf 2 1\n1 x 0\n";
  expect_error "literal out of range" "p cnf 2 1\n1 3 0\n";
  expect_error "malformed problem line" "p cnf x y\n1 0\n";
  expect_error "negative header" "p cnf -2 1\n1 0\n"

(* --- restart diversification & forced Unknown ------------------------------ *)

let php_instance pigeons holes =
  let s = Sat.Solver.create () in
  let var =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.Solver.new_var s))
  in
  for p = 0 to pigeons - 1 do
    ignore (Sat.Solver.add_clause s (List.init holes (fun h -> lit var.(p).(h))) : bool)
  done;
  for h = 0 to holes - 1 do
    for p = 0 to pigeons - 1 do
      for p' = p + 1 to pigeons - 1 do
        ignore (Sat.Solver.add_clause s [ nlit var.(p).(h); nlit var.(p').(h) ] : bool)
      done
    done
  done;
  s

let all_polarity_modes =
  [ Sat.Solver.Phase_saved; Phase_false; Phase_true; Phase_inverted; Phase_random ]

let test_diversification_sound () =
  (* Every (seed, polarity, decay) combination is a different search order
     over the same space: verdicts must never change. *)
  List.iter
    (fun polarity_mode ->
      List.iter
        (fun seed ->
          List.iter
            (fun var_decay ->
              let sat = php_instance 5 5 in
              check_sat "php(5,5) sat under diversification" true
                (Sat.Solver.solve ?seed ~polarity_mode ?var_decay sat = Sat);
              let unsat = php_instance 6 5 in
              check_sat "php(6,5) unsat under diversification" true
                (Sat.Solver.solve ?seed ~polarity_mode ?var_decay unsat = Unsat))
            [ None; Some 0.8; Some 0.99 ])
        [ None; Some 1; Some 42; Some 0x9E3779B9 ])
    all_polarity_modes

let test_diversification_deterministic () =
  (* Same seed, same mode -> byte-identical model: the PRNG is explicit
     state, never wall-clock or global. *)
  let run () =
    let s = php_instance 5 5 in
    check_sat "sat" true
      (Sat.Solver.solve ~seed:1234 ~polarity_mode:Sat.Solver.Phase_random s = Sat);
    Sat.Solver.model s
  in
  Alcotest.(check (array bool)) "same seed, same model" (run ()) (run ())

let test_polarity_modes_differ () =
  (* One clause (x0 or x1), nothing else: phase-false finds x0=false,
     x1=true; phase-true finds all-true.  Diversification really does steer
     the search. *)
  let build () =
    let s, v = fresh_solver 2 in
    ignore (Sat.Solver.add_clause s [ lit v.(0); lit v.(1) ] : bool);
    s
  in
  let s_false = build () and s_true = build () in
  check_sat "sat (false phases)" true
    (Sat.Solver.solve ~polarity_mode:Sat.Solver.Phase_false s_false = Sat);
  check_sat "sat (true phases)" true
    (Sat.Solver.solve ~polarity_mode:Sat.Solver.Phase_true s_true = Sat);
  check_sat "phase-false model differs from phase-true model" false
    (Sat.Solver.model s_false = Sat.Solver.model s_true)

let test_bad_var_decay_rejected () =
  let s, _ = fresh_solver 2 in
  Alcotest.check_raises "decay must be in (0,1)"
    (Invalid_argument "Solver.solve: var_decay 1.5 not in (0,1)")
    (fun () -> ignore (Sat.Solver.solve ~var_decay:1.5 s : Sat.Solver.result))

let test_force_unknown_scrubs () =
  let s, v = fresh_solver 2 in
  ignore (Sat.Solver.add_clause s [ lit v.(0) ] : bool);
  Sat.Solver.inject_unsoundness s (Sat.Solver.Force_unknown 2);
  check_sat "1st solve unaffected" true (Sat.Solver.solve s = Sat);
  check_sat "2nd solve forced Unknown" true (Sat.Solver.solve s = Unknown);
  Alcotest.(check (array bool)) "no model after forced Unknown" [||] (Sat.Solver.model s);
  Alcotest.(check int) "no core after forced Unknown" 0
    (List.length (Sat.Solver.unsat_core s));
  check_sat "3rd solve recovers" true (Sat.Solver.solve s = Sat)

(* --- certification (proof logging + independent checker) ------------------ *)

let check_result what = function
  | Ok (_ : int) -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

let expect_error what = function
  | Ok (_ : int) -> Alcotest.failf "%s: expected certification failure" what
  | Error (_ : string) -> ()

let proof_of s =
  match Sat.Solver.proof s with
  | Some p -> p
  | None -> Alcotest.fail "proof logging not enabled"

(* PHP(pigeons, holes) on a proof-enabled solver; unsat for pigeons > holes. *)
let php_solver pigeons holes =
  let s = Sat.Solver.create () in
  Sat.Solver.enable_proof s;
  let var =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.Solver.new_var s))
  in
  for p = 0 to pigeons - 1 do
    ignore (Sat.Solver.add_clause s (List.init holes (fun h -> lit var.(p).(h))) : bool)
  done;
  for h = 0 to holes - 1 do
    for p = 0 to pigeons - 1 do
      for p' = p + 1 to pigeons - 1 do
        ignore (Sat.Solver.add_clause s [ nlit var.(p).(h); nlit var.(p').(h) ] : bool)
      done
    done
  done;
  s

let test_certify_unsat_proof () =
  let s = php_solver 6 5 in
  check_sat "php(6,5) unsat" true (Sat.Solver.solve s = Unsat);
  check_result "refutation certificate" (Sat.Checker.check_proof (proof_of s))

let test_certify_sat_model () =
  let s = php_solver 5 5 in
  check_sat "php(5,5) sat" true (Sat.Solver.solve s = Sat);
  check_result "model certificate"
    (Sat.Checker.check_sat_model (proof_of s) (fun l -> Sat.Solver.lit_value s l))

let test_certify_empty_problem () =
  (* Edge: no clauses at all.  Sat, and the (empty) trace certifies. *)
  let s = Sat.Solver.create () in
  Sat.Solver.enable_proof s;
  check_sat "empty problem sat" true (Sat.Solver.solve s = Sat);
  check_result "empty certificate"
    (Sat.Checker.check_sat_model (proof_of s) (fun l -> Sat.Solver.lit_value s l))

let test_certify_trivially_unsat_at_load () =
  (* Edge: contradiction among the input units; the solver never searches
     (load reports not-ok) yet the trace alone must refute. *)
  let cnf = Sat.Dimacs.parse "p cnf 1 2\n1 0\n-1 0\n" in
  let s, ok = Sat.Dimacs.load ~proof:true cnf in
  check_sat "trivially unsat at load" false ok;
  check_result "input-only refutation" (Sat.Checker.check_proof (proof_of s))

let test_certify_enable_proof_late_rejected () =
  let s, v = fresh_solver 1 in
  ignore (Sat.Solver.add_clause s [ lit v.(0) ] : bool);
  try
    Sat.Solver.enable_proof s;
    Alcotest.fail "enable_proof after add_clause must be rejected"
  with Invalid_argument _ -> ()

(* Injected unsoundness must be caught — this is the acceptance test for the
   whole certification chain: a wrong verdict can never certify. *)
let test_certify_catches_dropped_literal () =
  let s = php_solver 6 5 in
  Sat.Solver.inject_unsoundness s (Sat.Solver.Drop_learnt_literal 2);
  check_sat "still reports unsat" true (Sat.Solver.solve s = Unsat);
  expect_error "dropped learnt literal" (Sat.Checker.check_proof (proof_of s))

let test_certify_catches_muted_proof_step () =
  let s = php_solver 6 5 in
  Sat.Solver.inject_unsoundness s (Sat.Solver.Mute_proof_step 3);
  check_sat "still reports unsat" true (Sat.Solver.solve s = Unsat);
  expect_error "muted proof step" (Sat.Checker.check_proof (proof_of s))

let test_certify_catches_flipped_model_bit () =
  (* Forced chain: the model is unique, so any flipped bit falsifies it. *)
  let n = 30 in
  let s = Sat.Solver.create () in
  Sat.Solver.enable_proof s;
  let v = Array.init n (fun _ -> Sat.Solver.new_var s) in
  ignore (Sat.Solver.add_clause s [ lit v.(0) ] : bool);
  for i = 0 to n - 2 do
    ignore (Sat.Solver.add_clause s [ nlit v.(i); lit v.(i + 1) ] : bool)
  done;
  Sat.Solver.inject_unsoundness s (Sat.Solver.Flip_model_bit 7);
  check_sat "still reports sat" true (Sat.Solver.solve s = Sat);
  expect_error "flipped model bit"
    (Sat.Checker.check_sat_model (proof_of s) (fun l -> Sat.Solver.lit_value s l))

(* Seeded random 3-SAT: [clauses] clauses of three distinct variables out
   of [vars], each literal's sign a coin flip. *)
let random_3sat ~seed ~vars ~clauses =
  let rng = Random.State.make [| seed |] in
  let rec pick acc =
    if List.length acc = 3 then acc
    else
      let v = Random.State.int rng vars in
      pick (if List.mem v acc then acc else v :: acc)
  in
  List.init clauses (fun _ ->
      List.map (fun v -> Sat.Lit.make ~var:v ~negated:(Random.State.bool rng)) (pick []))

(* Database reduction only starts past 1,000 live learnt clauses, so only
   an instance this hard logs [Delete] steps.  Seed 14 is satisfiable and
   seed 12 unsatisfiable; both traces delete about 500 clauses. *)
let test_certify_deletions () =
  let solve seed =
    let clauses = random_3sat ~seed ~vars:130 ~clauses:554 in
    let s, ok = Sat.Dimacs.load ~proof:true { Sat.Dimacs.num_vars = 130; clauses } in
    check_sat "loads" true ok;
    (s, Sat.Solver.solve s, proof_of s)
  in
  (* the ids the trace's deletions retire *)
  let retired proof =
    let ids = ref [] and edits = ref 0 in
    Sat.Proof.iter
      (function
        | Sat.Proof.Input _ -> ()
        | Sat.Proof.Add _ -> incr edits
        | Sat.Proof.Delete _ ->
          ids := (Sat.Proof.hints proof !edits).ids.(0) :: !ids;
          incr edits)
      proof;
    !ids
  in
  let _, answer, proof = solve 12 in
  check_sat "seed 12 unsat" true (answer = Unsat);
  check_sat "seed 12 deletes" true (retired proof <> []);
  check_result "hinted refutation" (Sat.Checker.check_proof proof);
  check_result "RUP oracle refutation" (Rup_oracle.check_proof proof);
  let s, answer, proof = solve 14 in
  check_sat "seed 14 sat" true (answer = Sat);
  let dead = retired proof in
  check_sat "seed 14 deletes" true (dead <> []);
  let model l = Sat.Solver.lit_value s l in
  check_result "hinted model" (Sat.Checker.check_sat_model proof model);
  check_result "RUP oracle model" (Rup_oracle.check_sat_model proof model);
  (* Re-adding a learnt clause that cites itself is implied while it is
     live, and rejected once a deletion has retired it. *)
  let ck = Sat.Checker.create proof in
  Alcotest.(check (list string)) "replays" [] (Sat.Checker.replay ck);
  let readd id =
    match Sat.Proof.step proof id with
    | Sat.Proof.Add c ->
      ignore (Sat.Proof.log_add proof c ~pos:0 ~len:(Array.length c) ~hints:[ id ] : int);
      Sat.Checker.replay ck
    | _ -> Alcotest.failf "step %d is not a learnt clause" id
  in
  let rec live_learnt i =
    match Sat.Proof.step proof i with
    | Sat.Proof.Add _ when not (List.mem i dead) -> i
    | _ -> live_learnt (i + 1)
  in
  Alcotest.(check (list string)) "citing a live clause" [] (readd (live_learnt 0));
  let d = List.hd dead in
  match readd d with
  | [ e ] ->
    check_sat "names the retired hint" true
      (Test_util.contains e (Printf.sprintf "hint %d is not a live clause" d))
  | es -> Alcotest.failf "want one rejection, got [%s]" (String.concat "; " es)

(* --- the search, pinned ---------------------------------------------------- *)

let php_8_7 = "../examples/files/php-8-7.cnf"

(* The clause store is one int block per clause, yet the search is the one
   the record layout ran: the same watch order, propagation order and
   [reduce_db] sort.  These runs reach [reduce_db] (the seeded 3-SAT
   traces each delete about 500 learnt clauses, PHP(8,7) about 14,000),
   so their trace, its length and the solver's counters pin all three.
   The figures were recorded with the record layout. *)
let random_cnf seed =
  { Sat.Dimacs.num_vars = 130; clauses = random_3sat ~seed ~vars:130 ~clauses:554 }

let pins =
  [ ( "seed 12", (fun () -> random_cnf 12), Sat.Solver.Unsat, 2422,
      "b2e0087839df281bea39be59eb987d23",
      "vars=130 clauses=554 learnts=841 decisions=1607 conflicts=1359 props=38977 restarts=8" );
    ( "seed 14", (fun () -> random_cnf 14), Sat.Solver.Sat, 2097,
      "3b4d7cc0511fdbe79d299c774af8f772",
      "vars=130 clauses=554 learnts=531 decisions=1255 conflicts=1038 props=29268 restarts=6" );
    ( "PHP(8,7)", (fun () -> Sat.Dimacs.parse_file php_8_7), Sat.Solver.Unsat, 29917,
      "2671cd6c36edd11ff68245329b8f4e13",
      "vars=56 clauses=204 learnts=972 decisions=18603 conflicts=15347 props=213510 \
       restarts=61" ) ]

let check_pin ?(prefix = "") (what, cnf, answer, length, drup, stats) =
  let what = prefix ^ what in
  let s, ok = Sat.Dimacs.load ~proof:true (cnf ()) in
  check_sat (what ^ " loads") true ok;
  check_sat (what ^ " answer") true (Sat.Solver.solve s = answer);
  let proof = proof_of s in
  Alcotest.(check int) (what ^ " trace length") length (Sat.Proof.length proof);
  Alcotest.(check string) (what ^ " DRUP digest") drup
    (Digest.to_hex (Digest.string (Fmt.str "%a" Sat.Proof.pp_drup proof)));
  Alcotest.(check string) (what ^ " stats") stats (Fmt.str "%a" Sat.Solver.pp_stats s)

let test_search_pinned () = List.iter check_pin pins

(* A search cut short by an exception, at a decision level above 0: a
   timer raises once [s] has met 100 conflicts.  Seeded random 3-SAT at the
   threshold ratio, with more variables than any pin, runs long enough for
   that; a seed whose search ends first, or is cut at level 0, is skipped. *)
exception Cut

let cut_mid_search () =
  let rec attempt seed =
    if seed > 40 then Alcotest.fail "no search was cut at a decision level above 0";
    let s, _ =
      Sat.Dimacs.load
        { Sat.Dimacs.num_vars = 200; clauses = random_3sat ~seed ~vars:200 ~clauses:852 }
    in
    let stop = { Unix.it_interval = 0.; it_value = 0. } and fired = ref false in
    let previous =
      Sys.signal Sys.sigalrm
        (Sys.Signal_handle
           (fun _ ->
             if (not !fired) && Sat.Solver.num_conflicts s >= 100 then begin
               fired := true;
               raise Cut
             end))
    in
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.001; it_value = 0.001 });
    let cut = match Sat.Solver.solve s with _ -> false | exception Cut -> true in
    ignore (Unix.setitimer Unix.ITIMER_REAL stop);
    (* A signal already on its way reaches the handler above, which now
       ignores it, before the old one is back. *)
    Unix.sleepf 0.002;
    Sys.set_signal Sys.sigalrm previous;
    if cut && Sat.Solver.decision_level s > 0 then s else attempt (seed + 1)
  in
  attempt 1

(* A task that raised: it solved, then handed the solver a literal of a
   variable it never allocated. *)
let raised_task () =
  let s, _ = Sat.Dimacs.load (random_cnf 14) in
  ignore (Sat.Solver.solve ~polarity_mode:Sat.Solver.Phase_true s : Sat.Solver.result);
  (match Sat.Solver.add_clause s [ lit 4000 ] with
   | _ -> Alcotest.fail "an unallocated literal must raise"
   | exception Invalid_argument _ -> ());
  s

(* [Solver.release] hands a solver's tables to the next [create].  The
   solver built on them must search exactly as a fresh one: every pin
   again, each on a solver created right after releasing one that was cut
   mid-search or whose task raised. *)
let test_reused_solver_fresh () =
  List.iter
    (fun (how, ended) ->
      List.iter
        (fun pin ->
          Sat.Solver.release (ended ());
          check_pin ~prefix:(how ^ ", then ") pin)
        pins)
    [ ("cut mid-search", cut_mid_search); ("raised", raised_task) ]

(* [Phase_true] sets the phase of every slot a solver that never reused
   tables would hold (16, doubling), so a variable allocated after the
   solve starts true within that capacity and false beyond it.  Forty
   variables (capacity 64) are solved under [Phase_true], then twenty
   more, in clauses of their own, with saved phases.  The figures were
   recorded before tables were reused.  The same run on reused, larger
   tables must match them, and releasing the solver must clear the phases
   it set past its 60 variables. *)
let test_phase_true_then_grow () =
  let run how =
    let s = Sat.Solver.create () in
    Sat.Solver.enable_proof s;
    let add shift c =
      let c =
        List.map
          (fun l -> Sat.Lit.make ~var:(Sat.Lit.var l + shift) ~negated:(Sat.Lit.is_neg l))
          c
      in
      ignore (Sat.Solver.add_clause s c : bool)
    in
    for _ = 1 to 40 do
      ignore (Sat.Solver.new_var s : int)
    done;
    List.iter (add 0) (random_3sat ~seed:5 ~vars:40 ~clauses:120);
    check_sat (how ^ " first answer") true
      (Sat.Solver.solve ~polarity_mode:Sat.Solver.Phase_true s = Sat);
    for _ = 1 to 20 do
      ignore (Sat.Solver.new_var s : int)
    done;
    List.iter (add 40) (random_3sat ~seed:8 ~vars:20 ~clauses:84);
    check_sat (how ^ " second answer") true (Sat.Solver.solve s = Sat);
    let proof = proof_of s in
    Alcotest.(check int) (how ^ " trace length") 218 (Sat.Proof.length proof);
    Alcotest.(check string) (how ^ " DRUP digest") "f21288116077d7bab8cb1be922d4bbce"
      (Digest.to_hex (Digest.string (Fmt.str "%a" Sat.Proof.pp_drup proof)));
    Alcotest.(check string) (how ^ " stats")
      "vars=60 clauses=204 learnts=13 decisions=55 conflicts=14 props=209 restarts=0"
      (Fmt.str "%a" Sat.Solver.pp_stats s);
    s
  in
  Sat.Solver.release (run "fresh");
  (* With no clauses, every decision takes the saved phase: false on a
     fresh solver. *)
  let s, _ = fresh_solver 64 in
  check_sat "released after Phase_true, then sat" true (Sat.Solver.solve s = Sat);
  check_sat "every phase cleared" true (Array.for_all not (Sat.Solver.model s));
  Sat.Solver.release s;
  Sat.Solver.release (raised_task ());
  ignore (run "reused" : Sat.Solver.t)

(* An incremental search: seeded 3-SAT clauses added in rounds, each round
   solved under the assumptions [d; t; f].  [d] is a seeded literal, [t] is
   true at level 0, so its assumption level opens empty, and [f] assumes a
   seeded variable false.  Conflicts backjump over these levels and the
   later rounds fail on an assumption, so each round's answer and core, the
   trace and the counters pin the trail and its level marks.  Seed 1
   reaches [reduce_db]; in seed 5's round 11, [d] is false at level 0, so
   the core is [d] alone.  The figures were recorded before the trail
   became one int stack. *)
let incremental_pins =
  let sat n = List.init n (fun _ -> "sat") in
  [ ( 1, 150, 100,
      sat 5
      @ [ "unsat -143 -22"; "unsat -85 -18"; "unsat -57 -75"; "unsat -150 -139";
          "unsat -10 -93" ],
      4953, "c577b334a1355b376648788095e48682",
      "vars=151 clauses=1000 learnts=912 decisions=3213 conflicts=2432 props=75939 \
       restarts=14" );
    ( 5, 100, 60,
      sat 6
      @ [ "unsat 98 -61"; "unsat -32 -64"; "unsat -5 -70"; "unsat 21 -83"; "unsat 79";
          "unsat 24 -80" ],
      996, "d73486ca8cbcbcbde70f870520bb93f7",
      "vars=101 clauses=719 learnts=274 decisions=675 conflicts=275 props=6842 restarts=1" ) ]

let check_incremental how (seed, vars, per_round, answers, length, drup, stats) =
  let what = Printf.sprintf "%s seed %d" how seed in
  let s, _ = fresh_solver (vars + 1) in
  Sat.Solver.enable_proof s;
  let t = lit vars in
  ignore (Sat.Solver.add_clause s [ t ] : bool);
  let clauses = random_3sat ~seed ~vars ~clauses:(per_round * List.length answers) in
  let rng = Random.State.make [| seed; 1 |] in
  let round r =
    List.iteri
      (fun i c -> if i / per_round = r then ignore (Sat.Solver.add_clause s c : bool))
      clauses;
    let d = Sat.Lit.make ~var:(Random.State.int rng vars) ~negated:(Random.State.bool rng) in
    let f = nlit (Random.State.int rng vars) in
    match Sat.Solver.solve ~assumptions:[ d; t; f ] s with
    | Sat -> "sat"
    | Unsat ->
      String.concat " "
        ("unsat"
        :: List.map (fun l -> string_of_int (Sat.Lit.to_dimacs l)) (Sat.Solver.unsat_core s))
    | Unknown -> "unknown"
  in
  Alcotest.(check (list string)) (what ^ " answers and cores") answers
    (List.init (List.length answers) round);
  let proof = proof_of s in
  Alcotest.(check int) (what ^ " trace length") length (Sat.Proof.length proof);
  Alcotest.(check string) (what ^ " DRUP digest") drup
    (Digest.to_hex (Digest.string (Fmt.str "%a" Sat.Proof.pp_drup proof)));
  Alcotest.(check string) (what ^ " stats") stats (Fmt.str "%a" Sat.Solver.pp_stats s)

(* The incremental pins on fresh tables (a first [create] takes any spare
   ones), then on tables released by a solver cut mid-search and by one
   whose task raised. *)
let test_incremental_pinned () =
  ignore (Sat.Solver.create () : Sat.Solver.t);
  List.iter (check_incremental "fresh,") incremental_pins;
  List.iter
    (fun (how, ended) ->
      List.iter
        (fun pin ->
          Sat.Solver.release (ended ());
          check_incremental (how ^ ", then") pin)
        incremental_pins)
    [ ("cut mid-search", cut_mid_search); ("raised", raised_task) ]

(* A released solver refuses every further use. *)
let test_released_solver_raises () =
  let s, v = fresh_solver 3 in
  ignore (Sat.Solver.add_clause s [ lit v.(0); nlit v.(1) ] : bool);
  check_sat "sat" true (Sat.Solver.solve s = Sat);
  Sat.Solver.release s;
  let refuses what f =
    match f () with
    | () -> Alcotest.failf "%s on a released solver must raise" what
    | exception Invalid_argument _ -> ()
  in
  refuses "new_var" (fun () -> ignore (Sat.Solver.new_var s : int));
  refuses "add_clause" (fun () -> ignore (Sat.Solver.add_clause s [ lit v.(2) ] : bool));
  refuses "solve" (fun () -> ignore (Sat.Solver.solve s : Sat.Solver.result));
  refuses "value" (fun () -> ignore (Sat.Solver.value s v.(0) : bool));
  refuses "model" (fun () -> ignore (Sat.Solver.model s : bool array));
  refuses "release" (fun () -> Sat.Solver.release s);
  Alcotest.(check int) "statistics stay readable" 3 (Sat.Solver.num_vars s)

(* A stored clause is one pointer-free block: two header words and its
   literals.  PHP(8,7) stores 204 clauses of 2.2 literals on average; the
   whole solver then holds under 14 words per clause.  The record layout
   (a 6-field record plus a literal array per clause, a [Vec] record per
   watch list) held 4,000 words, 19.6 per clause. *)
let test_clause_storage_flat () =
  let s, ok = Sat.Dimacs.load (Sat.Dimacs.parse_file php_8_7) in
  check_sat "loads" true ok;
  let clauses = Sat.Solver.num_clauses s in
  Alcotest.(check int) "every clause stored" 204 clauses;
  let words = Obj.reachable_words (Obj.repr s) in
  if words >= 14 * clauses then
    Alcotest.failf "%d words for %d clauses: 14 or more per clause" words clauses

(* --- property: agreement with brute force -------------------------------- *)

let brute_force_sat num_vars clauses =
  (* Enumerate all assignments; clauses are (var, negated) lists. *)
  let rec loop assign =
    if assign >= 1 lsl num_vars then false
    else
      let value v = assign land (1 lsl v) <> 0 in
      let clause_sat c =
        List.exists (fun (v, negd) -> if negd then not (value v) else value v) c
      in
      if List.for_all clause_sat clauses then true else loop (assign + 1)
  in
  loop 0

let gen_cnf =
  let open QCheck.Gen in
  let num_vars = int_range 1 8 in
  num_vars >>= fun nv ->
  let gen_lit = pair (int_range 0 (nv - 1)) bool in
  let gen_clause = list_size (int_range 1 4) gen_lit in
  list_size (int_range 1 30) gen_clause >>= fun clauses -> return (nv, clauses)

let prop_agrees_with_brute_force =
  QCheck.Test.make ~count:500 ~name:"solver agrees with brute force"
    (QCheck.make gen_cnf)
    (fun (nv, clauses) ->
      let s = Sat.Solver.create () in
      let vars = Array.init nv (fun _ -> Sat.Solver.new_var s) in
      let ok =
        List.for_all
          (fun c ->
            Sat.Solver.add_clause s
              (List.map (fun (v, negd) -> Sat.Lit.make ~var:vars.(v) ~negated:negd) c))
          clauses
      in
      let solver_sat = ok && Sat.Solver.solve s = Sat in
      let expected = brute_force_sat nv clauses in
      if solver_sat <> expected then false
      else if solver_sat then
        (* The produced model must actually satisfy every clause. *)
        List.for_all
          (fun c ->
            List.exists
              (fun (v, negd) ->
                let b = Sat.Solver.value s vars.(v) in
                if negd then not b else b)
              c)
          clauses
      else true)

let prop_assumptions_consistent =
  QCheck.Test.make ~count:200 ~name:"unsat core is itself unsat"
    (QCheck.make gen_cnf)
    (fun (nv, clauses) ->
      let s = Sat.Solver.create () in
      let vars = Array.init nv (fun _ -> Sat.Solver.new_var s) in
      let ok =
        List.for_all
          (fun c ->
            Sat.Solver.add_clause s
              (List.map (fun (v, negd) -> Sat.Lit.make ~var:vars.(v) ~negated:negd) c))
          clauses
      in
      if not ok then true
      else begin
        (* Assume all variables positive; if unsat, the core must be unsat. *)
        let assumptions = Array.to_list (Array.map Sat.Lit.of_var vars) in
        match Sat.Solver.solve ~assumptions s with
        | Sat -> true
        | Unknown -> false (* no budget installed: Unknown is a bug *)
        | Unsat ->
          let core = Sat.Solver.unsat_core s in
          List.for_all (fun l -> List.mem l assumptions) core
          && Sat.Solver.solve ~assumptions:core s = Unsat
      end)


(* --- DPLL baseline (differential) ----------------------------------------- *)

let prop_dpll_agrees_with_cdcl =
  QCheck.Test.make ~count:300 ~name:"DPLL agrees with CDCL"
    (QCheck.make gen_cnf)
    (fun (nv, clauses) ->
      let s = Sat.Solver.create () in
      let vars = Array.init nv (fun _ -> Sat.Solver.new_var s) in
      let lits =
        List.map
          (List.map (fun (v, negd) -> Sat.Lit.make ~var:vars.(v) ~negated:negd))
          clauses
      in
      let cdcl_ok = List.for_all (fun c -> Sat.Solver.add_clause s c) lits in
      let cdcl_sat = cdcl_ok && Sat.Solver.solve s = Sat in
      let problem = Sat.Dpll.of_lits ~num_vars:nv lits in
      let dpll_sat = match Sat.Dpll.solve problem with Sat.Dpll.Sat _ -> true | Sat.Dpll.Unsat -> false in
      cdcl_sat = dpll_sat)

(* --- property: DIMACS print -> parse roundtrip ----------------------------- *)

let cnf_of_gen (nv, clauses) =
  { Sat.Dimacs.num_vars = nv;
    clauses =
      List.map (List.map (fun (v, negd) -> Sat.Lit.make ~var:v ~negated:negd)) clauses
  }

let prop_dimacs_roundtrip =
  QCheck.Test.make ~count:300 ~name:"DIMACS print/parse roundtrip"
    (QCheck.make gen_cnf)
    (fun g ->
      let cnf = cnf_of_gen g in
      let cnf' = Sat.Dimacs.parse (Fmt.str "%a" Sat.Dimacs.print cnf) in
      cnf'.Sat.Dimacs.num_vars = cnf.Sat.Dimacs.num_vars
      && cnf'.Sat.Dimacs.clauses = cnf.Sat.Dimacs.clauses)

(* --- property: every verdict certifies ------------------------------------- *)

let prop_verdicts_certify =
  QCheck.Test.make ~count:300 ~name:"every verdict certifies"
    (QCheck.make gen_cnf)
    (fun g ->
      let solver, ok = Sat.Dimacs.load ~proof:true (cnf_of_gen g) in
      let proof =
        match Sat.Solver.proof solver with Some p -> p | None -> assert false
      in
      let result = if ok then Sat.Solver.solve solver else Sat.Solver.Unsat in
      match result with
      | Sat.Solver.Sat ->
        Sat.Checker.check_sat_model proof (fun l -> Sat.Solver.lit_value solver l)
        |> Result.is_ok
      | Sat.Solver.Unsat -> Result.is_ok (Sat.Checker.check_proof proof)
      | Sat.Solver.Unknown -> false (* no budget installed: Unknown is a bug *))

(* --- property: the hinted checker against the RUP oracle ----------------------- *)

(* Rounds of clauses to add, each followed by a solve under assumptions.
   Half the cases mix clause sizes, units included; the other half are
   random 3-SAT, which makes the solver learn the long clauses that
   minimisation and the drop-lit mutation act on. *)
let gen_rounds =
  let open QCheck.Gen in
  int_range 1 50 >>= fun nv ->
  oneofl [ int_range 1 4; return 3 ] >>= fun size ->
  let lit = map2 (fun v negated -> Sat.Lit.make ~var:v ~negated) (int_range 0 (nv - 1)) bool in
  let round = pair (list_size (int_range 0 (3 * nv)) (list_size size lit)) (list_size (int_range 0 3) lit) in
  pair (return nv) (list_size (int_range 1 4) round)

let print_rounds (nv, rounds) =
  let lits ls = String.concat " " (List.map (fun l -> string_of_int (Sat.Lit.to_dimacs l)) ls) in
  Printf.sprintf "%d vars: %s" nv
    (String.concat " | "
       (List.map
          (fun (clauses, assumptions) ->
            String.concat ", " (List.map lits clauses) ^ " ? " ^ lits assumptions)
          rounds))

(* Solve every round on one proof-logging solver and certify each answer
   with both checkers, each fed the one growing trace.  Returns, per round,
   whether the hinted checker and the oracle have accepted every step and
   answer so far. *)
let certify_rounds ?mutation (nv, rounds) =
  let s = Sat.Solver.create () in
  Sat.Solver.enable_proof s;
  for _ = 1 to nv do
    ignore (Sat.Solver.new_var s : int)
  done;
  Option.iter (Sat.Solver.inject_unsoundness s) mutation;
  let proof = proof_of s in
  let ck = Sat.Checker.create proof and oracle = Rup_oracle.create () in
  let replayed = ref 0 and hinted = ref true and rup = ref true in
  let pass ok r = ok := !ok && Result.is_ok r in
  let round (clauses, assumptions) =
    List.iter (fun c -> ignore (Sat.Solver.add_clause s c : bool)) clauses;
    let answer = Sat.Solver.solve ~assumptions s in
    if Sat.Checker.replay ck <> [] then hinted := false;
    while !replayed < Sat.Proof.length proof do
      pass rup (Rup_oracle.replay oracle (Sat.Proof.step proof !replayed));
      incr replayed
    done;
    (match answer with
     | Sat.Solver.Sat ->
       let model = Sat.Solver.lit_value s in
       pass hinted (Sat.Checker.check_model ck model);
       pass rup (Rup_oracle.check_model oracle model)
     | Sat.Solver.Unsat ->
       let chain = Sat.Solver.unsat_chain s in
       List.iter
         (fun lits ->
           pass hinted (Sat.Checker.check_conflict ck lits chain);
           pass rup (Rup_oracle.check_conflict oracle lits))
         [ assumptions; Sat.Solver.unsat_core s ]
     | Sat.Solver.Unknown -> hinted := false);
    (!hinted, !rup)
  in
  List.rev (List.fold_left (fun acc r -> round r :: acc) [] rounds)

let prop_checkers_accept_honest_verdicts =
  QCheck.Test.make ~count:400 ~name:"hinted checker and RUP oracle accept honest verdicts"
    (QCheck.make ~print:print_rounds gen_rounds)
    (fun g -> List.for_all (fun (hinted, rup) -> hinted && rup) (certify_rounds g))

let prop_hinted_rejects_what_oracle_rejects =
  let mutation =
    QCheck.Gen.(
      pair (int_range 1 4) (oneofl [ "drop-lit"; "mute-proof"; "flip-model" ])
      |> map (fun (n, kind) -> Sat.Solver.unsound_of_string (Printf.sprintf "%s:%d" kind n)))
  in
  QCheck.Test.make ~count:600 ~name:"hinted checker rejects whatever the RUP oracle rejects"
    (QCheck.make
       ~print:(fun (_, g) -> print_rounds g)
       QCheck.Gen.(pair mutation gen_rounds))
    (fun (mutation, g) ->
      List.for_all (fun (hinted, rup) -> rup || not hinted) (certify_rounds ~mutation g))

(* --- property: the heap against the closure heap -------------------------------- *)

type heap_op = Insert of int | Bump of int * float | Remove

(* Scores drawn from a few values, so ties are the rule. *)
let gen_heap_ops =
  let open QCheck.Gen in
  let var = int_range 0 15 in
  list_size (int_range 0 120)
    (frequency
       [ (4, map (fun v -> Insert v) var);
         (3, map2 (fun v d -> Bump (v, d)) var (oneofl [ 0.; 1.; 2.; 0.5 ]));
         (3, return Remove) ])

let prop_heap_matches_oracle =
  QCheck.Test.make ~count:1000 ~name:"heap removes in the closure heap's order"
    (QCheck.make gen_heap_ops)
    (fun ops ->
      let scores = Array.make 16 0. in
      let h = Sat.Heap.create scores and o = Heap_oracle.create (fun v -> scores.(v)) in
      let same = ref true in
      let remove () =
        if Sat.Heap.is_empty h <> Heap_oracle.is_empty o then same := false
        else if not (Sat.Heap.is_empty h) then
          if Sat.Heap.remove_max h <> Heap_oracle.remove_max o then same := false
      in
      List.iter
        (function
          | Insert v ->
            Sat.Heap.insert h v;
            Heap_oracle.insert o v
          | Bump (v, d) ->
            scores.(v) <- scores.(v) +. d;
            Sat.Heap.decrease h v;
            Heap_oracle.decrease o v
          | Remove -> remove ())
        ops;
      while !same && not (Sat.Heap.is_empty h && Heap_oracle.is_empty o) do
        remove ()
      done;
      !same)

let test_dpll_of_formula () =
  (* Tseitin into DPLL: (x0 <-> x1) & !(x1 <-> x2) & x0 forces x1, !x2. *)
  let open Sat.Formula in
  let f = conj [ iff (atom 0) (atom 1); neg (iff (atom 1) (atom 2)); atom 0 ] in
  let problem = Sat.Dpll.of_formula ~num_vars:3 f in
  (match Sat.Dpll.solve problem with
   | Sat.Dpll.Sat model ->
     check_sat "x0" true model.(0);
     check_sat "x1" true model.(1);
     check_sat "x2 false" false model.(2)
   | Sat.Dpll.Unsat -> Alcotest.fail "expected sat");
  let contradiction = Sat.Dpll.of_formula ~num_vars:1 (conj [ atom 0; neg (atom 0) ]) in
  check_sat "contradiction unsat" true (Sat.Dpll.solve contradiction = Sat.Dpll.Unsat)

let test_dpll_count_models () =
  (* x0 | x1 over 2 vars has 3 models. *)
  let problem = { Sat.Dpll.num_vars = 2; clauses = [ [ 1; 2 ] ] } in
  Alcotest.(check int) "3 models" 3 (Sat.Dpll.count_models problem ~over:[ 0; 1 ])


(* --- container substrate ------------------------------------------------------ *)

let test_vec_operations () =
  let v = Sat.Vec.create 0 in
  for i = 1 to 10 do
    Sat.Vec.push v i
  done;
  Alcotest.(check int) "size" 10 (Sat.Vec.size v);
  Alcotest.(check int) "last" 10 (Sat.Vec.last v);
  Alcotest.(check int) "pop" 10 (Sat.Vec.pop v);
  Sat.Vec.swap_remove v 0;
  (* 1 replaced by the last element (9). *)
  Alcotest.(check int) "swap_remove" 9 (Sat.Vec.get v 0);
  Sat.Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  check_sat "only evens" true (Sat.Vec.for_all (fun x -> x mod 2 = 0) v);
  Sat.Vec.sort compare v;
  let sorted = Sat.Vec.to_list v in
  check_sat "sorted" true (List.sort compare sorted = sorted);
  Sat.Vec.shrink_to v 1;
  Alcotest.(check int) "shrunk" 1 (Sat.Vec.size v);
  Sat.Vec.clear v;
  check_sat "cleared" true (Sat.Vec.is_empty v);
  (try
     ignore (Sat.Vec.get v 0 : int);
     Alcotest.fail "expected bounds error"
   with Invalid_argument _ -> ())

let test_heap_ordering () =
  let scores = Array.make 16 0.0 in
  let h = Sat.Heap.create scores in
  List.iter
    (fun (v, s) ->
      scores.(v) <- s;
      Sat.Heap.insert h v)
    [ (0, 1.0); (1, 5.0); (2, 3.0); (3, 4.0) ];
  Alcotest.(check int) "max first" 1 (Sat.Heap.remove_max h);
  (* Bump 0's activity and re-order. *)
  scores.(0) <- 10.0;
  Sat.Heap.decrease h 0;
  Alcotest.(check int) "bumped to top" 0 (Sat.Heap.remove_max h);
  Alcotest.(check int) "then 3" 3 (Sat.Heap.remove_max h);
  Alcotest.(check int) "then 2" 2 (Sat.Heap.remove_max h);
  check_sat "empty" true (Sat.Heap.is_empty h);
  (* Duplicate insert is a no-op. *)
  Sat.Heap.insert h 5;
  Sat.Heap.insert h 5;
  Alcotest.(check int) "no duplicate" 1 (Sat.Heap.size h)

let () =
  Alcotest.run "sat"
    [
      ( "solver",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "unit clause" `Quick test_unit_clause;
          Alcotest.test_case "contradiction" `Quick test_contradiction;
          Alcotest.test_case "add_clause simplifies" `Quick test_add_clause_simplifies;
          Alcotest.test_case "unallocated variables rejected" `Quick
            test_unallocated_variables_rejected;
          Alcotest.test_case "propagation chain" `Quick test_propagation_chain;
          Alcotest.test_case "triangle coloring" `Quick test_three_coloring_triangle;
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "unknown on hard instance" `Quick
            test_budget_unknown_on_hard_instance;
          Alcotest.test_case "stale model/core scrubbed" `Quick
            test_budget_scrubs_stale_model_and_core;
          Alcotest.test_case "time limit" `Quick test_budget_time_limit;
        ] );
      ( "assumptions",
        [
          Alcotest.test_case "sat/unsat under assumptions" `Quick test_assumptions_sat_unsat;
          Alcotest.test_case "unsat core" `Quick test_unsat_core;
        ] );
      ( "formula",
        [
          Alcotest.test_case "assert" `Quick test_formula_assert;
          Alcotest.test_case "exactly_one" `Quick test_formula_exactly_one;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "errors" `Quick test_dimacs_errors;
        ] );
      ( "diversification",
        [
          Alcotest.test_case "sound under all modes" `Quick test_diversification_sound;
          Alcotest.test_case "deterministic per seed" `Quick
            test_diversification_deterministic;
          Alcotest.test_case "polarity modes steer search" `Quick
            test_polarity_modes_differ;
          Alcotest.test_case "bad var_decay rejected" `Quick test_bad_var_decay_rejected;
          Alcotest.test_case "forced Unknown scrubs model/core" `Quick
            test_force_unknown_scrubs;
        ] );
      ( "containers",
        [
          Alcotest.test_case "vec" `Quick test_vec_operations;
          Alcotest.test_case "heap" `Quick test_heap_ordering;
        ] );
      ( "dpll",
        [
          Alcotest.test_case "of_formula" `Quick test_dpll_of_formula;
          Alcotest.test_case "count_models" `Quick test_dpll_count_models;
        ] );
      ( "certification",
        [
          Alcotest.test_case "unsat proof" `Quick test_certify_unsat_proof;
          Alcotest.test_case "sat model" `Quick test_certify_sat_model;
          Alcotest.test_case "empty problem" `Quick test_certify_empty_problem;
          Alcotest.test_case "trivially unsat at load" `Quick
            test_certify_trivially_unsat_at_load;
          Alcotest.test_case "late enable rejected" `Quick
            test_certify_enable_proof_late_rejected;
          Alcotest.test_case "catches dropped literal" `Quick
            test_certify_catches_dropped_literal;
          Alcotest.test_case "catches muted proof step" `Quick
            test_certify_catches_muted_proof_step;
          Alcotest.test_case "catches flipped model bit" `Quick
            test_certify_catches_flipped_model_bit;
          Alcotest.test_case "trace with deletions" `Quick test_certify_deletions;
        ] );
      ( "storage",
        [
          Alcotest.test_case "search pinned" `Quick test_search_pinned;
          Alcotest.test_case "incremental search pinned" `Quick test_incremental_pinned;
          Alcotest.test_case "clauses are flat blocks" `Quick test_clause_storage_flat;
          Alcotest.test_case "a reused solver is fresh" `Quick test_reused_solver_fresh;
          Alcotest.test_case "a released solver raises" `Quick test_released_solver_raises;
          Alcotest.test_case "Phase_true covers the fresh capacity" `Quick
            test_phase_true_then_grow;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_agrees_with_brute_force;
          QCheck_alcotest.to_alcotest prop_assumptions_consistent;
          QCheck_alcotest.to_alcotest prop_dpll_agrees_with_cdcl;
          QCheck_alcotest.to_alcotest prop_dimacs_roundtrip;
          QCheck_alcotest.to_alcotest prop_verdicts_certify;
          QCheck_alcotest.to_alcotest prop_checkers_accept_honest_verdicts;
          QCheck_alcotest.to_alcotest prop_hinted_rejects_what_oracle_rejects;
          QCheck_alcotest.to_alcotest prop_heap_matches_oracle;
        ] );
    ]
