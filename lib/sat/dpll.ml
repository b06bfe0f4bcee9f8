(* A deliberately plain DPLL solver: unit propagation by full clause scans,
   no watched literals, no clause learning, no activity heuristic.  It exists
   as the ablation baseline for the CDCL solver (bench: sat_ablation) and as
   a differential-testing oracle in the test suite. *)

type result = Sat of bool array | Unsat

(* Clauses are lists of literals in DIMACS-like form: var v is represented
   by v+1, its negation by -(v+1). *)
type problem = {
  num_vars : int;
  clauses : int list list;
}

let of_lits ~num_vars clauses =
  { num_vars; clauses = List.map (List.map Lit.to_dimacs) clauses }

(* Value of a literal under a partial assignment (0 = unassigned). *)
let lit_value assign l =
  let v = assign.(abs l - 1) in
  if v = 0 then 0 else if (l > 0) = (v > 0) then 1 else -1

let solve { num_vars; clauses } =
  let assign = Array.make num_vars 0 in
  (* Unit propagation: scan all clauses to a fixpoint.  Returns false on an
     empty clause. *)
  let rec propagate () =
    let changed = ref false in
    let ok =
      List.for_all
        (fun clause ->
          let unassigned = ref [] in
          let satisfied = ref false in
          List.iter
            (fun l ->
              match lit_value assign l with
              | 1 -> satisfied := true
              | 0 -> unassigned := l :: !unassigned
              | _ -> ())
            clause;
          if !satisfied then true
          else
            match !unassigned with
            | [] -> false
            | [ l ] ->
              assign.(abs l - 1) <- (if l > 0 then 1 else -1);
              changed := true;
              true
            | _ -> true)
        clauses
    in
    if not ok then false else if !changed then propagate () else true
  in
  let rec search trail_len =
    ignore trail_len;
    let snapshot = Array.copy assign in
    if not (propagate ()) then begin
      Array.blit snapshot 0 assign 0 num_vars;
      false
    end
    else begin
      (* Pick the first unassigned variable. *)
      let rec pick v = if v >= num_vars then None else if assign.(v) = 0 then Some v else pick (v + 1) in
      match pick 0 with
      | None -> true
      | Some v ->
        let try_value value =
          let snap = Array.copy assign in
          assign.(v) <- value;
          if search 0 then true
          else begin
            Array.blit snap 0 assign 0 num_vars;
            false
          end
        in
        if try_value 1 then true
        else if try_value (-1) then true
        else begin
          Array.blit snapshot 0 assign 0 num_vars;
          false
        end
    end
  in
  if search 0 then Sat (Array.map (fun v -> v > 0) assign) else Unsat

(* Tseitin conversion of a propositional formula into a [problem], with
   fresh definition variables appended after [num_vars].  Mirrors
   [Formula.assert_in] so the ablation benchmark feeds both solvers the same
   encoding. *)
let of_formula ~num_vars formula =
  let next = ref num_vars in
  let clauses = ref [] in
  let fresh () =
    incr next;
    !next (* 1-based DIMACS var *)
  in
  let add c = clauses := c :: !clauses in
  let rec define (f : Formula.t) : int =
    match f with
    | Formula.True ->
      let p = fresh () in
      add [ p ];
      p
    | Formula.False ->
      let p = fresh () in
      add [ -p ];
      p
    | Formula.Atom v -> v + 1
    | Formula.Not f -> -define f
    | Formula.And fs ->
      let ps = List.map define fs in
      let q = fresh () in
      List.iter (fun p -> add [ -q; p ]) ps;
      add (q :: List.map (fun p -> -p) ps);
      q
    | Formula.Or fs ->
      let ps = List.map define fs in
      let q = fresh () in
      List.iter (fun p -> add [ q; -p ]) ps;
      add (-q :: ps);
      q
    | Formula.Implies (a, b) -> define (Formula.Or [ Formula.Not a; b ])
    | Formula.Iff (a, b) ->
      let pa = define a and pb = define b in
      let q = fresh () in
      add [ -q; -pa; pb ];
      add [ -q; pa; -pb ];
      add [ q; pa; pb ];
      add [ q; -pa; -pb ];
      q
  in
  let root = define formula in
  add [ root ];
  { num_vars = !next; clauses = !clauses }

(* Count models over the given variables by exhaustive branching (used to
   cross-check product counting). *)
let count_models problem ~over =
  let rec go assumptions = function
    | [] ->
      let p = { problem with clauses = assumptions @ problem.clauses } in
      (match solve p with Sat _ -> 1 | Unsat -> 0)
    | v :: rest ->
      go ([ v + 1 ] :: assumptions) rest + go ([ -(v + 1) ] :: assumptions) rest
  in
  go [] over
