(* Certificate trace for solver verdicts, in the spirit of DRUP
   (Heule et al., "Trimming while Checking Clausal Proofs") with LRAT-style
   hints beside it.

   The solver appends three kinds of steps:

     - [Input c]   — a clause handed to [Solver.add_clause], recorded
                     verbatim *before* any simplification, so unit clauses
                     (which the solver enqueues rather than stores) and
                     tautologies are still part of the certified formula;
     - [Add c]     — a learnt clause, which must be RUP (reverse unit
                     propagation) with respect to all earlier live clauses;
                     an Unsat verdict at decision level 0 finalizes the
                     trace with [Add [||]];
     - [Delete c]  — a learnt clause retired by database reduction, from
                     which point the checker must stop using it.

   A clause's id is the index of its [Input] or [Add] step.  Beside the
   steps the solver logs hints in those ids: each [Add]'s antecedents, the
   id each [Delete] retires, and the reason of every level-0 assignment
   ([units]).  Hints never change the steps, so [length] and [pp_drup]
   read the same with or without them.

   Literal arrays are copied at logging time: the solver reorders clause
   literals in place while maintaining watches, and the trace must pin the
   clause as it was derived. *)

type step =
  | Input of Lit.t array
  | Add of Lit.t array
  | Delete of Lit.t array

type hints = {
  after_units : int;
  ids : int array;
}

type t = {
  steps : step Vec.t;
  units : int Vec.t; (* reason ids of level-0 assignments, in order *)
  hints : hints Vec.t; (* one per [Add] or [Delete] step, in order *)
}

let no_hints = { after_units = 0; ids = [||] }

let create () =
  { steps = Vec.create ~capacity:64 (Input [||]); units = Vec.create 0;
    hints = Vec.create no_hints }

let push t step =
  Vec.push t.steps step;
  Vec.size t.steps - 1

let log_input t lits = push t (Input (Array.copy lits))

let log_add t lits ~hints =
  Vec.push t.hints { after_units = Vec.size t.units; ids = Array.of_list hints };
  push t (Add (Array.copy lits))

let log_delete t lits ~id =
  Vec.push t.hints { after_units = Vec.size t.units; ids = [| id |] };
  ignore (push t (Delete (Array.copy lits)) : int)

let log_unit t id = Vec.push t.units id
let length t = Vec.size t.steps
let step t i = Vec.get t.steps i
let iter f t = Vec.iter f t.steps
let n_units t = Vec.size t.units
let unit_reason t k = Vec.get t.units k
let hints t j = Vec.get t.hints j

let n_inputs t =
  Vec.fold (fun n -> function Input _ -> n + 1 | Add _ | Delete _ -> n) 0 t.steps

(* DRUP-compatible text: inputs as comments (a DRUP file proper contains
   only additions and deletions; the formula lives in the CNF file). *)
let pp_drup ppf t =
  let lits ls = Array.iter (fun l -> Fmt.pf ppf "%d " (Lit.to_dimacs l)) ls in
  iter
    (function
      | Input c ->
        Fmt.pf ppf "c i ";
        lits c;
        Fmt.pf ppf "0@."
      | Add c ->
        lits c;
        Fmt.pf ppf "0@."
      | Delete c ->
        Fmt.pf ppf "d ";
        lits c;
        Fmt.pf ppf "0@.")
    t
