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

   Storage is flat and append-only.  The literals of every step sit back
   to back in one int arena, copied at logging time: the solver reorders
   clause literals in place while maintaining watches, and the trace must
   pin the clause as it was derived.  A step is one int, its start in the
   arena and its kind; it ends where the next step starts.  The hint ids
   of every [Add] and [Delete] share a second arena the same way. *)

type step =
  | Input of Lit.t array
  | Add of Lit.t array
  | Delete of Lit.t array

type hints = {
  after_units : int;
  ids : int array;
}

(* A growable int array: each arena and per-step table is one.  The
   checker reads them for every literal it visits, so they are
   monomorphic, unlike [Vec]. *)
type ints = {
  mutable data : int array;
  mutable size : int;
}

let ints capacity = { data = Array.make capacity 0; size = 0 }

let push_int v x =
  if v.size = Array.length v.data then begin
    let data = Array.make (2 * v.size) 0 in
    Array.blit v.data 0 data 0 v.size;
    v.data <- data
  end;
  Array.unsafe_set v.data v.size x;
  v.size <- v.size + 1

let[@inline] get v i =
  if i < 0 || i >= v.size then invalid_arg "Proof: index out of range";
  Array.unsafe_get v.data i

type t = {
  lits : ints; (* the literals of every step, in step order *)
  steps : ints; (* per step: its start in [lits] lsl 2 lor its kind *)
  units : ints; (* reason ids of level-0 assignments, in order *)
  edits : ints; (* per [Add] or [Delete]: units logged before it *)
  edit_ids : ints; (* per [Add] or [Delete]: its start in [ids] *)
  ids : ints; (* the hint ids of every [Add] and [Delete], in order *)
}

let input = 0
let add = 1
let delete = 2

let create () =
  { lits = ints 256; steps = ints 64; units = ints 16; edits = ints 16;
    edit_ids = ints 16; ids = ints 16 }

let push t kind a ~pos ~len =
  push_int t.steps ((t.lits.size lsl 2) lor kind);
  for k = pos to pos + len - 1 do
    push_int t.lits a.(k)
  done;
  t.steps.size - 1

let push_hints t hints =
  push_int t.edits t.units.size;
  push_int t.edit_ids t.ids.size;
  List.iter (push_int t.ids) hints

let log_input t a ~pos ~len = push t input a ~pos ~len

let log_add t a ~pos ~len ~hints =
  push_hints t hints;
  push t add a ~pos ~len

let log_delete t a ~pos ~len ~id =
  push_hints t [ id ];
  ignore (push t delete a ~pos ~len : int)

let log_unit t id = push_int t.units id
let length t = t.steps.size
let n_units t = t.units.size
let unit_reason t k = get t.units k

(* --- in-place reads ------------------------------------------------------- *)

let kind t i = match get t.steps i land 3 with 0 -> `Input | 1 -> `Add | _ -> `Delete

(* Where entry [i] of [starts] ends in an arena of [total] entries: where
   the next entry starts, or at the arena's end. *)
let[@inline] stop_of starts total i shift =
  if i + 1 < starts.size then get starts (i + 1) lsr shift else total

let[@inline] first t i = get t.steps i lsr 2
let[@inline] stop t i = stop_of t.steps t.lits.size i 2
let[@inline] lit t k = get t.lits k
let after_units t j = get t.edits j
let n_hints t j = stop_of t.edit_ids t.ids.size j 0 - get t.edit_ids j
let[@inline] hint t j k = get t.ids (get t.edit_ids j + k)

(* --- allocating accessors ------------------------------------------------- *)

let step t i =
  let first = first t i in
  let c = Array.init (stop t i - first) (fun k -> lit t (first + k)) in
  match kind t i with `Input -> Input c | `Add -> Add c | `Delete -> Delete c

let iter f t =
  for i = 0 to length t - 1 do
    f (step t i)
  done

let hints t j = { after_units = after_units t j; ids = Array.init (n_hints t j) (hint t j) }

let n_inputs t =
  let n = ref 0 in
  for i = 0 to length t - 1 do
    if kind t i = `Input then incr n
  done;
  !n

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
