(* RUP certificate checker: the differential oracle of Sat.Checker.

   It reads only the DRUP steps of a trace, never the hints, and searches
   by unit propagation where Sat.Checker follows the solver's hints.  A
   hinted accept is a particular unit-propagation run, so it implies an
   accept here; the property tests in test_sat.ml check that direction.

   Deliberately naive: plain arrays, occurrence lists and counter-based
   unit propagation with a trail for undo.  It shares the literal encoding
   with the solver (Lit) but none of its search machinery — no watched
   literals, no activity heap, no clause database heuristics.

   The checker maintains the clause set at "level 0": every time a clause
   is added, units are propagated persistently; [conflicted] latches once
   the clause set is refutable by unit propagation alone.  Each [Add] step
   is verified to be RUP — assuming the negation of the clause and
   propagating must yield a conflict — before it is admitted to the
   database.  A step that fails verification is reported and *not*
   admitted, so a corrupted trace can never help later steps pass. *)

type clause = {
  lits : Sat.Lit.t array;
  learnt : bool;
  mutable dead : bool;
}

type t = {
  mutable clauses : clause array;
  mutable n_clauses : int;
  mutable occ : int list array; (* literal -> ids of clauses containing it *)
  mutable assigns : int array; (* var -> 1 true, -1 false, 0 unassigned *)
  mutable trail : Sat.Lit.t array;
  mutable trail_len : int;
  mutable qhead : int;
  mutable conflicted : bool;
  index : (Sat.Lit.t list, int list ref) Hashtbl.t; (* live learnt clauses *)
}

let dummy_clause = { lits = [||]; learnt = false; dead = true }

let create () =
  {
    clauses = Array.make 64 dummy_clause;
    n_clauses = 0;
    occ = Array.make 128 [];
    assigns = Array.make 64 0;
    trail = Array.make 64 0;
    trail_len = 0;
    qhead = 0;
    conflicted = false;
    index = Hashtbl.create 64;
  }

(* --- growable state -------------------------------------------------------- *)

let ensure_var t v =
  let cap = Array.length t.assigns in
  if v >= cap then begin
    let cap' = max (2 * cap) (v + 1) in
    let assigns = Array.make cap' 0 in
    Array.blit t.assigns 0 assigns 0 cap;
    t.assigns <- assigns;
    let occ = Array.make (2 * cap') [] in
    Array.blit t.occ 0 occ 0 (Array.length t.occ);
    t.occ <- occ
  end

let value t l =
  let s = t.assigns.(Sat.Lit.var l) in
  if Sat.Lit.is_neg l then -s else s

let assign t l =
  t.assigns.(Sat.Lit.var l) <- (if Sat.Lit.is_neg l then -1 else 1);
  if t.trail_len = Array.length t.trail then begin
    let bigger = Array.make (2 * t.trail_len) 0 in
    Array.blit t.trail 0 bigger 0 t.trail_len;
    t.trail <- bigger
  end;
  t.trail.(t.trail_len) <- l;
  t.trail_len <- t.trail_len + 1

(* Unwind the trail (and propagation queue) to a saved point. *)
let undo_to t saved =
  for i = t.trail_len - 1 downto saved do
    t.assigns.(Sat.Lit.var t.trail.(i)) <- 0
  done;
  t.trail_len <- saved;
  t.qhead <- saved

(* Propagate to fixpoint; true iff a conflict was found.  On conflict the
   queue is left mid-way — callers either undo or latch [conflicted]. *)
let propagate t =
  let conflict = ref false in
  while (not !conflict) && t.qhead < t.trail_len do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    let watch = t.occ.(Sat.Lit.neg p) in
    List.iter
      (fun cid ->
        if not !conflict then begin
          let c = t.clauses.(cid) in
          if not c.dead then begin
            let sat = ref false in
            let unassigned = ref [] in
            Array.iter
              (fun l ->
                match value t l with
                | 1 -> sat := true
                | 0 -> unassigned := l :: !unassigned
                | _ -> ())
              c.lits;
            if not !sat then
              match !unassigned with
              | [] -> conflict := true
              | [ l ] -> assign t l
              | _ -> ()
          end
        end)
      watch
  done;
  !conflict

let canon lits = List.sort_uniq Sat.Lit.compare (Array.to_list lits)

let add_clause_db t ~learnt lits =
  let lits = Array.of_list (canon lits) in
  Array.iter (fun l -> ensure_var t (Sat.Lit.var l)) lits;
  if t.n_clauses = Array.length t.clauses then begin
    let bigger = Array.make (2 * t.n_clauses) dummy_clause in
    Array.blit t.clauses 0 bigger 0 t.n_clauses;
    t.clauses <- bigger
  end;
  let id = t.n_clauses in
  t.clauses.(id) <- { lits; learnt; dead = false };
  t.n_clauses <- id + 1;
  Array.iter (fun l -> t.occ.(l) <- id :: t.occ.(l)) lits;
  if learnt then begin
    let key = Array.to_list lits in
    match Hashtbl.find_opt t.index key with
    | Some bucket -> bucket := id :: !bucket
    | None -> Hashtbl.add t.index key (ref [ id ])
  end;
  (* keep the level-0 closure current *)
  if not t.conflicted then begin
    let sat = ref false in
    let unassigned = ref [] in
    Array.iter
      (fun l ->
        match value t l with
        | 1 -> sat := true
        | 0 -> unassigned := l :: !unassigned
        | _ -> ())
      lits;
    if not !sat then
      match !unassigned with
      | [] -> t.conflicted <- true
      | [ l ] ->
        assign t l;
        if propagate t then t.conflicted <- true
      | _ -> ()
  end

let pp_lits ppf lits =
  Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any " ") int) (Array.map Sat.Lit.to_dimacs lits)

(* RUP test: assume the negation of every literal of [lits] and propagate;
   the clause is implied iff this conflicts.  State is fully restored. *)
let is_rup t lits =
  Array.iter (fun l -> ensure_var t (Sat.Lit.var l)) lits;
  t.conflicted
  ||
  let saved = t.trail_len in
  let trivially = ref false in
  Array.iter
    (fun l ->
      match value t l with
      | 1 -> trivially := true (* satisfied at level 0: implied outright *)
      | 0 -> if not !trivially then assign t (Sat.Lit.neg l)
      | _ -> ())
    lits;
  let conflict = !trivially || propagate t in
  undo_to t saved;
  conflict

let replay t step =
  match step with
  | Sat.Proof.Input lits ->
    add_clause_db t ~learnt:false lits;
    Ok ()
  | Sat.Proof.Add [||] ->
    if t.conflicted then Ok ()
    else Error "empty clause is not derivable by unit propagation"
  | Sat.Proof.Add lits ->
    if is_rup t lits then begin
      add_clause_db t ~learnt:true lits;
      Ok ()
    end
    else Error (Fmt.str "learnt clause %a is not RUP" pp_lits lits)
  | Sat.Proof.Delete lits -> (
    let key = canon lits in
    match Hashtbl.find_opt t.index key with
    | Some bucket -> (
      match !bucket with
      | id :: rest ->
        t.clauses.(id).dead <- true;
        bucket := rest;
        Ok ()
      | [] -> Error (Fmt.str "deletion of already-deleted clause %a" pp_lits lits))
    | None -> Error (Fmt.str "deletion of unknown clause %a" pp_lits lits))

(* Unsat verdict check: under the given assumptions, unit propagation over
   the replayed database must conflict.  State is fully restored. *)
let check_conflict t assumptions =
  List.iter (fun a -> ensure_var t (Sat.Lit.var a)) assumptions;
  if t.conflicted then Ok ()
  else begin
    let saved = t.trail_len in
    let conflict = ref false in
    List.iter
      (fun a ->
        if not !conflict then
          match value t a with
          | -1 -> conflict := true (* contradicts an established unit *)
          | 0 -> assign t a
          | _ -> ())
      assumptions;
    let conflict = !conflict || propagate t in
    undo_to t saved;
    if conflict then Ok ()
    else
      Error
        (Fmt.str "assumptions %a do not propagate to a conflict" pp_lits
           (Array.of_list assumptions))
  end

(* Sat verdict check: the valuation must satisfy every input clause. *)
let check_model t valuation =
  let bad = ref None in
  for i = 0 to t.n_clauses - 1 do
    let c = t.clauses.(i) in
    if (not c.learnt) && !bad = None && not (Array.exists valuation c.lits) then
      bad := Some c.lits
  done;
  match !bad with
  | None -> Ok ()
  | Some lits -> Error (Fmt.str "model falsifies input clause %a" pp_lits lits)

(* --- one-shot entry points -------------------------------------------------- *)

let replay_all t proof =
  let err = ref None in
  Sat.Proof.iter
    (fun step ->
      match replay t step with
      | Ok () -> ()
      | Error e -> if !err = None then err := Some e)
    proof;
  match !err with None -> Ok () | Some e -> Error e

let check_proof ?(assumptions = []) proof =
  let t = create () in
  match replay_all t proof with
  | Error e -> Error e
  | Ok () -> (
    match check_conflict t assumptions with
    | Ok () -> Ok (Sat.Proof.length proof)
    | Error e -> Error e)

let check_sat_model proof valuation =
  let t = create () in
  match replay_all t proof with
  | Error e -> Error e
  | Ok () -> (
    match check_model t valuation with
    | Ok () -> Ok (Sat.Proof.length proof)
    | Error e -> Error e)
