(* Independent certificate checker: hinted (LRAT-style) replay.

   The checker reads clause literals straight from the [Proof] trace and
   keeps two pieces of state of its own: the value of every literal and
   whether each step is a live clause.  It shares the literal encoding with
   the solver (Lit) but none of its machinery — no watches, no occurrence
   lists, no search — so a bug in the CDCL engine and a bug here would have
   to coincide to let a wrong verdict through.

   Every deduction is one rule, [resolve]: a live clause whose literals
   are all false but one forces that one; a clause whose literals are all
   false is a conflict.  The solver names the clauses to resolve:

   - each level-0 unit names the clause that forced it (a false clause
     there refutes the whole set);
   - each [Add c] names its antecedents: assuming the negation of [c] and
     resolving them in order must reach a conflict, or the step is rejected
     and [c] withheld, so a corrupted trace cannot bootstrap later steps;
   - each Unsat answer names the chain from its assumptions to a conflict.

   A cited clause that is neither unit nor false adds nothing, rather than
   failing the step: under the full assumption set of an Unsat answer, an
   assumption outside the core may already satisfy a clause of the chain.
   Every accept is therefore a run of unit propagation over the live
   clauses, so it implies the RUP accept a searching checker would give. *)

type t = {
  proof : Proof.t;
  mutable value : Bytes.t; (* literal -> '\001' while true *)
  mutable live : Bytes.t; (* step -> '\001' while an admitted, undeleted clause *)
  mutable steps : int; (* steps replayed *)
  mutable units : int; (* level-0 units replayed *)
  mutable edits : int; (* [Add] and [Delete] steps replayed *)
  mutable refuted : bool; (* a refutation was verified: every clause follows *)
  mutable assumed : Lit.t list; (* true above level 0, until [undo] *)
}

let create proof =
  { proof; value = Bytes.make 64 '\000'; live = Bytes.make 64 '\000'; steps = 0;
    units = 0; edits = 0; refuted = false; assumed = [] }

(* [b], or a copy zero-extended to hold index [i]. *)
let reach b i =
  if i < Bytes.length b then b
  else begin
    let b' = Bytes.make (max (i + 1) (2 * Bytes.length b)) '\000' in
    Bytes.blit b 0 b' 0 (Bytes.length b);
    b'
  end

let holds t l = l < Bytes.length t.value && Bytes.get t.value l = '\001'

let set t l =
  t.value <- reach t.value l;
  Bytes.set t.value l '\001'

let assume t l =
  set t l;
  t.assumed <- l :: t.assumed

let undo t =
  List.iter (fun l -> Bytes.set t.value l '\000') t.assumed;
  t.assumed <- []

let pp_lits ppf lits =
  Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any " ") int) (Array.map Lit.to_dimacs lits)

(* Step [id], if it is an admitted clause not yet deleted. *)
let clause t id =
  if id < 0 || id >= t.steps || Bytes.get t.live id = '\000' then None
  else Some (Proof.step t.proof id)

(* Under the current values: [-1] if every literal of [c] is false, [l] if
   every literal but [l] is, [-2] otherwise. *)
let status t c =
  let rec go i open_lit =
    if i = Array.length c then open_lit
    else
      let l = c.(i) in
      if holds t l then -2
      else if holds t (Lit.neg l) || l = open_lit then go (i + 1) open_lit
      else if open_lit = -1 then go (i + 1) l
      else -2
  in
  go 0 (-1)

(* Resolve the cited clauses in order, making each forced literal true
   with [assign]; [Ok true] at the first false clause. *)
let resolve t ~assign ids =
  let rec go i =
    if i = Array.length ids then Ok false
    else
      match clause t ids.(i) with
      | Some (Input c | Add c) -> (
        match status t c with
        | -1 -> Ok true
        | -2 -> go (i + 1)
        | l ->
          assign t l;
          go (i + 1))
      | Some (Delete _) | None -> Error (Fmt.str "hint %d is not a live clause" ids.(i))
  in
  go 0

(* Does assuming [lits] and resolving [ids] reach a conflict?  The values
   are restored afterwards. *)
let refutes t lits ids =
  let clash = ref false in
  List.iter
    (fun l -> if holds t (Lit.neg l) then clash := true else if not (holds t l) then assume t l)
    lits;
  let r = if !clash then Ok true else resolve t ~assign:assume ids in
  undo t;
  r

let replay t =
  let errors = ref [] in
  let fail fmt = Fmt.kstr (fun e -> errors := e :: !errors) fmt in
  (* Level-0 units up to the [upto]th: each is permanent. *)
  let units upto =
    while t.units < upto do
      let k = t.units in
      t.units <- k + 1;
      if not t.refuted then
        match resolve t ~assign:set [| Proof.unit_reason t.proof k |] with
        | Ok conflict -> t.refuted <- conflict
        | Error e -> fail "level-0 unit %d: %s" k e
    done
  in
  (* The hints of the next [Add] or [Delete], after the units before it. *)
  let hints () =
    let h = Proof.hints t.proof t.edits in
    t.edits <- t.edits + 1;
    units h.after_units;
    h.ids
  in
  let n = Proof.length t.proof in
  t.live <- reach t.live n;
  while t.steps < n do
    let i = t.steps in
    (match Proof.step t.proof i with
     | Input _ -> Bytes.set t.live i '\001'
     | Add c -> (
       let negation = Array.fold_right (fun l ls -> Lit.neg l :: ls) c [] in
       let ids = hints () in
       match if t.refuted then Ok true else refutes t negation ids with
       | Ok true ->
         Bytes.set t.live i '\001';
         if c = [||] then t.refuted <- true
       | Ok false -> fail "proof step %d: learnt clause %a is not implied by its hints" i pp_lits c
       | Error e -> fail "proof step %d: learnt clause %a: %s" i pp_lits c e)
     | Delete c -> (
       match hints () with
       | [| id |] when (match clause t id with Some (Add _) -> true | _ -> false) ->
         Bytes.set t.live id '\000'
       | _ -> fail "proof step %d: deletion of %a retires no live learnt clause" i pp_lits c));
    t.steps <- i + 1
  done;
  units (Proof.n_units t.proof);
  List.rev !errors

let check_conflict t assumptions chain =
  if t.refuted then Ok ()
  else
    match refutes t assumptions (Array.of_list chain) with
    | Ok true -> Ok ()
    | Ok false ->
      Error
        (Fmt.str "assumptions %a and their chain reach no conflict" pp_lits
           (Array.of_list assumptions))
    | Error e -> Error (Fmt.str "unsat chain: %s" e)

let check_model t valuation =
  let rec scan i =
    if i = t.steps then Ok ()
    else
      match Proof.step t.proof i with
      | Input c when not (Array.exists valuation c) ->
        Error (Fmt.str "model falsifies input clause %a" pp_lits c)
      | _ -> scan (i + 1)
  in
  scan 0

(* --- one-shot entry points -------------------------------------------------- *)

let one_shot proof check =
  let t = create proof in
  match replay t with
  | e :: _ -> Error e
  | [] -> Result.map (fun () -> Proof.length proof) (check t)

let check_proof ?(assumptions = []) ?(chain = []) proof =
  one_shot proof (fun t -> check_conflict t assumptions chain)

let check_sat_model proof valuation = one_shot proof (fun t -> check_model t valuation)
