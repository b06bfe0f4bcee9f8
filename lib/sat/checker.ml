(* Independent certificate checker: hinted (LRAT-style) replay.

   The checker reads clause literals and hints in place, from the [Proof]
   trace's arenas, and keeps two pieces of state of its own: the value of
   every literal and whether each step is a live clause.  It shares the
   literal encoding with the solver (Lit) but none of its machinery — no
   clause blocks, no watches, no occurrence lists, no search — so a bug in
   the CDCL engine and a bug here would have to coincide to let a wrong
   verdict through.

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
   failing the step.  Skipping a clause derives nothing, so it can only
   make the checker reject more; and [check_conflict] then holds for any
   superset of the assumptions a chain was built from, although an extra
   assumption may already satisfy one of its clauses.  Every accept is
   therefore a run of unit propagation over the live clauses, so it
   implies the RUP accept a searching checker would give. *)

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

(* The literals of step [i], for a message. *)
let step_lits t i = match Proof.step t.proof i with Input c | Add c | Delete c -> c

(* Is step [id] an admitted clause not yet deleted? *)
let live t id = id >= 0 && id < t.steps && Bytes.get t.live id = '\001'

(* Under the current values: [-1] if every literal of step [i] is false,
   [l] if every literal but [l] is, [-2] otherwise. *)
let status t i =
  let p = t.proof in
  let stop = Proof.stop p i in
  let rec go k open_lit =
    if k = stop then open_lit
    else
      let l = Proof.lit p k in
      if holds t l then -2
      else if holds t (Lit.neg l) || l = open_lit then go (k + 1) open_lit
      else if open_lit = -1 then go (k + 1) l
      else -2
  in
  go (Proof.first p i) (-1)

(* Resolve the [n] cited clauses [id 0 .. id (n - 1)] in order, making each
   forced literal true with [assign]; [Ok true] at the first false clause. *)
let resolve t ~assign n id =
  let rec go k =
    if k = n then Ok false
    else
      let c = id k in
      if not (live t c) then Error (Fmt.str "hint %d is not a live clause" c)
      else
        match status t c with
        | -1 -> Ok true
        | -2 -> go (k + 1)
        | l ->
          assign t l;
          go (k + 1)
  in
  go 0

(* Does assuming the [m] literals [lit 0 .. lit (m - 1)] and resolving the
   [n] clauses [id 0 .. id (n - 1)] reach a conflict?  The values are
   restored afterwards. *)
let refutes t m lit n id =
  let clash = ref false in
  for k = 0 to m - 1 do
    let l = lit k in
    if holds t (Lit.neg l) then clash := true else if not (holds t l) then assume t l
  done;
  let r = if !clash then Ok true else resolve t ~assign:assume n id in
  undo t;
  r

let replay t =
  let p = t.proof in
  let errors = ref [] in
  let fail fmt = Fmt.kstr (fun e -> errors := e :: !errors) fmt in
  (* Level-0 units up to the [upto]th: each is permanent. *)
  let units upto =
    while t.units < upto do
      let k = t.units in
      t.units <- k + 1;
      if not t.refuted then
        match resolve t ~assign:set 1 (fun _ -> Proof.unit_reason p k) with
        | Ok conflict -> t.refuted <- conflict
        | Error e -> fail "level-0 unit %d: %s" k e
    done
  in
  (* The next [Add] or [Delete], after the units before it. *)
  let edit () =
    let j = t.edits in
    t.edits <- j + 1;
    units (Proof.after_units p j);
    j
  in
  let n = Proof.length p in
  t.live <- reach t.live n;
  while t.steps < n do
    let i = t.steps in
    (match Proof.kind p i with
     | `Input -> Bytes.set t.live i '\001'
     | `Add -> (
       let j = edit () in
       let first = Proof.first p i and stop = Proof.stop p i in
       let negation k = Lit.neg (Proof.lit p (first + k)) in
       match
         if t.refuted then Ok true
         else refutes t (stop - first) negation (Proof.n_hints p j) (Proof.hint p j)
       with
       | Ok true ->
         Bytes.set t.live i '\001';
         if stop = first then t.refuted <- true
       | Ok false ->
         fail "proof step %d: learnt clause %a is not implied by its hints" i pp_lits
           (step_lits t i)
       | Error e -> fail "proof step %d: learnt clause %a: %s" i pp_lits (step_lits t i) e)
     | `Delete ->
       let j = edit () in
       let retires id = live t id && Proof.kind p id = `Add in
       if Proof.n_hints p j = 1 && retires (Proof.hint p j 0) then
         Bytes.set t.live (Proof.hint p j 0) '\000'
       else
         fail "proof step %d: deletion of %a retires no live learnt clause" i pp_lits
           (step_lits t i));
    t.steps <- i + 1
  done;
  units (Proof.n_units p);
  List.rev !errors

let check_conflict t assumptions chain =
  if t.refuted then Ok ()
  else
    let assumptions = Array.of_list assumptions and chain = Array.of_list chain in
    match
      refutes t (Array.length assumptions) (Array.get assumptions) (Array.length chain)
        (Array.get chain)
    with
    | Ok true -> Ok ()
    | Ok false ->
      Error (Fmt.str "assumptions %a and their chain reach no conflict" pp_lits assumptions)
    | Error e -> Error (Fmt.str "unsat chain: %s" e)

let check_model t valuation =
  let p = t.proof in
  let rec satisfied k stop =
    k < stop && (valuation (Proof.lit p k) || satisfied (k + 1) stop)
  in
  let rec scan i =
    if i = t.steps then Ok ()
    else if Proof.kind p i = `Input && not (satisfied (Proof.first p i) (Proof.stop p i)) then
      Error (Fmt.str "model falsifies input clause %a" pp_lits (step_lits t i))
    else scan (i + 1)
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
