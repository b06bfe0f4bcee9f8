(* CDCL SAT solver (MiniSat lineage).

   Invariants worth keeping in mind while reading:
   - [assigns.(v)] is 0 while v is unassigned, +1/-1 once assigned; the value
     of a literal combines this with its sign.
   - every non-unit clause is watched by its first two literals; propagation
     maintains "if a watched literal is false, the other watch is true or the
     clause is unit/conflicting".
   - [trail] records assignments in order; [trail_lim.(d)] is the trail height
     at the moment decision level d+1 was opened.
   - learnt clauses are asserting: after [analyze], the learnt clause's first
     literal is the 1-UIP and becomes true upon backjumping. *)

type clause = {
  mutable lits : int array;
  learnt : bool;
  mutable activity : float;
  mutable lbd : int;
  mutable dead : bool;
  id : int; (* its step in the certificate trace; -1 when none was logged *)
}

let dummy_clause =
  { lits = [||]; learnt = false; activity = 0.; lbd = 0; dead = false; id = -1 }

type result = Sat | Unsat | Unknown

type budget = {
  max_conflicts : int option;
  max_decisions : int option;
  max_propagations : int option;
  time_limit : float option; (* wall-clock seconds for this call *)
}

let budget ?max_conflicts ?max_decisions ?max_propagations ?time_limit () =
  { max_conflicts; max_decisions; max_propagations; time_limit }

(* Test-only corruptions; see [inject_unsoundness].  Each fires on every
   [n]th opportunity, so a period doubles as a deterministic seed. *)
type unsound_mutation =
  | Drop_learnt_literal of int
  | Flip_model_bit of int
  | Mute_proof_step of int
  | Force_unknown of int

let unsound_of_string spec =
  match String.index_opt spec ':' with
  | Some i -> (
    let kind = String.sub spec 0 i in
    let n =
      match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
      | Some n when n > 0 -> n
      | _ -> failwith (Printf.sprintf "bad --unsound period in %S (want a positive int)" spec)
    in
    match kind with
    | "drop-lit" -> Drop_learnt_literal n
    | "flip-model" -> Flip_model_bit n
    | "mute-proof" -> Mute_proof_step n
    | "force-unknown" -> Force_unknown n
    | k ->
      failwith
        (Printf.sprintf
           "unknown --unsound kind %S (drop-lit|flip-model|mute-proof|force-unknown)" k))
  | None -> failwith (Printf.sprintf "bad --unsound spec %S (want KIND:N)" spec)

(* Restart diversification: initial phase policy for this [solve] call. *)
type polarity_mode =
  | Phase_saved
  | Phase_false
  | Phase_true
  | Phase_inverted
  | Phase_random

type t = {
  mutable ok : bool;
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  mutable watches : clause Vec.t array; (* literal -> watching clauses *)
  mutable assigns : int array;          (* var -> 0 | +1 | -1 *)
  mutable level : int array;            (* var -> decision level *)
  mutable reason : clause array;        (* var -> implying clause or dummy *)
  mutable activity : float array;       (* var -> VSIDS activity *)
  mutable polarity : bool array;        (* var -> saved phase *)
  mutable seen : bool array;            (* var -> scratch mark for analyze *)
  order : Heap.t;
  trail : int Vec.t;                    (* literals, in assignment order *)
  trail_lim : int Vec.t;
  mutable qhead : int;
  mutable nvars : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable model : bool array;
  mutable core : int list;
  mutable chain : int list; (* clause ids behind [core]; see [unsat_chain] *)
  mutable assumptions : int array;
  (* statistics *)
  mutable n_decisions : int;
  mutable n_conflicts : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable max_learnts : float;
  (* resource limits for the current [solve] call (absolute, against the
     cumulative counters above); [max_int] / [infinity] = unlimited *)
  mutable lim_conflicts : int;
  mutable lim_decisions : int;
  mutable lim_propagations : int;
  mutable lim_deadline : float;
  (* certificate trace (None = proof logging off) *)
  mutable proof : Proof.t option;
  (* deliberate corruption for certification tests *)
  mutable unsound : unsound_mutation option;
  mutable unsound_tick : int;
  (* restart diversification (reset by every [solve] call) *)
  mutable rng : int64;               (* xorshift64* state, seeded per call *)
  mutable var_decay_inv : float;     (* 1 / VSIDS decay factor *)
}

let default_var_decay = 0.95
let clause_decay = 1. /. 0.999

let create () =
  let rec t =
    lazy
      {
        ok = true;
        clauses = Vec.create dummy_clause;
        learnts = Vec.create dummy_clause;
        watches = [||];
        assigns = [||];
        level = [||];
        reason = [||];
        activity = [||];
        polarity = [||];
        seen = [||];
        order = Heap.create (fun v -> (Lazy.force t).activity.(v));
        trail = Vec.create 0;
        trail_lim = Vec.create 0;
        qhead = 0;
        nvars = 0;
        var_inc = 1.0;
        cla_inc = 1.0;
        model = [||];
        core = [];
        chain = [];
        assumptions = [||];
        n_decisions = 0;
        n_conflicts = 0;
        n_propagations = 0;
        n_restarts = 0;
        max_learnts = 0.;
        lim_conflicts = max_int;
        lim_decisions = max_int;
        lim_propagations = max_int;
        lim_deadline = infinity;
        proof = None;
        unsound = None;
        unsound_tick = 0;
        rng = 0x9E3779B97F4A7C15L;
        var_decay_inv = 1. /. default_var_decay;
      }
  in
  Lazy.force t

(* The watch list of every literal no clause watches yet.  [watch] gives a
   literal its own list on first use, so nothing is ever pushed here. *)
let no_watches : clause Vec.t = Vec.create ~capacity:1 dummy_clause

(* The per-variable arrays share one capacity, [Array.length t.assigns]
   ([t.watches] holds two entries per variable); [new_var] grows them all
   together when the next variable would not fit. *)
let grow_vars t =
  let n = t.nvars in
  let cap = max 16 (2 * n) in
  let extend a dummy =
    let a' = Array.make cap dummy in
    Array.blit a 0 a' 0 n;
    a'
  in
  t.assigns <- extend t.assigns 0;
  t.level <- extend t.level 0;
  t.reason <- extend t.reason dummy_clause;
  t.activity <- extend t.activity 0.;
  t.polarity <- extend t.polarity false;
  t.seen <- extend t.seen false;
  let w = Array.make (2 * cap) no_watches in
  Array.blit t.watches 0 w 0 (2 * n);
  t.watches <- w

let new_var t =
  let v = t.nvars in
  if v = Array.length t.assigns then grow_vars t;
  t.nvars <- v + 1;
  Heap.insert t.order v;
  v

(* Negative literals decode to huge variables, so this also rejects them. *)
let allocated t l = Lit.var l < t.nvars

let num_vars t = t.nvars
let num_clauses t = Vec.size t.clauses
let num_conflicts t = t.n_conflicts

(* --- certification hooks ------------------------------------------------- *)

let enable_proof t =
  if
    Vec.size t.clauses > 0 || Vec.size t.learnts > 0 || Vec.size t.trail > 0
    || not t.ok
  then invalid_arg "Solver.enable_proof: clauses already added";
  t.proof <- Some (Proof.create ())

let proof t = t.proof
let inject_unsoundness t m = t.unsound <- Some m

(* Fires every [n]th opportunity for the given mutation kind. *)
let unsound_fires t n =
  t.unsound_tick <- t.unsound_tick + 1;
  t.unsound_tick mod max 1 n = 0

(* +1 literal true, -1 false, 0 unassigned *)
let value_lit t l =
  let a = t.assigns.(Lit.var l) in
  if Lit.is_neg l then -a else a

let decision_level t = Vec.size t.trail_lim

(* Hint for an assignment just made at level 0: clause [id] forced it (or,
   with every literal false, refutes the clause set). *)
let log_unit t id =
  match t.proof with
  | Some p when decision_level t = 0 -> Proof.log_unit p id
  | _ -> ()

let set_polarity t v b = t.polarity.(v) <- b

(* --- VSIDS -------------------------------------------------------------- *)

let var_rescale t =
  for v = 0 to t.nvars - 1 do
    t.activity.(v) <- t.activity.(v) *. 1e-100
  done;
  t.var_inc <- t.var_inc *. 1e-100

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then var_rescale t;
  Heap.decrease t.order v

let var_decay_activity t = t.var_inc <- t.var_inc *. t.var_decay_inv

let cla_bump t (c : clause) =
  c.activity <- c.activity +. t.cla_inc;
  if c.activity > 1e20 then begin
    Vec.iter (fun (c : clause) -> c.activity <- c.activity *. 1e-20) t.learnts;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let cla_decay_activity t = t.cla_inc <- t.cla_inc *. clause_decay

(* --- assignment --------------------------------------------------------- *)

let watch t l c =
  let ws = t.watches.(l) in
  if ws == no_watches then begin
    let ws = Vec.create ~capacity:4 dummy_clause in
    Vec.push ws c;
    t.watches.(l) <- ws
  end
  else Vec.push ws c

let attach t c =
  (* clause is watched by the negations of its first two literals *)
  watch t (Lit.neg c.lits.(0)) c;
  watch t (Lit.neg c.lits.(1)) c

let unchecked_enqueue t l reason =
  let v = Lit.var l in
  assert (t.assigns.(v) = 0);
  t.assigns.(v) <- (if Lit.is_neg l then -1 else 1);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.polarity.(v) <- Lit.is_pos l;
  Vec.push t.trail l

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Vec.get t.trail_lim lvl in
    for i = Vec.size t.trail - 1 downto bound do
      let l = Vec.get t.trail i in
      let v = Lit.var l in
      t.assigns.(v) <- 0;
      t.reason.(v) <- dummy_clause;
      if not (Heap.in_heap t.order v) then Heap.insert t.order v
    done;
    t.qhead <- bound;
    Vec.shrink_to t.trail bound;
    Vec.shrink_to t.trail_lim lvl
  end

(* --- propagation -------------------------------------------------------- *)

exception Conflict of clause

let propagate t =
  try
    while t.qhead < Vec.size t.trail do
      let p = Vec.get t.trail t.qhead in
      t.qhead <- t.qhead + 1;
      t.n_propagations <- t.n_propagations + 1;
      let ws = t.watches.(p) in
      (* Rebuild the watch list in place while visiting it. *)
      let i = ref 0 and j = ref 0 in
      let n = Vec.size ws in
      (try
         while !i < n do
           let c = Vec.unsafe_get ws !i in
           incr i;
           if c.dead then () (* dropped lazily *)
           else begin
             let false_lit = Lit.neg p in
             (* Ensure the false literal is at position 1. *)
             if c.lits.(0) = false_lit then begin
               c.lits.(0) <- c.lits.(1);
               c.lits.(1) <- false_lit
             end;
             if value_lit t c.lits.(0) = 1 then begin
               (* Clause already satisfied: keep watching. *)
               Vec.unsafe_set ws !j c;
               incr j
             end
             else begin
               (* Look for a new literal to watch. *)
               let len = Array.length c.lits in
               let k = ref 2 in
               while !k < len && value_lit t c.lits.(!k) = -1 do
                 incr k
               done;
               if !k < len then begin
                 c.lits.(1) <- c.lits.(!k);
                 c.lits.(!k) <- false_lit;
                 watch t (Lit.neg c.lits.(1)) c
               end
               else begin
                 (* Unit or conflicting. *)
                 Vec.unsafe_set ws !j c;
                 incr j;
                 if value_lit t c.lits.(0) = -1 then begin
                   (* Conflict: copy the remaining watchers and abort. *)
                   while !i < n do
                     Vec.unsafe_set ws !j (Vec.unsafe_get ws !i);
                     incr i;
                     incr j
                   done;
                   Vec.shrink_to ws !j;
                   t.qhead <- Vec.size t.trail;
                   raise (Conflict c)
                 end
                 else begin
                   unchecked_enqueue t c.lits.(0) c;
                   log_unit t c.id
                 end
               end
             end
           end
         done;
         Vec.shrink_to ws !j
       with Conflict _ as e -> raise e)
    done;
    None
  with Conflict c -> Some c

(* --- clause addition ---------------------------------------------------- *)

(* Ascending, in place: insertion sort for the short clauses gates emit. *)
let sort_lits a =
  let n = Array.length a in
  if n > 16 then Array.sort Lit.compare a
  else
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* One pass over sorted literals: drop duplicates and literals false at
   level 0, compacting the rest to the front of [a].  Returns how many
   remain, or -1 for a clause that is already satisfied or a tautology
   (sorting puts [2v] and [2v+1] next to each other).  [-2] stands for "no
   previous literal": neither it nor its negation is a literal. *)
let simplify t a =
  let n = Array.length a in
  let rec go i j prev =
    if i = n then j
    else
      let l = a.(i) in
      if l = prev then go (i + 1) j prev
      else if l = Lit.neg prev then -1
      else
        match value_lit t l with
        | 1 -> -1
        | -1 -> go (i + 1) j l
        | _ ->
          a.(j) <- l;
          go (i + 1) (j + 1) l
  in
  go 0 0 (-2)

let add_clause t lits =
  let a = Array.of_list lits in
  for i = 0 to Array.length a - 1 do
    if not (allocated t a.(i)) then
      invalid_arg "Solver.add_clause: literal of an unallocated variable"
  done;
  (* Log the clause verbatim, before simplification: unit clauses are
     enqueued rather than stored, yet the checker must still see them as
     part of the certified formula. *)
  let id = match t.proof with Some p -> Proof.log_input p a | None -> -1 in
  if not t.ok then false
  else begin
    assert (decision_level t = 0);
    sort_lits a;
    match simplify t a with
    | -1 -> true
    | 0 ->
      (* every literal false at level 0: this clause refutes the set *)
      log_unit t id;
      t.ok <- false;
      false
    | 1 ->
      unchecked_enqueue t a.(0) dummy_clause;
      log_unit t id;
      (match propagate t with
       | None -> true
       | Some confl ->
         log_unit t confl.id;
         t.ok <- false;
         false)
    | n ->
      let lits = if n = Array.length a then a else Array.sub a 0 n in
      let c = { lits; learnt = false; activity = 0.; lbd = 0; dead = false; id } in
      Vec.push t.clauses c;
      attach t c;
      true
  end

(* --- conflict analysis (first UIP) -------------------------------------- *)

let analyze t confl =
  let learnt = ref [] in
  let logging = Option.is_some t.proof in
  (* Antecedent ids for the trace.  Reasons are met newest first, so the
     consed list reads in trail order with the conflict clause last. *)
  let hints = ref [] in
  let path_count = ref 0 in
  let p = ref (-1) (* literal, -1 = none yet *) in
  let index = ref (Vec.size t.trail - 1) in
  let btlevel = ref 0 in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if logging then hints := c.id :: !hints;
    if c.learnt then cla_bump t c;
    let start = if !p = -1 then 0 else 1 in
    for k = start to Array.length c.lits - 1 do
      let q = c.lits.(k) in
      let v = Lit.var q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        var_bump t v;
        t.seen.(v) <- true;
        if t.level.(v) >= decision_level t then incr path_count
        else begin
          learnt := q :: !learnt;
          if t.level.(v) > !btlevel then btlevel := t.level.(v)
        end
      end
    done;
    (* Select next literal on the trail to expand. *)
    let rec next () =
      let l = Vec.get t.trail !index in
      decr index;
      if t.seen.(Lit.var l) then l else next ()
    in
    let l = next () in
    p := l;
    t.seen.(Lit.var l) <- false;
    confl := t.reason.(Lit.var l);
    decr path_count;
    if !path_count <= 0 then continue := false
  done;
  let uip = Lit.neg !p in
  (* Conflict-clause minimisation: drop literals implied by the rest. *)
  let is_redundant l =
    let c = t.reason.(Lit.var l) in
    c != dummy_clause
    && Array.for_all
         (fun q ->
           Lit.var q = Lit.var l || t.seen.(Lit.var q) || t.level.(Lit.var q) = 0)
         c.lits
  in
  let kept, dropped =
    List.partition (fun l -> l = uip || not (is_redundant l)) (uip :: !learnt)
  in
  (* The reasons of dropped literals come first.  One may cite another
     dropped literal, so each goes after the reasons it depends on. *)
  let hints =
    if (not logging) || dropped = [] then !hints
    else begin
      let pending = ref (List.map Lit.var dropped) and before = ref [] in
      let rec cite v =
        if List.mem v !pending then begin
          pending := List.filter (fun u -> u <> v) !pending;
          let r = t.reason.(v) in
          Array.iter (fun q -> cite (Lit.var q)) r.lits;
          before := r.id :: !before
        end
      in
      List.iter (fun l -> cite (Lit.var l)) dropped;
      List.rev_append !before !hints
    end
  in
  (* Clear seen marks. *)
  List.iter (fun l -> t.seen.(Lit.var l) <- false) !learnt;
  t.seen.(Lit.var uip) <- false;
  (* LBD: number of distinct decision levels in the clause. *)
  let lbd =
    let levels = List.sort_uniq Int.compare (List.map (fun l -> t.level.(Lit.var l)) kept) in
    List.length levels
  in
  (* Recompute backtrack level on the kept clause. *)
  let btlevel =
    match kept with
    | [] | [ _ ] -> 0
    | _ :: rest ->
      List.fold_left (fun acc l -> max acc t.level.(Lit.var l)) 0 rest
  in
  (kept, btlevel, lbd, hints)

(* Put the literal with the highest level at position 1 (second watch). *)
let order_second_watch t lits =
  let n = Array.length lits in
  if n > 1 then begin
    let best = ref 1 in
    for k = 2 to n - 1 do
      if t.level.(Lit.var lits.(k)) > t.level.(Lit.var lits.(!best)) then best := k
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!best);
    lits.(!best) <- tmp
  end

let record_learnt t lits lbd hints =
  let lits =
    (* Test-only corruption: dropping a literal yields a stronger clause
       that is typically no longer RUP.  Positions 0 and 1 carry the
       asserting/watch invariants, so only a trailing literal of a clause
       with >= 3 literals is removed. *)
    match t.unsound with
    | Some (Drop_learnt_literal n) when List.length lits >= 3 && unsound_fires t n
      ->
      List.filteri (fun i _ -> i < List.length lits - 1) lits
    | _ -> lits
  in
  (* A muted clause keeps id -1, so no hint can cite it as another step. *)
  let id =
    match t.proof with
    | Some p -> (
      match t.unsound with
      | Some (Mute_proof_step n) when unsound_fires t n -> -1
      | _ -> Proof.log_add p (Array.of_list lits) ~hints)
    | None -> -1
  in
  match lits with
  | [] -> t.ok <- false
  | [ l ] ->
    unchecked_enqueue t l dummy_clause;
    log_unit t id
  | first :: _ ->
    let arr = Array.of_list lits in
    order_second_watch t arr;
    let c = { lits = arr; learnt = true; activity = 0.; lbd; dead = false; id } in
    Vec.push t.learnts c;
    attach t c;
    cla_bump t c;
    unchecked_enqueue t first c

(* --- final conflict over assumptions (unsat core) ----------------------- *)

(* Core when the next assumption literal is already false: walk the
   implication graph from that literal back to assumption decisions.  With
   proof logging on, the reasons walked, in trail order, become the chain
   that certifies the core. *)
let analyze_final_lit t p =
  (* [p] is the trail literal contradicting the failed assumption [neg p];
     the core collects assumption literals as given by the caller. *)
  let core = ref [ Lit.neg p ] and chain = ref [] in
  let v = Lit.var p in
  if t.level.(v) > 0 then begin
    t.seen.(v) <- true;
    let bottom = Vec.get t.trail_lim 0 in
    for i = Vec.size t.trail - 1 downto bottom do
      let l = Vec.get t.trail i in
      let w = Lit.var l in
      if t.seen.(w) then begin
        t.seen.(w) <- false;
        let r = t.reason.(w) in
        (* a decision here is an assumption, [p] itself included *)
        if r == dummy_clause then core := l :: !core
        else begin
          if Option.is_some t.proof then chain := r.id :: !chain;
          Array.iter
            (fun q ->
              let u = Lit.var q in
              if u <> w && t.level.(u) > 0 then t.seen.(u) <- true)
            r.lits
        end
      end
    done;
    t.seen.(v) <- false
  end;
  t.core <- !core;
  t.chain <- !chain

(* --- learnt clause DB reduction ----------------------------------------- *)

let reduce_db t =
  (* Keep clauses with low LBD or high activity; drop the worst half. *)
  Vec.sort
    (fun a b ->
      match Int.compare a.lbd b.lbd with
      | 0 -> Float.compare b.activity a.activity
      | c -> c)
    t.learnts;
  let n = Vec.size t.learnts in
  let keep = n / 2 in
  let locked c =
    (* A clause that is the reason of a current assignment must stay. *)
    let l = c.lits.(0) in
    value_lit t l = 1 && t.reason.(Lit.var l) == c
  in
  for i = keep to n - 1 do
    let c = Vec.get t.learnts i in
    if (not (locked c)) && c.lbd > 2 then begin
      c.dead <- true;
      match t.proof with
      | Some p -> Proof.log_delete p c.lits ~id:c.id
      | None -> ()
    end
  done;
  Vec.filter_in_place (fun c -> not c.dead) t.learnts
(* dead clauses are skipped (and dropped) lazily by [propagate]'s rebuild;
   we additionally purge them from watch lists here to bound memory. *)

let purge_watches t =
  Array.iter (fun ws -> Vec.filter_in_place (fun c -> not c.dead) ws) t.watches

(* --- search -------------------------------------------------------------- *)

let luby y x =
  (* Finite subsequences of the Luby sequence: 1 1 2 1 1 2 4 ... *)
  let rec find sz seq =
    if sz >= x + 1 then (sz, seq) else find ((2 * sz) + 1) (seq + 1)
  in
  let rec loop (sz, seq) x =
    if sz - 1 = x then (seq, x)
    else
      let sz = (sz - 1) / 2 in
      loop (sz, seq - 1) (x mod sz)
  in
  let sz, seq = find 1 0 in
  let seq, _ = loop (sz, seq) x in
  y ** float_of_int seq

let pick_branch_var t =
  let rec loop () =
    if Heap.is_empty t.order then None
    else
      let v = Heap.remove_max t.order in
      if t.assigns.(v) = 0 then Some v else loop ()
  in
  loop ()

exception Found_result of result

(* The deadline is only consulted when one was set: [Unix.gettimeofday] per
   loop iteration is cheap (vDSO) but not free, and most calls run
   unbudgeted. *)
let budget_exhausted t =
  t.n_conflicts >= t.lim_conflicts
  || t.n_decisions >= t.lim_decisions
  || t.n_propagations >= t.lim_propagations
  || (t.lim_deadline < infinity && Unix.gettimeofday () > t.lim_deadline)

let search t ~nof_conflicts =
  let conflicts = ref 0 in
  try
    while true do
      if budget_exhausted t then raise (Found_result Unknown);
      match propagate t with
      | Some confl ->
        t.n_conflicts <- t.n_conflicts + 1;
        incr conflicts;
        if decision_level t = 0 then begin
          t.ok <- false;
          t.core <- [];
          t.chain <- [];
          (* A level-0 conflict refutes the clause set outright: finalize
             the certificate with the empty clause. *)
          (match t.proof with
           | Some p -> ignore (Proof.log_add p [||] ~hints:[ confl.id ] : int)
           | None -> ());
          raise (Found_result Unsat)
        end;
        let learnt, btlevel, lbd, hints = analyze t confl in
        (* Never backjump past the assumption levels we still rely on:
           literals below remain enqueued; the asserting literal's level is
           recomputed against the surviving trail. *)
        cancel_until t btlevel;
        record_learnt t learnt lbd hints;
        var_decay_activity t;
        cla_decay_activity t
      | None ->
        if nof_conflicts >= 0 && !conflicts >= nof_conflicts then begin
          (* Restart. *)
          t.n_restarts <- t.n_restarts + 1;
          cancel_until t (Array.length t.assumptions);
          raise Exit
        end;
        if
          float_of_int (Vec.size t.learnts) -. float_of_int (Vec.size t.trail)
          >= t.max_learnts
        then begin
          reduce_db t;
          purge_watches t
        end;
        (* Assumption decisions first. *)
        let dl = decision_level t in
        if dl < Array.length t.assumptions then begin
          let p = t.assumptions.(dl) in
          match value_lit t p with
          | 1 ->
            (* Already true: open a dummy level so indices stay aligned. *)
            Vec.push t.trail_lim (Vec.size t.trail)
          | -1 ->
            analyze_final_lit t (Lit.neg p);
            raise (Found_result Unsat)
          | _ ->
            Vec.push t.trail_lim (Vec.size t.trail);
            unchecked_enqueue t p dummy_clause
        end
        else begin
          match pick_branch_var t with
          | None ->
            (* Complete assignment: SAT. *)
            t.model <- Array.init t.nvars (fun v -> t.assigns.(v) = 1);
            (match t.unsound with
             | Some (Flip_model_bit k) when t.nvars > 0 ->
               let v = abs k mod t.nvars in
               t.model.(v) <- not t.model.(v)
             | _ -> ());
            raise (Found_result Sat)
          | Some v ->
            t.n_decisions <- t.n_decisions + 1;
            let l = Lit.make ~var:v ~negated:(not t.polarity.(v)) in
            Vec.push t.trail_lim (Vec.size t.trail);
            unchecked_enqueue t l dummy_clause
        end
    done;
    assert false
  with
  | Exit -> None
  | Found_result r -> Some r

let set_budget_limits t = function
  | None ->
    t.lim_conflicts <- max_int;
    t.lim_decisions <- max_int;
    t.lim_propagations <- max_int;
    t.lim_deadline <- infinity
  | Some b ->
    let abs base = function Some n -> base + max 0 n | None -> max_int in
    t.lim_conflicts <- abs t.n_conflicts b.max_conflicts;
    t.lim_decisions <- abs t.n_decisions b.max_decisions;
    t.lim_propagations <- abs t.n_propagations b.max_propagations;
    t.lim_deadline <-
      (match b.time_limit with
       (* A non-positive limit is already expired; [neg_infinity] makes that
          deterministic rather than racing the clock's resolution. *)
       | Some s when s <= 0. -> neg_infinity
       | Some s -> Unix.gettimeofday () +. s
       | None -> infinity)

(* --- restart diversification --------------------------------------------- *)

(* Deterministic per-call PRNG (xorshift64 star): the same seed always
   yields the same search, so an escalation ladder's retries are
   reproducible. *)
let reseed t seed =
  (* Never let the state collapse to 0 (a xorshift fixed point). *)
  t.rng <- Int64.logor (Int64.mul (Int64.of_int seed) 0x2545F4914F6CDD1DL) 1L

let rand_bits t =
  let x = t.rng in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.rng <- x;
  Int64.to_int (Int64.shift_right_logical x 2)

let rand_int t n = if n <= 0 then 0 else rand_bits t mod n
let rand_bool t = rand_bits t land 1 = 1

(* Apply the per-call diversification knobs.  Phases steer which half of the
   search tree is explored first; the seeded activity bumps reorder decision
   ties; a different VSIDS decay changes how fast the heuristic forgets — all
   deterministic given [seed], all sound (only heuristics are touched). *)
let apply_diversification t ~seed ~polarity_mode ~var_decay =
  t.var_decay_inv <-
    (match var_decay with
     | Some d when d > 0. && d < 1. -> 1. /. d
     | Some d -> invalid_arg (Printf.sprintf "Solver.solve: var_decay %g not in (0,1)" d)
     | None -> 1. /. default_var_decay);
  (match seed with Some s -> reseed t s | None -> ());
  (match polarity_mode with
   | Phase_saved -> ()
   | Phase_false -> Array.fill t.polarity 0 (Array.length t.polarity) false
   | Phase_true -> Array.fill t.polarity 0 (Array.length t.polarity) true
   | Phase_inverted ->
     for v = 0 to t.nvars - 1 do
       t.polarity.(v) <- not t.polarity.(v)
     done
   | Phase_random ->
     for v = 0 to t.nvars - 1 do
       t.polarity.(v) <- rand_bool t
     done);
  (* Perturb the decision order: bump a seeded sample of variables so equal
     (or near-equal) activities break ties differently on this attempt. *)
  if seed <> None && t.nvars > 0 then
    for _ = 1 to 1 + (t.nvars / 8) do
      var_bump t (rand_int t t.nvars)
    done

let solve ?(assumptions = []) ?budget ?seed ?(polarity_mode = Phase_saved)
    ?var_decay t =
  if not (List.for_all (allocated t) assumptions) then
    invalid_arg "Solver.solve: assumption of an unallocated variable";
  if not t.ok then begin
    t.core <- [];
    t.chain <- [];
    Unsat
  end
  else if
    match t.unsound with
    | Some (Force_unknown n) -> unsound_fires t n
    | _ -> false
  then begin
    (* Test-only fault: report an inconclusive verdict even though the
       search never ran.  Scrub like a genuine budget exhaustion. *)
    t.model <- [||];
    t.core <- [];
    t.chain <- [];
    Unknown
  end
  else begin
    apply_diversification t ~seed ~polarity_mode ~var_decay;
    set_budget_limits t budget;
    t.assumptions <- Array.of_list assumptions;
    t.max_learnts <- max 1000. (float_of_int (Vec.size t.clauses) *. 0.3);
    let rec loop restarts =
      let nof_conflicts = int_of_float (luby 2. restarts *. 100.) in
      match search t ~nof_conflicts with
      | Some r -> r
      | None -> loop (restarts + 1)
    in
    let r = loop 0 in
    cancel_until t 0;
    t.assumptions <- [||];
    set_budget_limits t None;
    (* An [Unknown] answer proves nothing: scrub the model and core so a
       caller cannot accidentally read state left over from an earlier
       [Sat]/[Unsat] call. *)
    if r = Unknown then begin
      t.model <- [||];
      t.core <- [];
      t.chain <- []
    end;
    r
  end

(* A conflict during assumption propagation inside [search] reaches
   [analyze] normally because assumption levels are ordinary decision
   levels; [analyze_final] is used only via [analyze_final_lit] and the
   level-0 case.  For conflicts whose learnt clause would be empty under
   assumptions, [record_learnt] enqueues at level [btlevel] which is >= the
   number of satisfied assumptions, so the standard machinery suffices. *)

let value t v =
  if v >= Array.length t.model then false else t.model.(v)

let lit_value t l =
  let b = value t (Lit.var l) in
  if Lit.is_neg l then not b else b

let model t = Array.copy t.model
let unsat_core t = t.core
let unsat_chain t = t.chain

let pp_stats ppf t =
  Fmt.pf ppf "vars=%d clauses=%d learnts=%d decisions=%d conflicts=%d props=%d restarts=%d"
    t.nvars (Vec.size t.clauses) (Vec.size t.learnts) t.n_decisions t.n_conflicts
    t.n_propagations t.n_restarts
