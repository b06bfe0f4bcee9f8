(* CDCL SAT solver (MiniSat lineage).

   Invariants worth keeping in mind while reading:
   - [assigns] holds one byte per variable: 0 while it is unassigned,
     otherwise 1 plus the sign bit of its true literal ([lit_true]).
   - every non-unit clause is watched by its first two literals; propagation
     maintains "if a watched literal is false, the other watch is true or the
     clause is unit/conflicting".
   - [trail] records assignments in order; [trail_lim.(d)] is the trail height
     at the moment decision level d+1 was opened.
   - learnt clauses are asserting: after [analyze], the learnt clause's first
     literal is the 1-UIP and becomes true upon backjumping.

   Literal arithmetic is written out in place: [l lsr 1] is [Lit.var l],
   [l lxor 1] is [Lit.neg l] and [l land 1 = 0] is [Lit.is_pos l].  dune's
   default profile compiles every library [-opaque], so a call into [Lit]
   would stay a call in the hot loops below.  [Lit] is the public API. *)

(* A clause is one int array, with no pointer in it: two header words, then
   its literals.

     [| id; info; lit0; lit1; ... |]

   [id] is its step in the certificate trace (-1 when none was logged).
   [info] packs, from the low bit: learnt, dead, the LBD (30 bits) and, for
   a learnt clause, its slot in [cla_act], the learnt activities, which is
   its index in [learnts].  The layout needs 63-bit ints. *)
type clause = int array

let hdr = 2
let size (c : clause) = Array.length c - hdr
let lit (c : clause) k = Array.unsafe_get c (hdr + k)
let set_lit (c : clause) k l = Array.unsafe_set c (hdr + k) l
let trace_id (c : clause) = c.(0)
let is_learnt (c : clause) = c.(1) land 1 = 1
let is_dead (c : clause) = c.(1) land 2 = 2
let lbd (c : clause) = (c.(1) lsr 2) land 0x3fff_ffff
let slot (c : clause) = c.(1) lsr 32
let learnt_info ~lbd ~slot = (slot lsl 32) lor (lbd lsl 2) lor 1
let kill (c : clause) = c.(1) <- c.(1) lor 2
let set_slot (c : clause) i = c.(1) <- (c.(1) land 0xffff_ffff) lor (i lsl 32)

(* The reason of a decision and of every unassigned variable. *)
let dummy_clause : clause = [| -1; 0 |]

(* A stack of ints, for the trail and its level marks.  Its array is known
   to hold ints, so a push is a plain store and a truncation only moves
   [size], where a polymorphic [Vec] pays [caml_modify] for both. *)
type stack = { mutable items : int array; mutable size : int }

let stack () = { items = Array.make 16 0; size = 0 }

let push s x =
  let n = s.size in
  if n = Array.length s.items then begin
    let a = Array.make (2 * n) 0 in
    Array.blit s.items 0 a 0 n;
    s.items <- a
  end;
  Array.unsafe_set s.items n x;
  s.size <- n + 1

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
  mutable n_clauses : int;              (* problem clauses stored *)
  learnts : clause Vec.t;
  mutable cla_act : float array;        (* learnt slot -> clause activity *)
  mutable watches : clause array array; (* literal -> watching clauses *)
  mutable watched : int array;          (* literal -> length of its list *)
  mutable assigns : Bytes.t;            (* var -> 0 | 1 + sign of true lit *)
  mutable level : int array;            (* var -> decision level *)
  mutable reason : clause array;        (* var -> implying clause or dummy *)
  mutable activity : float array;       (* var -> VSIDS activity *)
  mutable polarity : Bytes.t;           (* var -> saved phase, 1 = true *)
  mutable seen : Bytes.t;               (* var -> scratch mark for analyze *)
  mutable model : Bytes.t;              (* var -> value in the last model *)
  order : Heap.t;                       (* reads [activity] *)
  trail : stack;                        (* literals, in assignment order *)
  trail_lim : stack;
  mutable qhead : int;
  mutable nvars : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable model_vars : int; (* variables [model] covers; 0 = no model *)
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
  mutable released : bool;           (* the tables went back to [spare] *)
}

let default_var_decay = 0.95
let clause_decay = 1. /. 0.999

(* The per-variable tables.  They share one capacity, [Array.length level]
   ([watches] and [watched] hold two entries per variable), and [order]
   reads [activity]. *)
type tables = {
  t_assigns : Bytes.t;
  t_level : int array;
  t_reason : clause array;
  t_activity : float array;
  t_polarity : Bytes.t;
  t_seen : Bytes.t;
  t_model : Bytes.t;
  t_watches : clause array array;
  t_watched : int array;
  t_order : Heap.t;
}

(* Tables that [release] cleared, kept for the next [create] in this
   domain. *)
let spare : tables option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let create () =
  let tb =
    match Domain.DLS.get spare with
    | Some tb ->
      Domain.DLS.set spare None;
      tb
    | None ->
      { t_assigns = Bytes.empty; t_level = [||]; t_reason = [||]; t_activity = [||];
        t_polarity = Bytes.empty; t_seen = Bytes.empty; t_model = Bytes.empty;
        t_watches = [||]; t_watched = [||]; t_order = Heap.create [||] }
  in
  {
    ok = true;
    n_clauses = 0;
    learnts = Vec.create dummy_clause;
    cla_act = [||];
    watches = tb.t_watches;
    watched = tb.t_watched;
    assigns = tb.t_assigns;
    level = tb.t_level;
    reason = tb.t_reason;
    activity = tb.t_activity;
    polarity = tb.t_polarity;
    seen = tb.t_seen;
    model = tb.t_model;
    order = tb.t_order;
    trail = stack ();
    trail_lim = stack ();
    qhead = 0;
    nvars = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    model_vars = 0;
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
    released = false;
  }

let live t = if t.released then invalid_arg "Solver: the solver was released"

(* The watch list of every literal no clause watches yet.  [watch] gives a
   literal its own array on first use, so nothing is ever stored here. *)
let no_watches : clause array = [||]

(* [new_var] grows every per-variable table together when the next variable
   would not fit.  The new tables are all built before any is installed. *)
let grow_vars t =
  let n = t.nvars in
  let cap = max 16 (2 * n) in
  (* [a] with [k] entries per variable *)
  let extend ?(k = 1) a dummy =
    let a' = Array.make (k * cap) dummy in
    Array.blit a 0 a' 0 (k * n);
    a'
  in
  let extend_bytes b =
    let b' = Bytes.make cap '\000' in
    Bytes.blit b 0 b' 0 n;
    b'
  in
  let assigns = extend_bytes t.assigns
  and level = extend t.level 0
  and reason = extend t.reason dummy_clause
  and activity = extend t.activity 0.
  and polarity = extend_bytes t.polarity
  and seen = extend_bytes t.seen
  and model = extend_bytes t.model
  and watches = extend ~k:2 t.watches no_watches
  and watched = extend ~k:2 t.watched 0 in
  t.assigns <- assigns;
  t.level <- level;
  t.reason <- reason;
  t.activity <- activity;
  t.polarity <- polarity;
  t.seen <- seen;
  t.model <- model;
  t.watches <- watches;
  t.watched <- watched;
  Heap.set_scores t.order activity

(* The capacity [grow_vars] gives a solver that never reused tables at
   [n] variables.  A reused table is at least as large. *)
let fresh_capacity n =
  let rec go c = if c >= n then c else go (2 * c) in
  if n = 0 then 0 else go 16

let new_var t =
  live t;
  let v = t.nvars in
  if v = Array.length t.level then grow_vars t;
  t.nvars <- v + 1;
  Heap.insert t.order v;
  v

(* Negative literals decode to huge variables, so this also rejects them. *)
let allocated t l = l lsr 1 < t.nvars

let num_vars t = t.nvars
let num_clauses t = t.n_clauses
let num_conflicts t = t.n_conflicts

(* --- certification hooks ------------------------------------------------- *)

let enable_proof t =
  live t;
  if
    t.n_clauses > 0 || Vec.size t.learnts > 0 || t.trail.size > 0
    || not t.ok
  then invalid_arg "Solver.enable_proof: clauses already added";
  t.proof <- Some (Proof.create ())

let proof t = t.proof
let inject_unsoundness t m =
  live t;
  t.unsound <- Some m

(* Fires every [n]th opportunity for the given mutation kind. *)
let unsound_fires t n =
  t.unsound_tick <- t.unsound_tick + 1;
  t.unsound_tick mod max 1 n = 0

(* The [assigns] byte of a variable whose literal [l] is true. *)
let lit_true l = 1 + (l land 1)

(* +1 literal true, -1 false, 0 unassigned *)
let value_lit t l =
  match Char.code (Bytes.unsafe_get t.assigns (l lsr 1)) with
  | 0 -> 0
  | a -> if a = lit_true l then 1 else -1

let unassigned t v = Bytes.unsafe_get t.assigns v = '\000'
let seen t v = Bytes.unsafe_get t.seen v = '\001'
let set_seen t v b = Bytes.unsafe_set t.seen v (if b then '\001' else '\000')
let phase t v = Bytes.unsafe_get t.polarity v = '\001'

let decision_level t = t.trail_lim.size

(* Hint for an assignment just made at level 0: clause [id] forced it (or,
   with every literal false, refutes the clause set). *)
let log_unit t id =
  match t.proof with
  | Some p when decision_level t = 0 -> Proof.log_unit p id
  | _ -> ()

let set_polarity t v b =
  live t;
  Bytes.set t.polarity v (if b then '\001' else '\000')

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
  let i = slot c in
  t.cla_act.(i) <- t.cla_act.(i) +. t.cla_inc;
  if t.cla_act.(i) > 1e20 then begin
    for j = 0 to Vec.size t.learnts - 1 do
      t.cla_act.(j) <- t.cla_act.(j) *. 1e-20
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let cla_decay_activity t = t.cla_inc <- t.cla_inc *. clause_decay

(* --- assignment --------------------------------------------------------- *)

(* A literal's first watch array has 2 slots, written as a literal rather
   than through [Array.make]; a full one doubles. *)
let watch t l c =
  let ws = t.watches.(l) and n = t.watched.(l) in
  if n < Array.length ws then Array.unsafe_set ws n c
  else if n = 0 then t.watches.(l) <- [| c; dummy_clause |]
  else begin
    let ws' = Array.make (2 * n) dummy_clause in
    Array.blit ws 0 ws' 0 n;
    ws'.(n) <- c;
    t.watches.(l) <- ws'
  end;
  t.watched.(l) <- n + 1

(* Truncate literal [l]'s watch list to [n] entries.  Most visits keep
   every watcher, and then there is nothing to clear. *)
let shrink_watches t l n =
  let m = t.watched.(l) in
  if n < m then begin
    Array.fill t.watches.(l) n (m - n) dummy_clause;
    t.watched.(l) <- n
  end

let attach t c =
  (* clause is watched by the negations of its first two literals *)
  watch t (lit c 0 lxor 1) c;
  watch t (lit c 1 lxor 1) c

let unchecked_enqueue t l reason =
  let v = l lsr 1 in
  assert (unassigned t v);
  Bytes.unsafe_set t.assigns v (Char.unsafe_chr (lit_true l));
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  Bytes.unsafe_set t.polarity v (if l land 1 = 0 then '\001' else '\000');
  push t.trail l

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = t.trail_lim.items.(lvl) and trail = t.trail.items in
    for i = t.trail.size - 1 downto bound do
      let v = Array.unsafe_get trail i lsr 1 in
      Bytes.unsafe_set t.assigns v '\000';
      t.reason.(v) <- dummy_clause;
      if not (Heap.in_heap t.order v) then Heap.insert t.order v
    done;
    t.qhead <- bound;
    t.trail.size <- bound;
    t.trail_lim.size <- lvl
  end

(* --- propagation -------------------------------------------------------- *)

exception Conflict of clause

let propagate t =
  try
    while t.qhead < t.trail.size do
      let p = Array.unsafe_get t.trail.items t.qhead in
      t.qhead <- t.qhead + 1;
      t.n_propagations <- t.n_propagations + 1;
      let ws = t.watches.(p) in
      (* Rebuild the watch list in place while visiting it. *)
      let i = ref 0 and j = ref 0 in
      let n = t.watched.(p) in
      (try
         while !i < n do
           let c = Array.unsafe_get ws !i in
           incr i;
           if is_dead c then () (* dropped lazily *)
           else begin
             let false_lit = p lxor 1 in
             (* Ensure the false literal is at position 1. *)
             if lit c 0 = false_lit then begin
               set_lit c 0 (lit c 1);
               set_lit c 1 false_lit
             end;
             if value_lit t (lit c 0) = 1 then begin
               (* Clause already satisfied: keep watching. *)
               Array.unsafe_set ws !j c;
               incr j
             end
             else begin
               (* Look for a new literal to watch. *)
               let len = size c in
               let k = ref 2 in
               while !k < len && value_lit t (lit c !k) = -1 do
                 incr k
               done;
               if !k < len then begin
                 set_lit c 1 (lit c !k);
                 set_lit c !k false_lit;
                 watch t (lit c 1 lxor 1) c
               end
               else begin
                 (* Unit or conflicting. *)
                 Array.unsafe_set ws !j c;
                 incr j;
                 if value_lit t (lit c 0) = -1 then begin
                   (* Conflict: copy the remaining watchers and abort. *)
                   while !i < n do
                     Array.unsafe_set ws !j (Array.unsafe_get ws !i);
                     incr i;
                     incr j
                   done;
                   shrink_watches t p !j;
                   t.qhead <- t.trail.size;
                   raise (Conflict c)
                 end
                 else begin
                   unchecked_enqueue t (lit c 0) c;
                   log_unit t (trace_id c)
                 end
               end
             end
           end
         done;
         shrink_watches t p !j
       with Conflict _ as e -> raise e)
    done;
    None
  with Conflict c -> Some c

(* --- clause addition ---------------------------------------------------- *)

(* The literals of [c] ascending, in place: insertion sort for the short
   clauses gates emit. *)
let sort_lits c =
  let n = size c in
  if n > 16 then begin
    let a = Array.sub c hdr n in
    Array.sort Int.compare a;
    Array.blit a 0 c hdr n
  end
  else
    for i = 1 to n - 1 do
      let x = lit c i in
      let j = ref (i - 1) in
      while !j >= 0 && lit c !j > x do
        set_lit c (!j + 1) (lit c !j);
        decr j
      done;
      set_lit c (!j + 1) x
    done

(* One pass over the sorted literals of [c]: drop duplicates and literals
   false at level 0, compacting the rest to the front.  Returns how many
   remain, or -1 for a clause that is already satisfied or a tautology
   (sorting puts [2v] and [2v+1] next to each other).  [-2] stands for "no
   previous literal": neither it nor its negation is a literal. *)
let simplify t c =
  let n = size c in
  let rec go i j prev =
    if i = n then j
    else
      let l = lit c i in
      if l = prev then go (i + 1) j prev
      else if l = prev lxor 1 then -1
      else
        match value_lit t l with
        | 1 -> -1
        | -1 -> go (i + 1) j l
        | _ ->
          set_lit c j l;
          go (i + 1) (j + 1) l
  in
  go 0 0 (-2)

(* A clause block holding [lits]; its header is filled in by the caller. *)
let clause_of_list lits =
  let c = Array.make (hdr + List.length lits) 0 in
  List.iteri (set_lit c) lits;
  c

let add_clause t lits =
  live t;
  let c = clause_of_list lits in
  let len = size c in
  for k = 0 to len - 1 do
    if not (allocated t (lit c k)) then
      invalid_arg "Solver.add_clause: literal of an unallocated variable"
  done;
  (* Log the clause verbatim, before simplification: unit clauses are
     enqueued rather than stored, yet the checker must still see them as
     part of the certified formula. *)
  let id = match t.proof with Some p -> Proof.log_input p c ~pos:hdr ~len | None -> -1 in
  if not t.ok then false
  else begin
    assert (decision_level t = 0);
    sort_lits c;
    match simplify t c with
    | -1 -> true
    | 0 ->
      (* every literal false at level 0: this clause refutes the set *)
      log_unit t id;
      t.ok <- false;
      false
    | 1 ->
      unchecked_enqueue t (lit c 0) dummy_clause;
      log_unit t id;
      (match propagate t with
       | None -> true
       | Some confl ->
         log_unit t (trace_id confl);
         t.ok <- false;
         false)
    | n ->
      let c = if n = len then c else Array.sub c 0 (hdr + n) in
      c.(0) <- id;
      (* Problem clauses are never deleted: the two watch lists hold the
         clause from here on, and the solver only counts it. *)
      t.n_clauses <- t.n_clauses + 1;
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
  let index = ref (t.trail.size - 1) in
  let btlevel = ref 0 in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if logging then hints := trace_id c :: !hints;
    if is_learnt c then cla_bump t c;
    let start = if !p = -1 then 0 else 1 in
    for k = start to size c - 1 do
      let q = lit c k in
      let v = q lsr 1 in
      if (not (seen t v)) && t.level.(v) > 0 then begin
        var_bump t v;
        set_seen t v true;
        if t.level.(v) >= decision_level t then incr path_count
        else begin
          learnt := q :: !learnt;
          if t.level.(v) > !btlevel then btlevel := t.level.(v)
        end
      end
    done;
    (* Select next literal on the trail to expand. *)
    let rec next () =
      let l = Array.unsafe_get t.trail.items !index in
      decr index;
      if seen t (l lsr 1) then l else next ()
    in
    let l = next () in
    p := l;
    set_seen t (l lsr 1) false;
    confl := t.reason.(l lsr 1);
    decr path_count;
    if !path_count <= 0 then continue := false
  done;
  let uip = !p lxor 1 in
  (* Conflict-clause minimisation: drop literals implied by the rest. *)
  let is_redundant l =
    let c = t.reason.(l lsr 1) in
    let rec implied k =
      k = size c
      ||
      let u = lit c k lsr 1 in
      (u = l lsr 1 || seen t u || t.level.(u) = 0)
      && implied (k + 1)
    in
    c != dummy_clause && implied 0
  in
  let kept, dropped =
    List.partition (fun l -> l = uip || not (is_redundant l)) (uip :: !learnt)
  in
  (* The reasons of dropped literals come first.  One may cite another
     dropped literal, so each goes after the reasons it depends on. *)
  let hints =
    if (not logging) || dropped = [] then !hints
    else begin
      let pending = ref (List.map (fun l -> l lsr 1) dropped) and before = ref [] in
      let rec cite v =
        if List.mem v !pending then begin
          pending := List.filter (fun u -> u <> v) !pending;
          let r = t.reason.(v) in
          for k = 0 to size r - 1 do
            cite (lit r k lsr 1)
          done;
          before := trace_id r :: !before
        end
      in
      List.iter (fun l -> cite (l lsr 1)) dropped;
      List.rev_append !before !hints
    end
  in
  (* Clear seen marks. *)
  List.iter (fun l -> set_seen t (l lsr 1) false) !learnt;
  set_seen t (uip lsr 1) false;
  (* LBD: number of distinct decision levels in the clause. *)
  let lbd =
    let levels = List.sort_uniq Int.compare (List.map (fun l -> t.level.(l lsr 1)) kept) in
    List.length levels
  in
  (* Recompute backtrack level on the kept clause. *)
  let btlevel =
    match kept with
    | [] | [ _ ] -> 0
    | _ :: rest ->
      List.fold_left (fun acc l -> max acc t.level.(l lsr 1)) 0 rest
  in
  (kept, btlevel, lbd, hints)

(* Put the literal with the highest level at position 1 (second watch). *)
let order_second_watch t c =
  let n = size c in
  if n > 1 then begin
    let best = ref 1 in
    for k = 2 to n - 1 do
      if t.level.(lit c k lsr 1) > t.level.(lit c !best lsr 1) then best := k
    done;
    let tmp = lit c 1 in
    set_lit c 1 (lit c !best);
    set_lit c !best tmp
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
  let c = clause_of_list lits in
  (* A muted clause keeps id -1, so no hint can cite it as another step. *)
  let id =
    match t.proof with
    | Some p -> (
      match t.unsound with
      | Some (Mute_proof_step n) when unsound_fires t n -> -1
      | _ -> Proof.log_add p c ~pos:hdr ~len:(size c) ~hints)
    | None -> -1
  in
  match size c with
  | 0 -> t.ok <- false
  | 1 ->
    unchecked_enqueue t (lit c 0) dummy_clause;
    log_unit t id
  | _ ->
    order_second_watch t c;
    let i = Vec.size t.learnts in
    if i = Array.length t.cla_act then begin
      let a = Array.make (max 16 (2 * i)) 0. in
      Array.blit t.cla_act 0 a 0 i;
      t.cla_act <- a
    end;
    t.cla_act.(i) <- 0.;
    c.(0) <- id;
    c.(1) <- learnt_info ~lbd ~slot:i;
    Vec.push t.learnts c;
    attach t c;
    cla_bump t c;
    unchecked_enqueue t (lit c 0) c

(* --- final conflict over assumptions (unsat core) ----------------------- *)

(* Core when the next assumption literal is already false: walk the
   implication graph from that literal back to assumption decisions.  With
   proof logging on, the reasons walked, in trail order, become the chain
   that certifies the core. *)
let analyze_final_lit t p =
  (* [p] is the trail literal contradicting the failed assumption [neg p];
     the core collects assumption literals as given by the caller. *)
  let core = ref [ p lxor 1 ] and chain = ref [] in
  let v = p lsr 1 in
  if t.level.(v) > 0 then begin
    set_seen t v true;
    let bottom = t.trail_lim.items.(0) in
    for i = t.trail.size - 1 downto bottom do
      let l = t.trail.items.(i) in
      let w = l lsr 1 in
      if seen t w then begin
        set_seen t w false;
        let r = t.reason.(w) in
        (* a decision here is an assumption, [p] itself included *)
        if r == dummy_clause then core := l :: !core
        else begin
          if Option.is_some t.proof then chain := trace_id r :: !chain;
          for k = 0 to size r - 1 do
            let u = lit r k lsr 1 in
            if u <> w && t.level.(u) > 0 then set_seen t u true
          done
        end
      end
    done;
    set_seen t v false
  end;
  t.core <- !core;
  t.chain <- !chain

(* --- learnt clause DB reduction ----------------------------------------- *)

let reduce_db t =
  (* Keep clauses with low LBD or high activity; drop the worst half. *)
  let act c = t.cla_act.(slot c) in
  Vec.sort
    (fun a b ->
      match Int.compare (lbd a) (lbd b) with
      | 0 -> Float.compare (act b) (act a)
      | c -> c)
    t.learnts;
  let n = Vec.size t.learnts in
  let keep = n / 2 in
  let locked c =
    (* A clause that is the reason of a current assignment must stay. *)
    let l = lit c 0 in
    value_lit t l = 1 && t.reason.(l lsr 1) == c
  in
  for i = keep to n - 1 do
    let c = Vec.get t.learnts i in
    if (not (locked c)) && lbd c > 2 then begin
      kill c;
      match t.proof with
      | Some p -> Proof.log_delete p c ~pos:hdr ~len:(size c) ~id:(trace_id c)
      | None -> ()
    end
  done;
  Vec.filter_in_place (fun c -> not (is_dead c)) t.learnts;
  (* The survivors' slots follow their new order in [learnts]. *)
  let acts = Array.make (Array.length t.cla_act) 0. in
  Vec.iteri
    (fun i c ->
      acts.(i) <- act c;
      set_slot c i)
    t.learnts;
  t.cla_act <- acts
(* dead clauses are skipped (and dropped) lazily by [propagate]'s rebuild;
   we additionally purge them from watch lists here to bound memory. *)

let purge_watches t =
  for l = 0 to (2 * t.nvars) - 1 do
    let ws = t.watches.(l) in
    let j = ref 0 in
    for i = 0 to t.watched.(l) - 1 do
      let c = ws.(i) in
      if not (is_dead c) then begin
        ws.(!j) <- c;
        incr j
      end
    done;
    shrink_watches t l !j
  done

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
      if unassigned t v then Some v else loop ()
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
           | Some p ->
             ignore (Proof.log_add p [||] ~pos:0 ~len:0 ~hints:[ trace_id confl ] : int)
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
          float_of_int (Vec.size t.learnts) -. float_of_int t.trail.size
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
            push t.trail_lim t.trail.size
          | -1 ->
            analyze_final_lit t (p lxor 1);
            raise (Found_result Unsat)
          | _ ->
            push t.trail_lim t.trail.size;
            unchecked_enqueue t p dummy_clause
        end
        else begin
          match pick_branch_var t with
          | None ->
            (* Complete assignment: SAT. *)
            (* The positive literal of [v] is true iff its [assigns] byte
               is 1. *)
            for v = 0 to t.nvars - 1 do
              Bytes.unsafe_set t.model v
                (if Bytes.unsafe_get t.assigns v = '\001' then '\001' else '\000')
            done;
            t.model_vars <- t.nvars;
            (match t.unsound with
             | Some (Flip_model_bit k) when t.nvars > 0 ->
               let v = abs k mod t.nvars in
               Bytes.set t.model v (if Bytes.get t.model v = '\001' then '\000' else '\001')
             | _ -> ());
            raise (Found_result Sat)
          | Some v ->
            t.n_decisions <- t.n_decisions + 1;
            let l = (v lsl 1) lor (if phase t v then 0 else 1) in
            push t.trail_lim t.trail.size;
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
   (* Every slot of a solver that never reused tables, allocated or not:
      a variable allocated later within that capacity starts in this
      phase. *)
   | Phase_false -> Bytes.fill t.polarity 0 (fresh_capacity t.nvars) '\000'
   | Phase_true -> Bytes.fill t.polarity 0 (fresh_capacity t.nvars) '\001'
   | Phase_inverted ->
     for v = 0 to t.nvars - 1 do
       set_polarity t v (not (phase t v))
     done
   | Phase_random ->
     for v = 0 to t.nvars - 1 do
       set_polarity t v (rand_bool t)
     done);
  (* Perturb the decision order: bump a seeded sample of variables so equal
     (or near-equal) activities break ties differently on this attempt. *)
  if seed <> None && t.nvars > 0 then
    for _ = 1 to 1 + (t.nvars / 8) do
      var_bump t (rand_int t t.nvars)
    done

let solve ?(assumptions = []) ?budget ?seed ?(polarity_mode = Phase_saved)
    ?var_decay t =
  live t;
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
    t.model_vars <- 0;
    t.core <- [];
    t.chain <- [];
    Unknown
  end
  else begin
    apply_diversification t ~seed ~polarity_mode ~var_decay;
    set_budget_limits t budget;
    t.assumptions <- Array.of_list assumptions;
    t.max_learnts <- max 1000. (float_of_int t.n_clauses *. 0.3);
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
      t.model_vars <- 0;
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
  live t;
  v < t.model_vars && Bytes.get t.model v = '\001'

let lit_value t l =
  let b = value t (l lsr 1) in
  if l land 1 = 1 then not b else b

let model t =
  live t;
  Array.init t.model_vars (fun v -> Bytes.get t.model v = '\001')

(* Clear what the search wrote to the tables, whether it finished or was
   cut short, and offer them to the next [create].  Entries past [nvars]
   were never written, but for the phases [Phase_true] set up to
   [fresh_capacity].  Each literal's watch array is dropped: kept, it
   would grow to the longest list any solver ever gave that literal.  The
   spare keeps the larger of two offers. *)
let release t =
  live t;
  t.released <- true;
  let n = t.nvars in
  Bytes.fill t.assigns 0 n '\000';
  Array.fill t.level 0 n 0;
  Array.fill t.reason 0 n dummy_clause;
  Array.fill t.activity 0 n 0.;
  Bytes.fill t.polarity 0 (fresh_capacity n) '\000';
  Bytes.fill t.seen 0 n '\000';
  for l = 0 to (2 * n) - 1 do
    t.watches.(l) <- no_watches;
    t.watched.(l) <- 0
  done;
  (* The heap adopts the activity table again, in case an exception cut
     [grow_vars] short between the two. *)
  Heap.set_scores t.order t.activity;
  Heap.clear t.order n;
  match Domain.DLS.get spare with
  | Some kept when Array.length kept.t_level >= Array.length t.level -> ()
  | _ ->
    Domain.DLS.set spare
      (Some
         { t_assigns = t.assigns; t_level = t.level; t_reason = t.reason;
           t_activity = t.activity; t_polarity = t.polarity; t_seen = t.seen;
           t_model = t.model; t_watches = t.watches; t_watched = t.watched;
           t_order = t.order })

let unsat_core t = t.core
let unsat_chain t = t.chain

let pp_stats ppf t =
  Fmt.pf ppf "vars=%d clauses=%d learnts=%d decisions=%d conflicts=%d props=%d restarts=%d"
    t.nvars t.n_clauses (Vec.size t.learnts) t.n_decisions t.n_conflicts
    t.n_propagations t.n_restarts
