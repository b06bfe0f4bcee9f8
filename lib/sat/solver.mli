(** Conflict-driven clause-learning (CDCL) SAT solver.

    A from-scratch MiniSat-style solver: two-watched-literal propagation,
    first-UIP clause learning, EVSIDS decision heuristic with phase saving,
    Luby restarts, and activity/LBD-driven deletion of learnt clauses.  It
    supports incremental solving under assumptions and extraction of an
    unsatisfiable core over those assumptions, which is what the SMT layer
    builds its push/pop discipline and explanations on. *)

type t

(** Result of a [solve] call. *)
type result =
  | Sat     (** a model is available via {!value} / {!model} *)
  | Unsat   (** an assumption core is available via {!unsat_core} *)
  | Unknown
      (** the resource {!budget} was exhausted before a verdict; no model
          and no core are available (both are scrubbed — see {!model} and
          {!unsat_core}) *)

(** Resource limits for a single [solve] call.  Counters are relative to
    the call (not the solver's lifetime totals); [time_limit] is a
    wall-clock deadline in seconds.  A field left [None] is unlimited. *)
type budget = {
  max_conflicts : int option;
  max_decisions : int option;
  max_propagations : int option;
  time_limit : float option;
}

(** Budget constructor; omitted fields are unlimited. *)
val budget :
  ?max_conflicts:int ->
  ?max_decisions:int ->
  ?max_propagations:int ->
  ?time_limit:float ->
  unit ->
  budget

(** A solver with no variable and no clause.  It takes the tables of the
    last solver {!release}d in this domain, if any, so it does not regrow
    them; either way it starts from the same state. *)
val create : unit -> t

(** [release t] ends [t]'s life: it clears the per-variable tables [t]
    used and hands them to the next {!create} in the same domain.  It
    works whether [t]'s last call returned or was cut short by an
    exception.  A released solver raises [Invalid_argument] when it is
    used again; {!num_vars}, {!num_clauses}, {!num_conflicts},
    {!pp_stats}, {!proof}, {!unsat_core} and {!unsat_chain} stay
    readable. *)
val release : t -> unit

(** [new_var t] allocates a fresh variable and returns it (0-based). *)
val new_var : t -> int

(** Number of variables allocated so far. *)
val num_vars : t -> int

(** Number of problem (non-learnt) clauses currently held. *)
val num_clauses : t -> int

(** Number of conflicts encountered since creation (a work measure). *)
val num_conflicts : t -> int

(** The current decision level: 0 whenever no call is running, above 0
    only inside a search (or in a solver whose search an exception cut
    short). *)
val decision_level : t -> int

(** [add_clause t lits] adds a clause over literals built with {!Lit}.
    Returns [false] iff the clause system became trivially unsatisfiable
    (at decision level 0).  Variables must have been allocated: a literal
    of any other variable raises [Invalid_argument], and the clause is
    neither logged nor added. *)
val add_clause : t -> Lit.t list -> bool

(** Initial phase policy for one [solve] call — the polarity each variable
    is first tried with.  [Phase_saved] (the default) keeps the phases saved
    by earlier search; the other modes diversify a restarted attempt so it
    explores a different part of the tree. *)
type polarity_mode =
  | Phase_saved     (** phase saving: keep polarities from earlier search *)
  | Phase_false     (** reset every phase to [false] *)
  | Phase_true      (** reset every phase to [true] *)
  | Phase_inverted  (** flip every saved phase *)
  | Phase_random    (** seeded random phase per variable *)

(** [solve ?assumptions ?budget ?seed ?polarity_mode ?var_decay t] decides
    satisfiability of the current clause set under the given assumption
    literals.  With a [budget], the search is abandoned once any cap is hit
    and [Unknown] is returned; the solver remains usable (all learnt clauses
    are kept, and a later call — e.g. the next rung of an escalation ladder —
    can complete the search).

    The remaining parameters are deterministic restart diversification for
    such retries: [seed] (re)seeds the solver's internal PRNG and perturbs
    decision tie-breaking, [polarity_mode] sets the initial phases, and
    [var_decay] overrides the EVSIDS decay factor (must be in (0,1); default
    0.95, restored on every call).  None of them affect soundness — the same
    certificate machinery observes every attempt.

    An assumption over a variable that was never allocated raises
    [Invalid_argument]. *)
val solve :
  ?assumptions:Lit.t list ->
  ?budget:budget ->
  ?seed:int ->
  ?polarity_mode:polarity_mode ->
  ?var_decay:float ->
  t ->
  result

(** Value of a variable in the most recent [Sat] model.  After an
    [Unknown] answer there is no model and this returns [false]. *)
val value : t -> int -> bool

(** Value of a literal in the most recent [Sat] model. *)
val lit_value : t -> Lit.t -> bool

(** The most recent model as a fresh array indexed by variable.  The
    solver itself keeps its models in one byte buffer that each [Sat]
    answer overwrites. *)
val model : t -> bool array

(** Subset of the assumptions sufficient for the last [Unsat] answer,
    in no particular order.  After an [Unknown] answer the core is empty:
    a budget-exhausted call never exposes a stale core from a previous
    [solve]. *)
val unsat_core : t -> Lit.t list

(** The certificate of the last [Unsat] answer's core: ids of trace
    clauses that, resolved in order after assuming the core, each become
    unit or false, the last one false (see {!Checker.check_conflict}).
    Empty when proof logging is off, when the failed assumption is false
    at level 0, and when the clause set itself is refuted (the trace then
    carries the refutation). *)
val unsat_chain : t -> int list

(** [set_polarity t v b] sets the initial phase of variable [v]. *)
val set_polarity : t -> int -> bool -> unit

(** {2 Certification}

    With proof logging enabled, the solver records a {!Proof} trace —
    original clauses, learnt clauses (each RUP w.r.t. the clauses before
    it) and learnt-clause deletions; a refutation found by search ends the
    trace with the empty clause.  Beside the steps it logs hints: every
    stored clause carries the id of its step, so each learnt clause lists
    the antecedents conflict analysis resolved, each deletion the id it
    retires, and each level-0 assignment the clause that forced it.  The
    trace can be replayed by the independent {!Checker} to certify
    verdicts. *)

(** Start recording a certificate trace.  Must be called on a fresh
    solver; raises [Invalid_argument] if any clause was already added. *)
val enable_proof : t -> unit

(** The trace recorded so far, or [None] if logging is not enabled.  The
    trace accumulates across [solve] calls (clauses are never retracted),
    so incremental use replays a single growing certificate. *)
val proof : t -> Proof.t option

(** Test-only corruption of the solver, used by the certification tests
    and the fault harness to demonstrate that a wrong verdict or a wrong
    trace is caught by the checker rather than reported as clean.  Each
    mutation fires on every [n]th opportunity. *)
type unsound_mutation =
  | Drop_learnt_literal of int
      (** strengthen every [n]th learnt clause (>= 3 literals) by dropping
          a literal, corrupting both the clause database and the trace *)
  | Flip_model_bit of int
      (** flip variable [n mod num_vars] in every reported model *)
  | Mute_proof_step of int
      (** omit every [n]th learnt clause from the trace *)
  | Force_unknown of int
      (** report every [n]th [solve] call as [Unknown] without searching —
          a spurious resource exhaustion, used to exercise retry ladders
          and graceful degradation (not an unsoundness: [Unknown] claims
          nothing) *)

(** Decode ["KIND:N"] — [drop-lit], [flip-model], [mute-proof] or
    [force-unknown] with a period [N > 0] — the one decoder of the
    [--unsound] flag, whether it comes from the command line or from a
    fleet spec.  Raises [Failure] on anything else. *)
val unsound_of_string : string -> unsound_mutation

val inject_unsoundness : t -> unsound_mutation -> unit

(** Pretty-print solver statistics (decisions, conflicts, propagations). *)
val pp_stats : Format.formatter -> t -> unit
