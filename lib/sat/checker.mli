(** Independent certificate checker: hinted replay by unit resolution.

    Replays a {!Proof} trace from the hints the solver logged beside it,
    reading clause literals from the trace itself.  Each level-0 unit is
    re-derived from the clause it names.  Each learnt-clause [Add] must be
    implied by its antecedents: assuming the clause's negation and
    resolving the cited live clauses in order, each unit or false, must
    reach a false clause, or the step is rejected and the clause withheld,
    so a corrupted trace cannot bootstrap later steps.  [Delete] retires
    the learnt clause whose id it names.  A hinted accept is one run of
    unit propagation, so it implies a RUP accept of the same step.

    Verdicts are then validated against the replayed clauses:
    {!check_conflict} for Unsat (the assumptions and the solver's answer
    chain must reach a conflict; a refutation is carried by the trace) and
    {!check_model} for Sat (every input clause satisfied), used where the
    clauses are the input, as in [llhsc sat]; the SMT layer checks its
    models on their terms instead.

    The incremental interface ({!create}/{!replay}/...) lets a long-lived
    solver certify many queries without re-replaying the whole trace; the
    one-shot {!check_proof}/{!check_sat_model} wrap it for single solves. *)

type t

val create : Proof.t -> t
(** A checker of [proof], which may keep growing. *)

val replay : t -> string list
(** Verify every step and level-0 unit logged since the last call.  Returns
    one message per rejected step or unit, oldest first; empty when all
    verified.  The checker remains usable (a rejected clause is simply not
    admitted). *)

val check_conflict : t -> Lit.t list -> int list -> (unit, string) result
(** [check_conflict t assumptions chain] validates an Unsat verdict
    obtained under [assumptions] (empty for a refutation) with the
    solver's {!Solver.unsat_chain}.  Call it after {!replay}; the checker's
    state is restored afterwards, so further queries may follow. *)

val check_model : t -> (Lit.t -> bool) -> (unit, string) result
(** [check_model t valuation] validates a Sat verdict: every input clause
    replayed so far must contain a literal the valuation makes true. *)

(** One-shot wrappers; on success both return the trace length. *)

val check_proof :
  ?assumptions:Lit.t list -> ?chain:int list -> Proof.t -> (int, string) result

val check_sat_model : Proof.t -> (Lit.t -> bool) -> (int, string) result
