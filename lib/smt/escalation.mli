(** Retry-with-escalation policies for inconclusive solver queries.

    A budgeted {!Solver.check} that runs out of resources answers [Unknown]
    — a dead end for the caller.  An escalation ladder turns that dead end
    into a retry discipline: the query is re-run up the ladder, each rung
    with a larger resource budget and a diversified restart (fresh seed,
    different initial phases, different VSIDS decay), until a rung concludes
    or the ladder is exhausted.  Every rung is deterministic, so a recovered
    verdict is reproducible — and the certification machinery observes
    whichever attempt concludes, exactly as it would a first-try verdict. *)

(** One rung of the ladder: how to re-run the query after an [Unknown]. *)
type step = {
  scale : int;
      (** multiply every counter of the base budget (and the time limit) by
          this factor; the base budget is the one the original attempt ran
          under *)
  seed : int;  (** deterministic diversification seed for this rung *)
  polarity : Sat.Solver.polarity_mode;  (** initial phases for this rung *)
  var_decay : float option;
      (** EVSIDS decay override for this rung ([None] = solver default) *)
}

(** A policy is the list of retry rungs, in escalation order.  The original
    attempt is not part of the list: a policy with [n] steps allows up to
    [n + 1] attempts in total. *)
type t = { steps : step list }

(** No retries: every [Unknown] is final. *)
val none : t

(** The default ladder — two retries at budget × 4 (inverted phases) and
    budget × 16 (seeded random phases, slower decay), i.e. 3 attempts with
    budget × {1, 4, 16}. *)
val default : t

(** [ladder ~attempts ()] builds a policy allowing [attempts] total
    attempts (so [attempts - 1] retries), with budgets scaled by 4^(rung)
    and deterministically varied seeds/polarities/decays per rung.
    [attempts <= 1] yields {!none}; [ladder ~attempts:3 ()] is
    {!default}. *)
val ladder : attempts:int -> unit -> t

(** Scale a base budget by a rung's factor (saturating); [None] — an
    unlimited budget — stays unlimited. *)
val scale_budget :
  Sat.Solver.budget option -> int -> Sat.Solver.budget option

val pp_polarity : Format.formatter -> Sat.Solver.polarity_mode -> unit
val pp_step : Format.formatter -> step -> unit
