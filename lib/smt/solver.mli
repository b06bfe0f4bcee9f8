(** Incremental SMT solver over the {!Term} language — the drop-in stand-in
    for the Z3 instance the paper drives through its Python API.

    Supports the features llhsc relies on (§IV, §VI): incremental addition of
    constraints to the same solver instance, named assertions with unsat-core
    extraction, push/pop scopes, model extraction, and finite expansion of
    universal quantifiers over enumeration sorts. *)

type t

(** Answer of {!check}.  On [Unsat], the core lists the names of the named
    assertions (see {!assert_named}) that participate in the conflict.
    [Unknown] means the solver's resource budget (see {!set_budget}) ran
    out before a verdict: the query is inconclusive, and no model or core
    is available. *)
type answer =
  | Sat
  | Unsat of string list
  | Unknown

exception Error of string

(** With [~certify:true] the solver certifies every {!check} answer as it is
    produced, with one check per verdict.  The underlying SAT solver
    records a DRUP-style proof trace with hints beside it (see
    {!Sat.Proof}), which an independent checker replays by unit
    resolution ({!Sat.Checker}).  A [Sat] model must then make every live
    assertion and the call's assumptions true under the reference
    interpreter ({!Interp}); an [Unsat] core must consist of assumption
    literals and reach a conflict through the solver's answer chain;
    [Unknown] answers are exempt.  Certification never changes an answer:
    failures accumulate in {!cert_report} for the caller to surface (the
    llhsc pipeline turns them into [error[CERT]] diagnostics). *)
val create : ?certify:bool -> unit -> t

val certifying : t -> bool

(** [release t] ends [t]'s life once its answers and reports have been
    read: the SAT tables it used go, cleared, to the next {!create} in the
    same domain (see {!Sat.Solver.release}).  Any later use of [t] that
    reaches the SAT solver raises [Invalid_argument]; {!cert_report} and
    {!retry_report} stay readable. *)
val release : t -> unit

(** [declare_enum t name universe] declares a finite sort.  Redeclaring with
    a different universe raises {!Error}; redeclaring identically is a
    no-op.  The universe must be non-empty and duplicate-free. *)
val declare_enum : t -> string -> string list -> unit

(** Universe of a declared enum sort. *)
val enum_universe : t -> string -> string list

(** Assert a boolean term at the current scope.  Sort errors raise {!Error}. *)
val assert_ : t -> Term.t -> unit

(** Assert a boolean term under a name; named assertions can appear in unsat
    cores.  Names must be unique among live assertions. *)
val assert_named : t -> string -> Term.t -> unit

(** Open a scope: assertions added after [push] are retracted by {!pop}. *)
val push : t -> unit

(** Close the innermost scope.  Raises {!Error} if no scope is open. *)
val pop : t -> unit

(** Current scope depth. *)
val num_scopes : t -> int

(** Decide satisfiability of all live assertions, plus optional extra
    assumptions for this call only, under the solver's budget (see
    {!set_budget}) and escalation policy (see {!set_escalation}).  With a
    retry policy in force, an [Unknown] first attempt is re-run up the
    ladder — scaled budget, diversified restart — until a rung concludes
    or the ladder is exhausted; every attempt is recorded (see
    {!retry_report}), and certification applies to whichever attempt
    produced the final answer. *)
val check : ?assumptions:Term.t list -> t -> answer

(** Install a resource budget applied to every subsequent {!check};
    [None] removes it.  With a budget in place, long-running queries
    degrade to [Unknown] instead of hanging. *)
val set_budget : t -> Sat.Solver.budget option -> unit

(** Install a retry-with-escalation policy applied to every subsequent
    {!check}; [None] removes it. *)
val set_escalation : t -> Escalation.t option -> unit

(** {1 Quantifier expansion over finite sorts} *)

(** [forall_enum t ~sort f] is the conjunction of [f c] for every constant
    [c] of the declared enum [sort]. *)
val forall_enum : t -> sort:string -> (Term.t -> Term.t) -> Term.t

(** [exists_enum t ~sort f] is the disjunction over the sort's constants. *)
val exists_enum : t -> sort:string -> (Term.t -> Term.t) -> Term.t

(** {1 Models}

    Valid after a [Sat] answer, until the next [check]/[assert_]. *)

(** Evaluate any term under the current model.  Raises {!Error} if the last
    answer was not [Sat] or the term is ill-sorted. *)
val model_eval : t -> Term.t -> Interp.value

val get_bool : t -> Term.t -> bool
val get_bv : t -> Term.t -> int64
val get_enum : t -> Term.t -> string

(** {1 Introspection} *)

(** The live assertions, oldest first; named ones carry their name. *)
val assertions : t -> (string option * Term.t) list

(** SMT-LIB2-flavoured dump of the live assertion set (declarations
    synthesised from the terms; enum sorts listed as comments). *)
val pp_smtlib : Format.formatter -> t -> unit

(** Statistics of the underlying SAT solver. *)
val pp_stats : Format.formatter -> t -> unit

(** {1 Certification} *)

(** Stats for one certified query. *)
type cert = {
  query : int; (** 0-based index of the {!check} call *)
  verdict : [ `Sat | `Unsat ];
  steps : int; (** certificate trace length when the query was certified *)
  time : float; (** seconds spent checking this query's certificate *)
  ok : bool;
}

type cert_report = {
  enabled : bool;
  certs : cert list; (** oldest first; [Unknown] answers never appear *)
  failures : string list; (** oldest first; empty iff every verdict certified *)
}

(** Certification results accumulated so far.  [{enabled = false; _}] when
    the solver was created without [~certify:true]. *)
val cert_report : t -> cert_report

(** {1 Retry ladder statistics} *)

(** One solve attempt of one query, as recorded when a retry policy is in
    force. *)
type attempt = {
  attempt : int; (** 1-based; attempt 1 is the original budgeted call *)
  scale : int; (** budget multiplier this attempt ran under *)
  seed : int option;
  polarity : Sat.Solver.polarity_mode;
  result : [ `Sat | `Unsat | `Unknown ];
  conflicts : int; (** conflicts spent during this attempt *)
  time : float; (** seconds spent in this attempt *)
}

type retry_entry = {
  rquery : int; (** 0-based index of the {!check} call *)
  attempts : attempt list; (** oldest first; length >= 2 *)
  recovered : bool; (** a retry turned [Unknown] into a verdict *)
}

type retry_report = {
  retry_enabled : bool; (** a retry policy was in force for some check *)
  total_queries : int;
  retried : retry_entry list;
      (** oldest first; queries that concluded on attempt 1 are omitted *)
}

(** Escalation statistics accumulated so far: every query that needed more
    than one attempt, with its full per-attempt log. *)
val retry_report : t -> retry_report

(** Test-only: corrupt the underlying SAT solver (see
    {!Sat.Solver.inject_unsoundness}) so certification tests can
    demonstrate that wrong verdicts are caught. *)
val inject_unsoundness : t -> Sat.Solver.unsound_mutation -> unit
