(** Certificate traces (DRUP-style, with LRAT-style hints beside them)
    recorded by the solver when proof logging is enabled, and replayed by
    the independent {!Checker}.

    A trace interleaves the original formula ([Input] steps, logged verbatim
    before solver-side simplification) with learnt-clause additions ([Add],
    each required to be RUP w.r.t. the earlier live clauses) and learnt
    clause deletions ([Delete]).  A refutation found by search ends with
    [Add [||]]; Unsat-under-assumptions verdicts carry no empty clause and
    are instead checked by {!Checker.check_conflict} with the assumption
    literals and the solver's answer chain.

    A clause's {e id} is the index of its [Input] or [Add] step.  Beside
    the steps the trace holds hints in those ids, which the checker
    replays instead of searching: the antecedents of every [Add], the id
    every [Delete] retires, and the reason of every level-0 assignment. *)

type step =
  | Input of Lit.t array
  | Add of Lit.t array
  | Delete of Lit.t array

(** The hints of one [Add] or [Delete] step. *)
type hints = {
  after_units : int;
      (** level-0 units logged before this step: the checker replays
          units [0 .. after_units - 1] first *)
  ids : int array;
      (** for an [Add], clause ids that, resolved in order from the
          clause's negation, each become unit or false, the last one false;
          for a [Delete], the one id it retires *)
}

type t
(** Flat and append-only: the literals of every step in one int arena,
    one int per step (its start there and its kind), the hint ids in a
    second arena. *)

val create : unit -> t

val log_input : t -> Lit.t array -> pos:int -> len:int -> int
(** [log_input t a ~pos ~len] records the original clause
    [a.(pos) .. a.(pos + len - 1)] and returns its id.  The literals are
    copied. *)

val log_add : t -> Lit.t array -> pos:int -> len:int -> hints:int list -> int
(** Record a learnt clause, given as for {!log_input}, with its antecedent
    ids, and return its id.  The literals are copied. *)

val log_delete : t -> Lit.t array -> pos:int -> len:int -> id:int -> unit
(** Record the deletion of learnt clause [id], whose literals are given as
    for {!log_input}, for the DRUP text.  The literals are copied. *)

val log_unit : t -> int -> unit
(** Record a level-0 assignment by clause [id]: every literal of that
    clause but one is false at level 0.  When every literal is false, the
    entry records a refutation. *)

val length : t -> int
(** Number of steps; hints do not count. *)

val n_units : t -> int
(** Number of level-0 units logged. *)

val unit_reason : t -> int -> int
(** [unit_reason t k] is the clause id behind the [k]th level-0 unit. *)

(** {2 In-place reads}

    What {!Checker} reads: no call allocates. *)

val kind : t -> int -> [ `Input | `Add | `Delete ]
(** The kind of step [i]. *)

val first : t -> int -> int
(** Where the literals of step [i] start in the trace's literal arena. *)

val stop : t -> int -> int
(** Where they end: step [i] holds [lit t (first t i)] up to
    [lit t (stop t i - 1)]. *)

val lit : t -> int -> Lit.t
(** [lit t k] is the literal at offset [k] of the literal arena. *)

val after_units : t -> int -> int
(** [after_units t j] is the number of level-0 units logged before the
    [j]th [Add] or [Delete] step: the checker replays units
    [0 .. after_units t j - 1] first. *)

val n_hints : t -> int -> int
(** The number of hint ids of the [j]th [Add] or [Delete] step. *)

val hint : t -> int -> int -> int
(** [hint t j k] is hint id [k] of the [j]th [Add] or [Delete] step: for
    an [Add], clause ids that, resolved in order from the clause's
    negation, each become unit or false, the last one false; for a
    [Delete], the one id it retires. *)

(** {2 Allocating accessors}

    Each builds its result from the arenas, for the DRUP text and tests. *)

val step : t -> int -> step
val iter : (step -> unit) -> t -> unit

val hints : t -> int -> hints
(** [hints t j] are the hints of the [j]th [Add] or [Delete] step. *)

val n_inputs : t -> int
(** Number of [Input] steps in the trace. *)

val pp_drup : Format.formatter -> t -> unit
(** Print the trace in DRUP-flavoured text: additions bare, deletions with
    a [d] prefix, inputs as [c i] comment lines. *)
