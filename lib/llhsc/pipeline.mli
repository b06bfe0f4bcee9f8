(** The end-to-end llhsc workflow (Fig. 2): allocation, delta application
    per product, then a check phase sliced into independent tasks (chunks
    of syntactic obligations + one semantic task per product), each
    starting from a fresh solver's state, optionally sharded across
    forked workers ([?jobs]); the cross-VM partition check runs in the
    parent after the merge barrier. *)

type product = {
  name : string;           (** "vm1", ..., "platform" *)
  features : string list;
  tree : Devicetree.Tree.t;
  findings : Report.finding list;
}

type outcome = {
  products : product list;
  alloc_findings : Report.finding list;
  partition_findings : Report.finding list; (** cross-VM checks *)
  delta_orders : (string * string list) list; (** product -> application order *)
  errors : Diag.t list;
      (** Per-phase failures (bad product, broken schema, ...) that were
          isolated so the rest of the run could proceed; empty on a fully
          healthy run. *)
  cert : Smt.Solver.cert_report option;
      (** [Some] iff the run was certified ([~certify:true]): per-query
          certificate stats plus any certification failures.  A failure
          means a solver verdict could not be independently validated and
          the run is not [ok]. *)
  retry : Smt.Solver.retry_report option;
      (** [Some] iff a retry policy was in force ([?retry]): per-query
          escalation attempt logs for every query that needed more than
          one attempt. *)
  replayed : string list;
      (** Product names (plus ["partition"]) whose verdicts were replayed
          from the resume journal instead of re-checked; empty on a
          non-resumed run. *)
  journal_fault : string option;
      (** [Some reason] when a journal write/fsync failed mid-run: the
          run carried on unjournaled (fail-operational) and the report
          carries a [warning[JOURNAL]].  Deliberately not part of
          {!ok}/the exit code — checking itself still concluded. *)
}

(** All checks clean (warnings allowed), no isolated phase errors, and —
    when certifying — every verdict certified? *)
val ok : outcome -> bool

(** [run ?exclusive ?budget ~model ~core ~deltas ~schemas_for ~vm_requests ()].
    [vm_requests] lists each VM's (possibly partial) feature selection; the
    alloc checker completes them, and the platform product is the union of
    the completed VM products.  [schemas_for] supplies the binding schemas
    for a generated tree (letting stride-dependent rules follow the tree's
    cell context).

    [budget] bounds every solver query of the run (see
    [Sat.Solver.budget]); exhausted queries surface as "inconclusive"
    warnings rather than hanging.  An error in one phase (e.g. one corrupt
    product) is converted to a diagnostic in [outcome.errors] and the
    remaining products are still checked.

    [certify] certifies every solver verdict of the run against the
    independent proof/model checker (see [Smt.Solver.create]); results land
    in [outcome.cert], and any failure makes the outcome not [ok]
    ([Unknown] verdicts are exempt).

    [retry] installs a retry-with-escalation ladder (see
    [Smt.Escalation]): queries whose budget runs out are re-run with
    scaled budgets and diversified restarts before degrading to an
    "inconclusive" warning; every attempt is logged in [outcome.retry],
    and certification applies to whichever attempt concludes.

    [journal] makes the run crash-safe: one fsync'd JSONL record per
    completed product (content hash + findings + certification status).
    A checked product is recorded the moment its last task returns, in
    the order the runner finishes them; a product with no solver work (a
    delta failure) right after planning; the partition check after the
    merge barrier.  A killed run so loses at most the products whose
    tasks were still running.  [resume] replays a previously loaded journal (see [Journal.load]):
    products whose content hash matches a trusted entry are skipped —
    findings replayed verbatim — and stale or untrusted entries are
    re-checked.  [inputs_hash] identifies the run's inputs and
    verdict-affecting flags (the CLI passes the digest of its run spec,
    [Fleet.Spec.hash]) and is threaded into every record's content
    hash.

    [unsound] is test-only fault injection forwarded to the underlying
    SAT solver (see [Sat.Solver.inject_unsoundness]); the
    [Force_unknown] mutation exercises escalation and degradation paths
    without unsoundness.  With per-task solvers the injection period is
    counted per task, identically at every job count.

    [jobs] (default 1) dispatches the check-phase tasks across a
    supervised pool of that many forked worker processes
    (see {!Shard.run_tasks}); [jobs <= 0] auto-detects the number of
    online CPU cores.  The rendered report is byte-identical for every
    job count — including certifying and retrying runs — because task
    slicing, solver instantiation and merge order never depend on
    [jobs].  Only the parent writes the journal, and replay is decided
    before sharding, so [jobs] composes with [journal]/[resume] (a
    journal written at one job count resumes at any other).

    The pool is self-healing: a crashed worker's in-flight task is
    reassigned to a replacement worker (bounded by [max_respawns],
    default 8); a task whose lease outlives [task_deadline] seconds has
    its worker SIGKILLed and is reassigned; a task that crashes two
    workers is quarantined and retried once in-process.  Only a task
    that fails every avenue degrades its product to an isolated
    [WORKER] diagnostic in [outcome.errors].  [mem_limit] (MiB) and
    [cpu_limit] (seconds) install per-worker [RLIMIT_AS]/[RLIMIT_CPU]
    guards; a tripped guard degrades that task to an [error[RESOURCE]]
    diagnostic instead of killing the checker.  None of the supervision
    knobs affect verdicts or report bytes.

    [runner] replaces the local task pool with a caller-supplied
    executor (the fleet dispatcher): it receives the names of the
    products replayed from the journal (so remote workers can rebuild
    the identical task array via {!plan_tasks}[ ~skip]), a [fresh]
    callback and the task array.  It must pass each task's result to
    [fresh] once, as it arrives, and return one result per index ([None]
    for tasks that failed every avenue).  When present, [jobs]/[task_deadline]/
    [max_respawns]/[mem_limit]/[cpu_limit] are ignored; merge, journal
    and partition check behave identically either way. *)
val run :
  ?exclusive:string list ->
  ?budget:Sat.Solver.budget ->
  ?certify:bool ->
  ?retry:Smt.Escalation.t ->
  ?unsound:Sat.Solver.unsound_mutation ->
  ?inputs_hash:string ->
  ?journal:Journal.sink ->
  ?resume:Journal.entry list ->
  ?jobs:int ->
  ?task_deadline:float ->
  ?max_respawns:int ->
  ?mem_limit:int ->
  ?cpu_limit:int ->
  ?runner:
    (skip:string list ->
    fresh:(int -> Shard.result -> unit) ->
    Shard.task array ->
    Shard.result option array) ->
  model:Featuremodel.Model.t ->
  core:Devicetree.Tree.t ->
  deltas:Delta.Lang.t list ->
  schemas_for:(Devicetree.Tree.t -> Schema.Binding.t list) ->
  vm_requests:string list list ->
  unit ->
  outcome

(** Rebuild the check-phase task array from raw inputs, exactly as [run]
    would plan it.  This is the fleet worker's half of the distributed
    contract: the dispatcher plans with its journal and ships the inputs
    plus [skip] (the names of the products it replayed); a worker calling
    [plan_tasks] with the same inputs and [skip] obtains an array whose
    index [i] runs the very closure the dispatcher's own pool would have
    run — same solver construction, same obligation slicing, same query
    numbering.  Planning diagnostics are discarded here (the dispatcher
    reports them); allocation rejection yields [[||]]. *)
val plan_tasks :
  ?exclusive:string list ->
  ?budget:Sat.Solver.budget ->
  ?certify:bool ->
  ?retry:Smt.Escalation.t ->
  ?unsound:Sat.Solver.unsound_mutation ->
  ?skip:string list ->
  model:Featuremodel.Model.t ->
  core:Devicetree.Tree.t ->
  deltas:Delta.Lang.t list ->
  schemas_for:(Devicetree.Tree.t -> Schema.Binding.t list) ->
  vm_requests:string list list ->
  unit ->
  Shard.task array

(** {1 Run flags}

    The one decoder of each verdict-affecting solver flag, shared by the
    CLI and by fleet workers replanning a shipped spec (a bad value
    arriving over the wire is rejected there too).  A bad value raises
    [Failure]; [--unsound] is {!Sat.Solver.unsound_of_string}. *)

(** [--max-conflicts]/[--timeout]: [None] when neither is given. *)
val budget_of :
  max_conflicts:int option -> timeout:float option -> Sat.Solver.budget option

(** [--retry N]: an escalation ladder of [N >= 2] attempts. *)
val retry_of : int option -> Smt.Escalation.t option

val pp_outcome : Format.formatter -> outcome -> unit
