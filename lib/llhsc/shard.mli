(** Sharded execution of the pipeline's per-product check phase, and the
    one supervised worker transport that runs it.

    The pipeline slices each product's checking work into independent
    tasks (chunks of syntactic obligations, one semantic task per
    product), each of which runs on a {e fresh} solver instance and
    produces a {!result}.  [run_tasks] executes the task list either
    in-process ([jobs <= 1]) or on up to [jobs] forked worker processes;
    because every task owns its solver, the per-task results — findings,
    certificate stats, retry logs, isolated diagnostics — are identical
    either way, and the pipeline's canonical-order merge makes the
    rendered report byte-identical across job counts {e and} across
    worker crash/reassignment schedules.

    {b One transport.}  Workers are reached over a stream socket
    speaking {!Frame} messages: [{"task":i}] leases task [i];
    the worker answers [{"hb":{"task":i,"spec":h}}] (the lease clock
    restarts) and then [{"result":{"task":i,"spec":h,"r":R}}];
    [{"retire":true}] ends it.  {!supervise} is the one supervisor loop
    and {!serve} the one worker task loop.  [run_tasks] forks children
    over a [socketpair] (no handshake: a child inherits the task array);
    the fleet ([Fleet.Dispatch]/[Fleet.Worker]) runs the same two loops
    over TCP after its authenticated handshake.

    The supervisor is self-healing rather than deal-once:

    - {b Leases and deadlines.}  One task per worker at a time.  A lease
      that outlives [deadline] seconds marks the worker hung and its
      connection is dropped.
    - {b One remedy.}  Every fault — death, hang, a corrupt or forged
      frame, an invalid result, a result for a task the worker was not
      leased — drops the connection.  Its lease goes back on the queue;
      a task that has crashed {e two} workers is quarantined as a poison
      task and retried once in-process after the loop ends; only if
      that retry also dies does the task stay [None] (degraded to
      [error[WORKER]] by the merge).  A duplicate result is ignored with
      a notice: the first valid result wins.
    - {b Replacement.}  The local pool SIGKILLs and reaps the child
      behind a dropped connection and forks a replacement (bounded by
      [max_respawns], exponential backoff).
    - {b Resource guards.}  Workers install [RLIMIT_AS] / [RLIMIT_CPU]
      from [mem_limit] (MiB) / [cpu_limit] (seconds); a tripped guard
      surfaces as [Out_of_memory] or {!Diag.Resource_limit} and degrades
      to a per-task [error[RESOURCE]] diagnostic instead of killing the
      checker.

    Workers never touch the journal.  The supervisor hands each task's
    winning result to a [fresh] callback as it arrives, so the pipeline,
    the one journal writer, can record a product the moment its last
    task returns.

    The six worker kinds of the [LLHSC_FAULT] schedule ({!Fault}) fire
    only in {!serve} (in-process runs never consult them), at the leased
    task index [n]: [kill-worker@n] (SIGKILL self), [hang-worker@n]
    (hang forever after the heartbeat), [oom-worker@n] (allocate until
    the memory guard trips; only with [mem_limit]), [drop-conn-worker@n]
    (drop the connection after the heartbeat, once per process),
    [delay-result-worker@n] (sleep 2 s before sending the result) and
    [dup-result-worker@n] (send the result twice).  A forked child
    treats a dropped connection as its own death; a fleet worker
    reconnects. *)

(** Everything one task produced.  Query indices in [certs],
    [cert_failures] and [retried] are local to the task's solver (0-based
    from the task's first [check]); the merge renumbers them into the
    run-wide canonical sequence with {!renumber}. *)
type result = {
  product : string;  (** owning product, e.g. ["vm1"] *)
  findings : Report.finding list;
  errors : Diag.t list;
      (** isolated failures inside the task (already prefixed with the
          product name); non-empty means the product's check is incomplete *)
  queries : int;  (** solver [check] calls the task made *)
  certs : Smt.Solver.cert list;
  cert_failures : string list;
  retried : Smt.Solver.retry_entry list;
}

(** One unit of checking work.  [owner] is the product name, used for
    supervision notices and for synthesizing a degraded result when the
    task's own isolation is bypassed by a resource guard. *)
type task = { owner : string; run : unit -> result }

(** Shift every query index (including the ["query N: ..."] prefixes of
    [cert_failures]) by [offset]. *)
val renumber : offset:int -> result -> result

(** Run one task under the worker-side isolation guard: a known
    exception ([Diag.of_exn]) degrades to a result whose [errors] carry
    the diagnostic (prefixed with the owning product), unknown
    exceptions propagate.  This is THE task-execution function — {!serve}
    and the supervisor's in-process sweep both run tasks through it,
    which is what keeps a task's result independent of where it ran. *)
val run_task_guarded : task -> result

(** Install the worker-side [RLIMIT_AS] ([mem_limit], MiB) /
    [RLIMIT_CPU] ([cpu_limit], seconds) resource guards in the calling
    process.  A forked child installs them after the fork; a fleet
    worker installs them once at startup. *)
val install_guards : mem_limit:int option -> cpu_limit:int option -> unit

val result_to_json : result -> Json.t

(** [None] on a structurally invalid encoding. *)
val result_of_json : Json.t -> result option

(** Number of online CPU cores (via [sysconf(_SC_NPROCESSORS_ONLN)]),
    at least 1.  [--jobs 0] resolves through this. *)
val online_cpus : unit -> int

(** {1 The transport} *)

(** One framed connection, from either end. *)
type conn

(** [conn ?peer fd] wraps a connected stream socket.  [peer] names it in
    notices. *)
val conn : ?peer:string -> Unix.file_descr -> conn

val peer : conn -> string

(** From now on, seal every outgoing and unseal every incoming frame
    with this session key ({!Frame.seal}). *)
val set_key : conn -> string -> unit

(** A protocol violation seen by a worker: corrupt, forged or
    unparsable frame, unknown message, task index out of range. *)
exception Protocol of string

(** Raised by {!serve} when [drop-conn-worker@n] fires. *)
exception Dropped

(** Worker side: blocking write of one message. *)
val send : conn -> Json.t -> unit

(** Worker side: blocking read of the next message, [None] at EOF.
    Raises {!Protocol}. *)
val recv : conn -> Json.t option

(** The worker task loop: run every leased task of [tasks] through
    {!run_task_guarded}, heartbeat and result stamped with [spec], until
    [`Retired] or the supervisor closes the connection ([`Closed]).
    [mem_limit] gates the OOM fault hook.  Raises {!Protocol},
    {!Dropped}, and [Unix_error] on a failed write. *)
val serve :
  spec:string -> mem_limit:int option -> task array -> conn -> [ `Retired | `Closed ]

(** Supervisor side: the live connections of a running {!supervise}. *)
type pool

val live : pool -> int

(** [add pool ~peer fd] joins a connected socket to the pool (made
    nonblocking, then put through [admit]). *)
val add : pool -> peer:string -> Unix.file_descr -> conn

(** Queue one message (JSON text) and write what the socket takes now.
    A write error drops the connection. *)
val post : conn -> string -> unit

(** Drop the connection: close it now; at the end of the loop round its
    lease is reassigned (the notice says the worker [why]) and it is
    handed to [replace].  A connection dropped before {!ready} holds no
    lease; it gets a [worker <peer> dropped during handshake: <why>]
    notice instead, unless [why] is {!auth_failure}. *)
val drop : conn -> string -> unit

(** The [why] of a connection refused for failing authentication.  Its
    [notice[AUTH]] line, printed by whoever refused it, is its only
    notice. *)
val auth_failure : string

(** The handshake is complete: the connection may now hold leases. *)
val ready : conn -> unit

(** The one supervisor loop.  Leases the pending tasks of [st] to the
    connections in the pool until every task is resolved or quarantined,
    or [replace] says no worker can come; then retires the surviving
    workers and runs every unresolved task in-process.  Returns
    {!Supervise.results}[ st].

    The transports differ in three places only:
    - [deadline]: the lease, in seconds; no deadline when omitted.
    - [replace pool lost] runs at the start of every round while work
      is left, with the connections dropped since the last one
      (initially none); it may {!add} workers, and returns [false] when
      the loop should give up and finish in-process.
    - [admit c] runs on every new connection: [None] admits it at once,
      [Some shake] routes its messages to [shake] until {!ready}.

    [fresh i r] runs once for each task's winning result, as it
    arrives, in-process sweep included.

    [spec] is the stamp every heartbeat and result must carry, and
    [listen] a listening socket whose connections join the pool. *)
val supervise :
  ?deadline:float ->
  ?listen:Unix.file_descr ->
  spec:string ->
  admit:(conn -> (Json.t -> unit) option) ->
  replace:(pool -> conn list -> bool) ->
  fresh:(int -> result -> unit) ->
  result Supervise.t ->
  task array ->
  result option array

(** [run_tasks ~jobs tasks] runs every task and returns its result, or
    [None] for tasks that could not be completed even after reassignment
    and an in-process quarantine retry.

    [jobs <= 1] (or a single task): all tasks run in this process, in
    order; exceptions propagate as usual (tasks are expected to do their
    own isolation).  This is the reference schedule: every supervised
    run merges to the same bytes.

    [jobs > 1]: {!supervise} over [jobs] forked children.  [deadline] is
    the per-task lease in seconds (no deadline when omitted);
    [max_respawns] bounds replacement workers across the whole run
    (default 8); [mem_limit] (MiB) and [cpu_limit] (seconds) install
    per-worker rlimit guards.

    [fresh i r] runs once for each task's result, as it arrives: in
    task order in-process, in completion order in the pool. *)
val run_tasks :
  jobs:int ->
  ?deadline:float ->
  ?max_respawns:int ->
  ?mem_limit:int ->
  ?cpu_limit:int ->
  ?fresh:(int -> result -> unit) ->
  task array ->
  result option array
