(** The fleet dispatcher: shard a task array across remote socket
    workers with the same supervision guarantees — and the same merged
    bytes — as the local pool, because it runs the same loop
    ({!Llhsc.Shard.supervise}).

    On top of that loop the dispatcher adds only its listen socket, the
    handshake, the worker floor and the task journal.  Workers connect
    and handshake (hello -> setup -> ready); the ready message must echo
    the spec hash and task count, so a worker that planned a different
    run is rejected before it can contribute a result.  Ready workers
    are then leased one task at a time; every fault — death, partition,
    hang (lease past [deadline]), corrupt frame, invalid result —
    collapses to dropping the connection and reassigning its lease (or
    quarantining a task on its second crash).

    Termination never depends on the fleet: when live connections fall
    below [min_workers] after the [wait_workers] registration grace (or
    once only quarantined tasks remain), a final in-process sweep
    completes every unresolved task locally, so a run that loses all
    its workers still finishes with the same report.
    [min_workers = 0] waits for workers indefinitely instead of
    degrading.

    With [secret] set, workers must complete a mutual HMAC-SHA256
    challenge–response before the spec is shipped; unauthenticated or
    replayed hellos are dropped with a [notice[AUTH]] and counted, and
    all post-handshake frames carry session-keyed MACs so a mid-stream
    injector is handled as a dead worker (see DESIGN.md "fleet trust").

    With [task_journal] set, every merged task result is appended to a
    CRC-checksummed, fsync'd journal; [resume] preloads a matching
    journal through the first-wins merge so a crashed dispatcher's
    successor re-runs only what is missing.

    A dispatcher that cannot bind its listen address degrades straight
    to the in-process sweep instead of failing the run.

    All supervision notices go to stderr; stdout is untouched (the
    pipeline report must stay byte-identical to [--jobs 1]). *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port *)
  min_workers : int;  (** degrade to in-process below this floor *)
  wait_workers : float;  (** registration grace before the floor applies *)
  deadline : float;  (** per-task lease, seconds *)
  port_file : string option;  (** write the bound port here *)
  secret : string option;  (** require the HMAC handshake ([--secret-file]) *)
  task_journal : string option;  (** journal per-task results here *)
  resume : bool;  (** replay a matching task journal before dispatching *)
}

(** [run cfg ~spec tasks] — serve [tasks] to the fleet and return one
    result per index ([None] only for a task that failed remotely and
    in the local sweep).  [spec] must describe the same run that planned
    [tasks], with [spec.skip] naming the journal-replayed products. *)
val run :
  config -> spec:Spec.t -> Llhsc.Shard.task array -> Llhsc.Shard.result option array

(** {1 Bandwidth-aware setup}

    Exposed for unit tests: the pure policy deciding whether a worker's
    setup ships the spec body or only its hash. *)

(** [`Cached] when [spec_hash] is among the hashes the worker's hello
    advertised as cached — the dispatcher sends {!msg_setup_cached} and
    skips the spec transfer; [`Ship] otherwise. *)
val setup_choice : cached:string list -> spec_hash:string -> [ `Cached | `Ship ]

(** The hash-only setup message sent on a cache hit:
    [{"setup":{"cached":true},"hash":h}] — no spec body.  A worker whose
    cache no longer holds [h] replies with an error and the dispatcher
    falls back to the full setup. *)
val msg_setup_cached : string -> string
