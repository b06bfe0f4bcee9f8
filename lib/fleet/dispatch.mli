(** The fleet dispatcher: shard a task array across remote socket
    workers with the same supervision guarantees — and the same merged
    bytes — as the local pool, because it runs the same loop
    ({!Llhsc.Shard.supervise}).

    On top of that loop the dispatcher adds only its listen socket, the
    handshake and the worker floor.  Workers connect and handshake
    (hello -> setup -> ready).  Every setup ships the whole
    {!Spec}; the ready message must echo the spec hash and task count,
    so a worker that planned a different run is rejected before it can
    contribute a result.  A connection refused during its handshake is
    named on stderr with the reason ({!Llhsc.Shard.drop}).  Ready workers
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

    A dispatcher that cannot bind its listen address degrades straight
    to the in-process sweep instead of failing the run.

    When every task is resolved, the dispatcher replaces its [port_file]
    with the line {!closed_marker}, so a worker that arrives after the run
    retires instead of reconnecting until its budget runs out.  A run cut
    short by a signal leaves the port in place for a [--resume]
    successor.  The marker belongs to one run: a dispatcher deletes its
    port file before it plans ({!clear_port_file}).

    All supervision notices go to stderr; stdout is untouched (the
    pipeline report must stay byte-identical to [--jobs 1]). *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port *)
  min_workers : int;  (** degrade to in-process below this floor *)
  wait_workers : float;  (** registration grace before the floor applies *)
  deadline : float;  (** per-task lease, seconds *)
  port_file : string option;
      (** write the bound port here, and {!closed_marker} once every task
          is resolved *)
  secret : string option;  (** require the HMAC handshake ([--secret-file]) *)
}

(** [run cfg ~spec ~fresh tasks] — serve [tasks] to the fleet and return
    one result per index ([None] only for a task that failed remotely
    and in the local sweep).  Each task's winning result goes to [fresh]
    once, as it arrives, which is how the pipeline journals a product
    the moment its last task returns.  [spec] must describe the same
    run that planned [tasks], with [spec.skip] naming the
    journal-replayed products. *)
val run :
  config ->
  spec:Spec.t ->
  fresh:(int -> Llhsc.Shard.result -> unit) ->
  Llhsc.Shard.task array ->
  Llhsc.Shard.result option array

(** The port file's content, less its newline, once the run is over. *)
val closed_marker : string

(** Delete a port file an earlier run left, if any.  The dispatcher
    command calls it first, so that a worker started beside it never
    takes an earlier run's {!closed_marker} for this run's. *)
val clear_port_file : string -> unit

(** [addr_of host port]: [host] as a dotted quad, or else resolved by
    name.  Raises [Failure] when it does not resolve. *)
val addr_of : string -> int -> Unix.sockaddr

(** {1 Handshake}

    The three HMAC-SHA256 values of the handshake, keyed by the fleet
    secret, over the worker's hello nonce [nw] and the dispatcher's
    challenge nonce [nd].  Both ends compute them here. *)

(** The dispatcher's proof in its challenge, in hex. *)
val challenge_mac : secret:string -> nw:string -> nd:string -> string

(** The worker's proof in its answer, in hex. *)
val answer_mac : secret:string -> nw:string -> nd:string -> string

(** The raw session key that seals every frame after the handshake. *)
val session_key : secret:string -> nw:string -> nd:string -> string
