(** A fleet worker process: connect to a dispatcher, rebuild its task
    array from the shipped {!Spec}, and execute leased tasks until
    retired.  Past the handshake it runs {!Llhsc.Shard.serve}, the same
    task loop as a forked [--jobs N] worker.

    Stateless across connections: the setup message carries everything,
    and the built task array is cached by spec hash so reconnects
    re-handshake without re-parsing.  Connection loss is survived with
    exponential-backoff reconnects (±25% seeded jitter so a restarted
    dispatcher is not hit by a thundering herd), bounded by
    [max_reconnects] {e consecutive} failures (a completed handshake
    resets the budget).  Resource guards ([mem_limit] MiB /
    [cpu_limit] seconds) are installed once at startup, like a
    fork-pool child's.

    With [secret] set, the worker requires the mutual HMAC-SHA256
    challenge–response handshake (see DESIGN.md "fleet trust"): it
    refuses specs from a dispatcher that does not prove knowledge of
    the secret, and all post-handshake frames carry session-keyed MACs.

    The six worker fault hooks ([LLHSC_FAULT_{KILL,HANG,OOM,DROP_CONN,
    DELAY_RESULT,DUP_RESULT}_WORKER=N], test harness only) are those of
    {!Llhsc.Shard.serve}; after an injected connection drop the worker
    reconnects. *)

type config = {
  host : string;
  port : int option;
  port_file : string option;
      (** poll the dispatcher's [--port-file] when [port] is [None] *)
  max_reconnects : int;
  mem_limit : int option;
  cpu_limit : int option;
  secret : string option;  (** shared fleet secret ([--secret-file]) *)
}

(** Reconnect delay before attempt [attempt] (1-based consecutive
    failure count): exponential base [min 5.0 (0.2 * 2^(attempt-1))]
    with deterministic ±25% jitter drawn from [seed].  Pure; exposed
    for the bounds unit test. *)
val backoff_delay : seed:int -> attempt:int -> float

(** Serve until retired.  Returns the process exit code: 0 after a
    [retire] message, 1 when the reconnect budget is exhausted or no
    dispatcher port could be resolved. *)
val run : config -> int
