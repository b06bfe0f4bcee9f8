(** Seeded fault injection: the one reader of the fault schedule.

    The environment variable [LLHSC_FAULT] holds a comma-separated
    schedule of [<kind>@<n>] tokens, for example
    [LLHSC_FAULT=kill-worker@3] or [LLHSC_FAULT=enospc@2,short@5].  A
    token fires when the module that owns its kind reaches event [n] of
    that kind; each module keeps its own event counters and asks
    {!fires} at its injection points.  An unset or empty variable
    injects nothing, so production runs behave exactly like the code
    without the hooks, and a schedule fails the same operation on every
    run, so a harness failure reproduces from its schedule alone.

    [n] is a non-negative decimal integer.  A token with an unknown kind,
    no [@n], or an [n] that is not such an integer makes the whole
    schedule malformed: every [llhsc] subcommand then exits 2 before
    doing any work ({!check}), instead of running with no fault.

    {1 Kinds}

    {v
    kind                 fires in                 n counts
    -------------------  -----------------------  ---------------------------------
    enospc               Durable write            writes of the process, from 1;
                                                  shared with short.  The write
                                                  raises ENOSPC before writing.
    short                Durable write            the same writes.  Half the bytes
                                                  land (a torn write), then ENOSPC.
    eio-fsync            Durable fsync            fsyncs, from 1.  Raises EIO.
    crash-rename         Durable atomic commit    commits, from 1.  SIGKILL after
                                                  the temp file is fsync'd, before
                                                  the rename.
    erofs                Durable open for write   opens, from 1.  Raises Sys_error
                                                  "Read-only file system".
    kill-mid-record      Journal append           journal records of the process,
                                                  from 1.  Half the record, no
                                                  newline, then SIGKILL.
    kill-after-records   Journal append           the same records.  SIGKILL once
                                                  record n is fsync'd.
    term-after-records   Journal append           the same records.  SIGTERM once
                                                  record n is fsync'd (the graceful
                                                  interrupt path, exit 143).
    kill-worker          Shard worker task loop   the leased task index, from 0.
                                                  SIGKILL before the heartbeat.
    hang-worker          Shard worker task loop   task index.  Heartbeat, then hang
                                                  until the lease deadline.
    oom-worker           Shard worker task loop   task index.  Allocate until the
                                                  --mem-limit guard trips; inert
                                                  without one.
    drop-conn-worker     Shard worker task loop   task index.  Drop the connection
                                                  after the heartbeat, once per
                                                  process.
    delay-result-worker  Shard worker task loop   task index.  Sleep 2 s before
                                                  sending the result.
    dup-result-worker    Shard worker task loop   task index.  Send the result
                                                  twice.
    kill-job             serve job child          job id, from 0.  SIGKILL before
                                                  the job runs.
    hang-job             serve job child          job id.  Sleep an hour before
                                                  the job runs.
    v}

    The worker kinds fire only in worker processes ([--jobs N > 1] or
    [llhsc worker]); an in-process run never consults them. *)

type kind =
  | Enospc
  | Short
  | Eio_fsync
  | Crash_rename
  | Erofs
  | Kill_mid_record
  | Kill_after_records
  | Term_after_records
  | Kill_worker
  | Hang_worker
  | Oom_worker
  | Drop_conn_worker
  | Delay_result_worker
  | Dup_result_worker
  | Kill_job
  | Hang_job

(** Every kind under its schedule name, in the order of the table. *)
val kinds : (string * kind) list

(** Parse a schedule.  [Error msg] names the first malformed token. *)
val parse : string -> ((kind * int) list, string) result

(** Validate [LLHSC_FAULT]; [Error msg] names the first malformed token. *)
val check : unit -> (unit, string) result

(** [fires kind n]: the schedule in [LLHSC_FAULT] holds [kind@n].  The
    variable is read on every call, so a unit test may change it with
    [putenv].  Raises [Invalid_argument] on a malformed schedule. *)
val fires : kind -> int -> bool

(** A fresh process-global event counter at 0.  The modules that count
    events for their kinds (writes, fsyncs, journal records, ...) each
    keep theirs here, so {!reset} reaches all of them. *)
val counter : unit -> int ref

(** Zero every {!counter}.  A served job child calls it after the fork,
    so its schedule counts from the start as an exec'd process would;
    unit tests call it between schedules. *)
val reset : unit -> unit

(** SIGKILL the calling process: a simulated crash. *)
val kill_self : unit -> unit
