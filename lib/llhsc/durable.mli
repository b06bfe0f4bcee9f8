(** Durable I/O: the one place every state-bearing write goes through.

    Two disciplines, matching the two kinds of state llhsc persists:

    - {b Whole files} (reports, port files, compacted journals):
      {!write_file} writes to a temp file in the same directory, fsyncs
      it, renames it over the destination and fsyncs the directory.  A
      reader can never observe a partial file and a crash leaves either
      the old bytes or the new bytes, never a mix.
    - {b Append-only journals}: {!open_for_append} / {!out_string} /
      {!sync} are checked variants of the stdlib calls — every error,
      including fsync failure, is raised rather than swallowed, so the
      journal layer can degrade loudly instead of silently claiming
      durability it no longer has.

    {1 Fault injection}

    The disk-fault kinds of the [LLHSC_FAULT] schedule ({!Fault}) fire
    here: [enospc@n] and [short@n] on the [n]-th write, [eio-fsync@n] on
    the [n]-th fsync, [crash-rename@n] on the [n]-th atomic commit and
    [erofs@n] on the [n]-th open-for-write ({!Fault} has the table).
    Counters are process-global; {!Fault.reset} rewinds them. *)

(** Atomically replace [path] with [data]: write [path ^ ".tmp.<pid>"],
    fsync, rename over [path], fsync the parent directory.  On failure the
    temp file is removed and the original [path] is untouched.  Raises
    [Sys_error] or [Unix.Unix_error]. *)
val write_file : path:string -> string -> unit

(** Open for appending (creating if needed, mode 0o644; emptied first
    with [~truncate:true]).  Raises [Sys_error], including the injected
    [erofs@n] fault. *)
val open_for_append : ?truncate:bool -> string -> out_channel

(** Checked write: raises [Unix.Unix_error (ENOSPC, _, _)] under the
    [enospc@n]/[short@n] faults ([short] flushes the half-written prefix
    first, leaving a torn record on disk, exactly like a real short
    write on a full disk). *)
val out_string : out_channel -> string -> unit

(** Flush then fsync, retrying [EINTR].  Unlike the stdlib idiom this
    PROPAGATES failure — [Sys_error] from the flush, [Unix.Unix_error]
    from the fsync (including the injected [eio-fsync@n]) — because a
    record must never be reported durable when its fsync failed. *)
val sync : out_channel -> unit
