(** The [llhsc] command line: every subcommand behind one entry.

    [bin/main.ml] calls it once per process.  Each job child of
    [llhsc serve] runs the same code inside a fork of the daemon: a
    [/v1/check] body goes through what [check] runs once it has read its
    file, a [/v1/pipeline] spec through the one spec runner behind
    [pipeline], [dispatch] and [build], so a served job runs exactly the
    code a batch run does. *)

(** [main argv] runs the command line [argv] ([argv.(0)] is the program
    name) and returns the status code the process should end with, as
    tabled in the README's robustness section.  It never ends the
    process itself. *)
val main : string array -> int
