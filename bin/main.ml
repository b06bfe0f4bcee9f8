(* llhsc: the command line lives in [Cli]; start.c, the process entry,
   sizes the nursery before the runtime starts. *)
let () = exit (Cli.main Sys.argv)
