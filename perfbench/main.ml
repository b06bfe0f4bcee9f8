(* llhsc benchmark.

     main.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                  [--trace-file FILE] [--out FILE]
     main.exe compare --base A.json... --new B.json...

   `run` prints every metric as `workload metric value unit` and, last,
   one JSON object with correct/attempted/failed/metrics.  Without
   --workload it runs all four, each in a fresh child process.  See
   README.md. *)

open Benchlib

let data_dir = Filename.dirname Sys.executable_name
let in_data f = Filename.concat data_dir f
let benchmark () = Harness.load_benchmark (in_data "../BENCHMARK.json")
let state_dir = Filename.concat (Sys.getcwd ()) ".perfbench"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

type opts = {
  workload : string option;
  seed : int;
  seconds : float option;
  trace : bool;
  trace_file : string option;
  out : string option;
}

let rec parse o = function
  | [] -> o
  | "--workload" :: w :: rest -> parse { o with workload = Some w } rest
  | "--seed" :: n :: rest -> (
    match int_of_string_opt n with
    | Some n -> parse { o with seed = n } rest
    | None -> die "--seed wants an integer, got %S" n)
  | "--seconds" :: s :: rest -> (
    match float_of_string_opt s with
    | Some s when s > 0. -> parse { o with seconds = Some s } rest
    | _ -> die "--seconds wants a positive number, got %S" s)
  | "--trace" :: ("0" | "1" as t) :: rest -> parse { o with trace = t = "1" } rest
  | "--trace-file" :: f :: rest -> parse { o with trace_file = Some f } rest
  | "--out" :: f :: rest -> parse { o with out = Some f } rest
  | arg :: _ -> die "unexpected argument %S" arg

(* One workload in this process (a fresh child of [run_each]). *)
let run_one bench o workload =
  let seconds = Option.value o.seconds ~default:(float_of_int bench.Harness.run_seconds) in
  let work = Filename.concat state_dir (Printf.sprintf "run-%s-%d" workload (Unix.getpid ())) in
  Harness.mkdir_p (Filename.concat work "tmp");
  (* Children (the serve daemon's job directories among them) keep their
     scratch files inside the run directory. *)
  Unix.putenv "TMPDIR" (Filename.concat work "tmp");
  at_exit (fun () ->
      Harness.kill_all ();
      try Harness.rm_rf work with Unix.Unix_error _ | Sys_error _ -> ());
  (* A wedged child must not hold the run forever, and a run stopped from
     outside still stops and reaps its children (via [at_exit]). *)
  List.iter
    (fun (signal, why) ->
      Sys.set_signal signal (Sys.Signal_handle (fun _ -> prerr_endline ("perfbench: " ^ why); exit 3)))
    [ (Sys.sigalrm, "run timed out"); (Sys.sigterm, "terminated"); (Sys.sigint, "interrupted") ];
  ignore (Unix.alarm (int_of_float (4. *. seconds) + 60));
  let ctx =
    { Workloads.seed = o.seed; seconds; llhsc = in_data "../bin/main.exe";
      self_exe = Sys.executable_name; work;
      goldens =
        Inputs.goldens ~dir:(in_data "expected") ~actual_dir:(Filename.concat state_dir "actual") }
  in
  let r =
    if o.trace then
      let trace_file =
        Option.value o.trace_file
          ~default:(Filename.concat state_dir (Printf.sprintf "trace-%s.json" workload))
      in
      Workloads.traced ctx workload ~trace_file
    else Workloads.run ctx workload
  in
  let cpus = Harness.online_cpus () and load = Harness.loadavg () in
  (* The machine, not a metric: recorded with every result. *)
  Printf.printf "# %s online_cpus %d loadavg %s\n" workload cpus (Bjson.float_repr load);
  let registered = if o.trace then bench.Harness.per_layer else bench.Harness.end_to_end in
  let json = Harness.report ~workload ~registered r in
  Option.iter
    (fun path ->
      let fields = match json with Bjson.Obj kvs -> kvs | _ -> [] in
      Harness.write_file path
        (Bjson.to_string
           (Bjson.Obj
              ([ ("workload", Bjson.Str workload); ("seed", Bjson.Int o.seed);
                 ("seconds", Bjson.Float seconds); ("trace", Bjson.Bool o.trace);
                 ("online_cpus", Bjson.Int cpus); ("loadavg", Bjson.Float load) ]
              @ fields))))
    o.out;
  exit (if r.Harness.correct then 0 else 1)

(* Each workload in a fresh child process of this one, so GC state, CPU
   accounting and the peak RSS of reaped children (which would include
   the build that ran before this process) start clean. *)
let run_each o workloads =
  let arg name v = match v with Some v -> [ name; v ] | None -> [] in
  let codes, records =
    List.split
      (List.map
         (fun w ->
           let out = Filename.concat state_dir (Printf.sprintf "result-%s-%d.json" w (Unix.getpid ())) in
           let pid =
             Harness.spawn ~stdout:Unix.stdout ~stderr:Unix.stderr Sys.executable_name
               ([ "run-workload"; "--workload"; w; "--seed"; string_of_int o.seed;
                  "--trace"; (if o.trace then "1" else "0"); "--out"; out ]
               @ arg "--seconds" (Option.map Bjson.float_repr o.seconds)
               @ arg "--trace-file" o.trace_file)
           in
           let code = match Harness.wait pid with Unix.WEXITED c -> c | _ -> 128 in
           let record = try Compare.load_records out with Sys_error _ | Failure _ -> [] in
           (try Sys.remove out with Sys_error _ -> ());
           (code, record))
         workloads)
  in
  Option.iter
    (fun path -> Harness.write_file path (Bjson.to_string (Bjson.List (List.concat records))))
    o.out;
  exit (List.fold_left max 0 codes)

let () =
  try
    match List.tl (Array.to_list Sys.argv) with
    | ("run" | "run-workload" as cmd) :: args -> (
      let o =
        parse
          { workload = None; seed = 1; seconds = None; trace = false; trace_file = None;
            out = None }
          args
      in
      Harness.mkdir_p state_dir;
      let bench = benchmark () in
      match (cmd, o.workload) with
      | _, Some w when not (List.mem w Workloads.names) ->
        die "unknown workload %S (want %s)" w (String.concat "|" Workloads.names)
      | "run-workload", Some w -> run_one bench o w
      | "run", Some w -> run_each o [ w ]
      | _ -> run_each o Workloads.names)
    | "compare" :: args ->
      let rec files side base next = function
        | [] -> (base, next)
        | "--base" :: rest -> files `Base base next rest
        | "--new" :: rest -> files `New base next rest
        | f :: rest -> (
          match side with
          | `Base -> files side (f :: base) next rest
          | `New -> files side base (f :: next) rest
          | `None -> die "compare wants --base FILE... --new FILE...")
      in
      let base, next = files `None [] [] args in
      if base = [] || next = [] then die "compare wants --base FILE... --new FILE...";
      Compare.main ~bench:(benchmark ()) ~base_files:(List.rev base) ~new_files:(List.rev next)
    | [ "cold-inproc"; n ] ->
      (* The first [n] in-process verdicts of a fresh process: the set-up
         probe of quad_inproc. *)
      for _ = 1 to int_of_string n do
        print_string (Workloads.render (Llhsc.Quad_rv64.run_pipeline ()))
      done
    | _ -> die "usage: main.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                [--trace-file F] [--out F] | compare --base A.json... --new B.json..."
  with
  | Failure m | Sys_error m | Invalid_argument m -> die "%s" m
  | Unix.Unix_error (e, f, a) -> die "%s(%s): %s" f a (Unix.error_message e)
