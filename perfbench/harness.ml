(* The timing harness every workload shares: clock and resource usage,
   child processes (spawned, tracked, always reaped), port files, the
   closed measurement loop, BENCHMARK.json, and the result line. *)

let now = Unix.gettimeofday

(* --- resource usage ---------------------------------------------------- *)

external rusage_raw : int -> float array = "perfbench_rusage"
external loadavg : unit -> float = "perfbench_loadavg"

type usage = { cpu_s : float; maxrss_kib : float }

(* [`Children] covers every descendant that has been waited for, shard
   workers and daemon jobs included, once their own parent reaped them. *)
let usage who =
  let a = rusage_raw (match who with `Self -> 0 | `Children -> 1) in
  { cpu_s = a.(0) +. a.(1); maxrss_kib = a.(2) }

let online_cpus = Llhsc.Shard.online_cpus

(* --- files ------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- child processes --------------------------------------------------- *)

(* Every child the benchmark starts, until reaped.  Whatever is still
   alive at exit (a failed run) is killed and waited for. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 16

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status ->
    Hashtbl.remove live pid;
    status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

let kill_all () =
  let pids = Hashtbl.fold (fun pid () acc -> pid :: acc) live [] in
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) pids;
  List.iter (fun pid -> try ignore (wait pid) with Unix.Unix_error _ -> ()) pids

let () = at_exit kill_all

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

(* Start [prog args] with stdin from /dev/null, optionally in [cwd] (the
   benchmark is single-threaded, so changing directory around the spawn
   is safe, and spawning does not copy this process the way fork
   does). *)
let spawn ?cwd ?stdout ?stderr prog args =
  let null = Lazy.force devnull in
  let out = Option.value ~default:null stdout and err = Option.value ~default:null stderr in
  let argv = Array.of_list (prog :: args) in
  let here = Sys.getcwd () in
  Option.iter Sys.chdir cwd;
  let pid =
    Fun.protect
      ~finally:(fun () -> Sys.chdir here)
      (fun () -> Unix.create_process prog argv null out err)
  in
  Hashtbl.replace live pid ();
  pid

let read_all fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Run to completion; stdout captured, stderr discarded. *)
let run_capture ?cwd prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = spawn ?cwd ~stdout:w prog args in
  Unix.close w;
  let out = read_all r in
  Unix.close r;
  (wait pid, out)

(* Poll [path] every half millisecond until it holds a port number. *)
let wait_port_file ?(timeout = 30.) path =
  let deadline = now () +. timeout in
  let rec go () =
    let port = try int_of_string_opt (String.trim (read_file path)) with Sys_error _ -> None in
    match port with
    | Some p when p > 0 -> p
    | _ ->
      if now () > deadline then failwith ("no port in " ^ path);
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

(* Wait up to [within] seconds for [pid], then kill it.  [None] when it
   had to be killed. *)
let reap ~within pid =
  let deadline = now () +. within in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.001;
      go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait pid);
      None
    | _, status ->
      Hashtbl.remove live pid;
      Some status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* --- measurement -------------------------------------------------------- *)

type loop = {
  samples : float list; (* milliseconds, one per operation *)
  elapsed : float; (* seconds, first start to last finish *)
  cpu_s : float; (* CPU seconds of the measured operations *)
  attempted : int;
  failed : int;
}

(* [f ()] and its wall-clock seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Closed loop with one caller: [warmup] seconds untimed, then operations
   back to back until [seconds] have passed and at least [min_samples]
   were timed.  [run] returns its result and its latency in seconds (see
   {!timed}); [check] judges each result outside the timed region; [cpu]
   reads the CPU clock of whichever processes do the work. *)
let closed_loop ~warmup ~seconds ~min_samples ~cpu ~run ~check =
  let failed = ref 0 and attempted = ref 0 in
  let judge r =
    incr attempted;
    if not (check r) then incr failed
  in
  let warm_end = now () +. warmup in
  while now () < warm_end do
    judge (fst (run ()))
  done;
  let samples = ref [] and n = ref 0 and cpu_s = ref 0. in
  let t0 = now () in
  while now () -. t0 < seconds || !n < min_samples do
    let c0 = cpu () in
    let r, latency = run () in
    samples := (latency *. 1000.) :: !samples;
    cpu_s := !cpu_s +. (cpu () -. c0);
    incr n;
    judge r
  done;
  { samples = List.rev !samples; elapsed = now () -. t0; cpu_s = !cpu_s;
    attempted = !attempted; failed = !failed }

(* --- BENCHMARK.json ------------------------------------------------------ *)

type metric = { name : string; unit_ : string; better : string; bound : float option }

type benchmark = {
  run_seconds : int;
  workloads : (string * string) list; (* name, why *)
  end_to_end : metric list;
  per_layer : metric list;
}

let load_benchmark path =
  let j =
    match Bjson.parse (read_file path) with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let field k conv =
    match Option.bind (Bjson.member k j) conv with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: missing or malformed %S" path k)
  in
  let str k o =
    match Option.bind (Bjson.member k o) Bjson.to_str with
    | Some s -> s
    | None -> failwith (Printf.sprintf "%s: entry without %S" path k)
  in
  let metric o =
    { name = str "name" o; unit_ = str "unit" o; better = str "better" o;
      bound = Option.bind (Bjson.member "bound" o) Bjson.to_num }
  in
  { run_seconds = field "run_seconds" Bjson.to_int;
    workloads = List.map (fun o -> (str "name" o, str "why" o)) (field "workloads" Bjson.to_list);
    end_to_end = List.map metric (field "end_to_end" Bjson.to_list);
    per_layer = List.map metric (field "per_layer" Bjson.to_list) }

(* --- results ------------------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list; (* exactly the names BENCHMARK.json lists for the run *)
}

(* Print every metric as [workload name value unit], then the result
   object as the last line.  A metric the workload did not compute,
   computed as a non-number, or that BENCHMARK.json does not list for
   this kind of run, is a harness bug: refuse to print a result. *)
let report ~workload ~(registered : metric list) r =
  List.iter
    (fun (m : metric) ->
      match List.assoc_opt m.name r.metrics with
      | Some v when Float.is_finite v -> ()
      | Some _ -> failwith (Printf.sprintf "metric %s is not a finite number" m.name)
      | None -> failwith (Printf.sprintf "workload %s did not measure %s" workload m.name))
    registered;
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m : metric) -> m.name = name) registered) then
        failwith (Printf.sprintf "metric %s is not listed in BENCHMARK.json" name))
    r.metrics;
  List.iter
    (fun (m : metric) ->
      Printf.printf "%s %s %s %s\n" workload m.name
        (Bjson.float_repr (List.assoc m.name r.metrics))
        m.unit_)
    registered;
  let json =
    Bjson.Obj
      [ ("correct", Bjson.Bool r.correct);
        ("attempted", Bjson.Int r.attempted);
        ("failed", Bjson.Int r.failed);
        ( "metrics",
          Bjson.Obj
            (List.map
               (fun (m : metric) ->
                 ( m.name,
                   Bjson.Obj
                     [ ("value", Bjson.Float (List.assoc m.name r.metrics));
                       ("unit", Bjson.Str m.unit_) ] ))
               registered) ) ]
  in
  print_endline (Bjson.to_string json);
  json
