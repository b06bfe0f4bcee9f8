(* End-to-end smoke harness for fleet mode: a real dispatcher and real
   worker processes on a loopback socket, driven through the fault
   schedule the issue demands —

     - a healthy 3-worker fleet, byte-identical to --jobs 1;
     - workers that die mid-task, hang after heartbeating, delay their
       result past the lease deadline, drop the connection and
       reconnect, and send duplicate results;
     - a fleet that loses every worker (and one that never had any),
       finishing via the in-process fallback with exit 0;
     - a worker that arrives after the run, and one started beside a
       second run on the same port file;
     - --certify/--retry and --journal/--resume variants.

   Every schedule must exit 0 with a report byte-identical to the
   single-process baseline.
   Usage: fleet_smoke.exe LLHSC_BINARY FIXTURES_DIR CHAOSPROXY_BINARY *)

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
let llhsc = absolute Sys.argv.(1)
let fixtures = absolute Sys.argv.(2)
let chaosproxy = absolute Sys.argv.(3)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt
let say fmt = Printf.ksprintf (fun m -> print_endline ("# " ^ m); flush stdout) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let tmp_root =
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "llhsc-fleet-smoke-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o700;
  at_exit (fun () -> rm_rf dir);
  dir

let contains s needle =
  let hl = String.length s and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
  nl > 0 && go 0

let contains_line ~needle path =
  contains (try read_file path with Sys_error _ -> "") needle

(* --- process management ------------------------------------------------------- *)

let spawn ?(prog = llhsc) ?(env = []) ~out ~err args =
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let full_env = Array.append (Unix.environment ()) (Array.of_list env) in
  let pid =
    Unix.create_process_env prog
      (Array.of_list (prog :: args))
      full_env Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  pid

let wait_exit ~what pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> fail "%s died on signal %d" what s

(* Reap a worker that should be exiting on its own (retire, or reconnect
   exhaustion once the dispatcher is gone); SIGKILL stragglers — some
   schedules hang a worker on purpose. *)
let reap pid =
  let rec poll tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.1;
      poll (tries - 1)
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  poll 50

let run_blocking ?(env = []) ~out ~err args =
  wait_exit ~what:(List.nth args 0) (spawn ~env ~out ~err args)

(* --- fixture ------------------------------------------------------------------ *)

let board_args dir =
  [ "--core"; Filename.concat dir "custom-sbc.dts";
    "--deltas"; Filename.concat dir "custom-sbc.deltas";
    "--model"; Filename.concat dir "custom-sbc.fm";
    "--schemas"; Filename.concat dir "schemas";
    "--vm"; "memory,cpu@0,uart@20000000,uart@30000000,veth0";
    "--vm"; "memory,cpu@1,uart@20000000,uart@30000000,veth1";
    "--exclusive"; "cpus" ]

let pipeline_args = board_args fixtures

let scenario_dir name =
  let dir = Filename.concat tmp_root name in
  Unix.mkdir dir 0o700;
  dir

(* Single-process reference runs. *)
let baseline ~name ?(pipeline = pipeline_args) extra =
  let dir = scenario_dir name in
  let out = Filename.concat dir "report.txt" in
  let err = Filename.concat dir "err.txt" in
  let code =
    run_blocking ~out ~err (("pipeline" :: pipeline) @ ("--jobs" :: "1" :: extra))
  in
  if code <> 0 then fail "%s baseline exited %d:\n%s" name code (read_file err);
  read_file out

let wait_port_file path =
  let rec go tries =
    let ready =
      match open_in path with
      | exception Sys_error _ -> false
      | ic ->
        let ok = match input_line ic with _ -> true | exception End_of_file -> false in
        close_in ic;
        ok
    in
    if ready then ()
    else if tries = 0 then fail "dispatcher never wrote %s" path
    else begin
      Unix.sleepf 0.1;
      go (tries - 1)
    end
  in
  go 100

(* Run one fleet schedule: a dispatcher (with [dispatch_env] added to its
   environment) plus one worker per element of [workers] (each element
   is that worker's extra environment).  Returns
   (dispatcher exit code, report path, dispatcher stderr path, worker pids). *)
let fleet ~name ?(dispatch_env = []) ?(dispatch_flags = [])
    ?(worker_flags = [ "--max-reconnects"; "3" ]) ?(pipeline = pipeline_args) ~workers
    () =
  say "schedule: %s" name;
  let dir = scenario_dir name in
  let pf = Filename.concat dir "port" in
  let out = Filename.concat dir "report.txt" in
  let err = Filename.concat dir "dispatch.err" in
  let dpid =
    spawn ~env:dispatch_env ~out ~err
      (("dispatch" :: "--listen" :: "127.0.0.1:0" :: "--port-file" :: pf
        :: dispatch_flags)
      @ pipeline)
  in
  wait_port_file pf;
  let wpids =
    List.mapi
      (fun i env ->
        spawn ~env
          ~out:(Filename.concat dir (Printf.sprintf "w%d.out" i))
          ~err:(Filename.concat dir (Printf.sprintf "w%d.err" i))
          ([ "worker"; "--port-file"; pf ] @ worker_flags))
      workers
  in
  let code = wait_exit ~what:"dispatcher" dpid in
  (code, out, err, wpids)

(* --- fleet trust fixtures ----------------------------------------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let secret_file =
  let path = Filename.concat tmp_root "fleet.secret" in
  write_file path "smoke-shared-secret\n";
  path

let wrong_secret_file =
  let path = Filename.concat tmp_root "wrong.secret" in
  write_file path "a-different-secret\n";
  path

let read_port path = String.trim (read_file path)

let rec copy_dir src dst =
  Unix.mkdir dst 0o700;
  Array.iter
    (fun name ->
      let s = Filename.concat src name and d = Filename.concat dst name in
      if Sys.is_directory s then copy_dir s d else write_file d (read_file s))
    (Sys.readdir src)

let check ~name ~base (code, out, err, wpids) =
  if code <> 0 then fail "%s: dispatcher exited %d:\n%s" name code (read_file err);
  let got = read_file out in
  if got <> base then
    fail "%s: fleet report differs from --jobs 1 baseline\n--- fleet ---\n%s--- baseline ---\n%s"
      name got base;
  List.iter reap wpids;
  err

let expect_notice ~name err needle =
  if not (contains_line ~needle err) then
    fail "%s: dispatcher stderr is missing %S:\n%s" name needle (read_file err)

(* --- schedules ---------------------------------------------------------------- *)

let () =
  say "baseline: pipeline --jobs 1";
  let base = baseline ~name:"base" [] in

  (* Healthy fleet: three workers, all retired with exit 0. *)
  let code, out, err, wpids = fleet ~name:"healthy-3" ~workers:[ []; []; [] ] () in
  ignore (check ~name:"healthy-3" ~base (code, out, err, []));
  List.iter
    (fun pid ->
      match wait_exit ~what:"worker" pid with
      | 0 -> ()
      | c -> fail "healthy-3: retired worker exited %d, want 0" c)
    wpids;

  (* The sole worker kills itself mid-task: its lease crashes the task
     back into the queue, and with nobody left past the grace period the
     dispatcher finishes in-process. *)
  let r =
    fleet ~name:"kill"
      ~dispatch_flags:[ "--wait-workers"; "3" ]
      ~workers:[ [ "LLHSC_FAULT=kill-worker@1" ] ] ()
  in
  let err = check ~name:"kill" ~base r in
  expect_notice ~name:"kill" err "reassigning";
  expect_notice ~name:"kill" err "in-process";

  (* The sole worker heartbeats a task and then hangs forever: the lease
     deadline must expire it, drop the worker, and finish in-process. *)
  let r =
    fleet ~name:"hang"
      ~dispatch_flags:[ "--wait-workers"; "3"; "--task-deadline"; "1" ]
      ~workers:[ [ "LLHSC_FAULT=hang-worker@1" ] ] ()
  in
  let err = check ~name:"hang" ~base r in
  expect_notice ~name:"hang" err "deadline";

  (* The sole worker computes its result but sits on it past the
     deadline: the dispatcher reassigns, and the late result lands on a
     closed socket (EPIPE, not a fatal SIGPIPE). *)
  let r =
    fleet ~name:"delay"
      ~dispatch_flags:[ "--wait-workers"; "3"; "--task-deadline"; "1" ]
      ~workers:[ [ "LLHSC_FAULT=delay-result-worker@1" ] ] ()
  in
  let err = check ~name:"delay" ~base r in
  expect_notice ~name:"delay" err "deadline";

  (* Connection drop + duplicate result on one worker: it must reconnect
     (long grace keeps the floor from tripping), redo the crashed task,
     and have its duplicate suppressed by the first-wins merge. *)
  let r =
    fleet ~name:"drop-dup"
      ~dispatch_flags:[ "--wait-workers"; "30" ]
      ~workers:[ [ "LLHSC_FAULT=drop-conn-worker@1,dup-result-worker@2" ] ] ()
  in
  let err = check ~name:"drop-dup" ~base r in
  expect_notice ~name:"drop-dup" err "duplicate result";

  (* Two workers, one of which dies mid-task: the survivor absorbs the
     reassigned work with no degradation.  (Which worker draws the
     poisoned task index is a scheduling race, so only the invariants —
     exit 0 and byte-identity — are asserted.) *)
  let r =
    fleet ~name:"duo-kill" ~workers:[ [ "LLHSC_FAULT=kill-worker@1" ]; [] ] ()
  in
  ignore (check ~name:"duo-kill" ~base r);

  (* No worker ever registers: after the grace period the dispatcher
     must degrade to in-process checking and still exit 0. *)
  let r = fleet ~name:"no-workers" ~dispatch_flags:[ "--wait-workers"; "1" ] ~workers:[] () in
  let err = check ~name:"no-workers" ~base r in
  expect_notice ~name:"no-workers" err "in-process";

  (* A worker that arrives after the run is over: the dispatcher left the
     closed marker in its port file, so the worker exits 0 within a
     quarter second instead of backing off through its reconnect
     budget. *)
  let r = fleet ~name:"late-worker" ~workers:[ [] ] () in
  ignore (check ~name:"late-worker" ~base r);
  let dir = Filename.concat tmp_root "late-worker" in
  let late_err = Filename.concat dir "late.err" in
  let t0 = Unix.gettimeofday () in
  let late =
    spawn ~out:(Filename.concat dir "late.out") ~err:late_err
      [ "worker"; "--port-file"; Filename.concat dir "port"; "--max-reconnects"; "3" ]
  in
  let rec await () =
    match Unix.waitpid [ Unix.WNOHANG ] late with
    | 0, _ when Unix.gettimeofday () -. t0 < 1. ->
      Unix.sleepf 0.01;
      await ()
    | 0, _ ->
      (try Unix.kill late Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] late);
      fail "late-worker: the worker was still running 1 s after it started:\n%s"
        (read_file late_err)
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> fail "late-worker: the worker failed:\n%s" (read_file late_err)
  in
  await ();
  if not (contains_line ~needle:"llhsc worker: dispatcher finished; nothing to do" late_err)
  then fail "late-worker: the worker did not say the run was over:\n%s" (read_file late_err);

  (* A second run on the same port file, its worker started beside its
     dispatcher rather than after the port is written: the closed marker
     belongs to the first run, so the worker must join the second. *)
  let name = "port-file-reuse" in
  say "schedule: %s" name;
  let pf = Filename.concat dir "port" in
  if read_port pf <> "closed" then fail "%s: the first run left %S, not closed" name (read_port pf);
  let out = Filename.concat dir "reuse.out" and err = Filename.concat dir "reuse.err" in
  let w_err = Filename.concat dir "reuse-w.err" in
  let dpid =
    spawn ~out ~err
      (("dispatch" :: "--listen" :: "127.0.0.1:0" :: "--port-file" :: pf
        :: "--wait-workers" :: "3" :: pipeline_args))
  in
  let wpid =
    spawn ~out:(Filename.concat dir "reuse-w.out") ~err:w_err
      [ "worker"; "--port-file"; pf; "--max-reconnects"; "3" ]
  in
  let err = check ~name ~base (wait_exit ~what:"dispatcher" dpid, out, err, []) in
  expect_notice ~name err "ready";
  if contains_line ~needle:"in-process" err then
    fail "%s: the dispatcher finished without its worker:\n%s" name (read_file err);
  (match wait_exit ~what:"worker" wpid with
   | 0 when contains_line ~needle:"retired by dispatcher" w_err -> ()
   | c -> fail "%s: the worker exited %d without being retired:\n%s" name c (read_file w_err));

  (* Certify + retry flags must ship to workers and survive a worker
     loss byte-identically. *)
  let cert_flags = [ "--certify"; "--retry"; "2" ] in
  let base_cert = baseline ~name:"base-cert" cert_flags in
  let r =
    fleet ~name:"cert-kill"
      ~pipeline:(pipeline_args @ cert_flags)
      ~workers:[ [ "LLHSC_FAULT=kill-worker@1" ]; [] ] ()
  in
  ignore (check ~name:"cert-kill" ~base:base_cert r);

  (* Journal resume: a completed --jobs 1 journal replayed through the
     fleet — the skip list rides the spec, workers plan the replayed
     products as no-work, and the resumed report matches the original. *)
  let jdir = scenario_dir "journal" in
  let j1 = Filename.concat jdir "run.jsonl" in
  let code =
    run_blocking
      ~out:(Filename.concat jdir "first.txt")
      ~err:(Filename.concat jdir "first.err")
      (("pipeline" :: pipeline_args) @ [ "--jobs"; "1"; "--journal"; j1 ])
  in
  if code <> 0 then fail "journal: seeding run exited %d" code;
  let r =
    fleet ~name:"resume"
      ~dispatch_flags:[ "--journal"; j1; "--resume"; "--wait-workers"; "1" ]
      ~workers:[ [] ] ()
  in
  let err = check ~name:"resume" ~base r in
  expect_notice ~name:"resume" err "replayed from journal";

  (* Authenticated fleet: two workers complete the HMAC handshake,
     session MACs seal every frame, and the report is still
     byte-identical. *)
  let code, out, err, wpids =
    fleet ~name:"auth"
      ~dispatch_flags:[ "--secret-file"; secret_file ]
      ~worker_flags:[ "--max-reconnects"; "3"; "--secret-file"; secret_file ]
      ~workers:[ []; [] ] ()
  in
  ignore (check ~name:"auth" ~base (code, out, err, []));
  List.iter
    (fun pid ->
      match wait_exit ~what:"authed worker" pid with
      | 0 -> ()
      | c -> fail "auth: retired worker exited %d, want 0" c)
    wpids;

  (* A worker with no secret knocks on a secret-requiring dispatcher:
     its hellos are dropped with notice[AUTH], it never receives the
     spec, and the dispatcher degrades to the in-process sweep. *)
  let r =
    fleet ~name:"auth-reject"
      ~dispatch_flags:[ "--secret-file"; secret_file; "--wait-workers"; "1" ]
      ~worker_flags:[ "--max-reconnects"; "2" ]
      ~workers:[ [] ] ()
  in
  let err = check ~name:"auth-reject" ~base r in
  expect_notice ~name:"auth-reject" err "notice[AUTH]";
  expect_notice ~name:"auth-reject" err "in-process";
  expect_notice ~name:"auth-reject" err "auth: rejected";

  (* Same with the wrong secret: the mutual handshake fails on the
     worker side (the dispatcher cannot prove knowledge of the worker's
     secret), so the worker refuses the spec and vanishes; the
     dispatcher names the dropped connection and degrades. *)
  let r =
    fleet ~name:"auth-wrong-secret"
      ~dispatch_flags:[ "--secret-file"; secret_file; "--wait-workers"; "1" ]
      ~worker_flags:[ "--max-reconnects"; "2"; "--secret-file"; wrong_secret_file ]
      ~workers:[ [] ] ()
  in
  let err = check ~name:"auth-wrong-secret" ~base r in
  expect_notice ~name:"auth-wrong-secret" err "in-process";
  expect_notice ~name:"auth-wrong-secret" err "dropped during handshake: disconnected";
  expect_notice ~name:"auth-wrong-secret"
    (Filename.concat (Filename.concat tmp_root "auth-wrong-secret") "w0.err")
    "dispatcher failed authentication";

  (* A core that /include/s a file in a subdirectory: the spec records
     it under its literal include name, so the worker plans the same run
     and nothing falls back to checking in-process. *)
  let board = Filename.concat tmp_root "subdir-board" in
  copy_dir fixtures board;
  Unix.mkdir (Filename.concat board "inc") 0o700;
  Sys.rename (Filename.concat board "cpus.dtsi")
    (Filename.concat board (Filename.concat "inc" "cpus.dtsi"));
  let core = Filename.concat board "custom-sbc.dts" in
  write_file core
    (String.split_on_char '\n' (read_file core)
    |> List.map (function
         | {|/include/ "cpus.dtsi"|} -> {|/include/ "inc/cpus.dtsi"|}
         | line -> line)
    |> String.concat "\n");
  let sub_args = board_args board in
  let base_sub = baseline ~name:"base-subdir" ~pipeline:sub_args [] in
  let r =
    fleet ~name:"subdir-include" ~pipeline:sub_args
      ~dispatch_flags:[ "--wait-workers"; "5" ] ~workers:[ [] ] ()
  in
  let err = check ~name:"subdir-include" ~base:base_sub r in
  let lines = String.split_on_char '\n' (read_file err) in
  if not
       (List.exists
          (fun l ->
            contains l "llhsc dispatch: worker " && String.ends_with ~suffix:" ready" l)
          lines)
  then fail "subdir-include: no worker became ready:\n%s" (read_file err);
  if contains_line ~needle:"in-process" err then
    fail "subdir-include: the dispatcher fell back to checking in-process:\n%s"
      (read_file err);

  (* Network chaos: the worker reaches the dispatcher only through a
     seeded fault-injecting proxy (corruption, partitions, truncation,
     stalls, reorders, dups, split writes).  Authentication stays on —
     corrupted frames must read as a dead worker, never as data — and
     every seed must still produce the baseline bytes. *)
  List.iter
    (fun seed ->
      let name = Printf.sprintf "chaos-%d" seed in
      say "schedule: %s" name;
      let dir = scenario_dir name in
      let pf = Filename.concat dir "port" in
      let ppf = Filename.concat dir "proxy-port" in
      let out = Filename.concat dir "report.txt" in
      let err = Filename.concat dir "dispatch.err" in
      let dpid =
        spawn ~out ~err
          (("dispatch" :: "--listen" :: "127.0.0.1:0" :: "--port-file" :: pf
            :: "--wait-workers" :: "30" :: "--secret-file" :: secret_file :: [])
          @ pipeline_args)
      in
      wait_port_file pf;
      let proxy =
        spawn ~prog:chaosproxy
          ~out:(Filename.concat dir "proxy.out")
          ~err:(Filename.concat dir "proxy.err")
          [ "--listen"; "127.0.0.1:0";
            "--upstream"; "127.0.0.1:" ^ read_port pf; "--port-file"; ppf;
            "--seed"; string_of_int seed; "--corrupt"; "0.03"; "--drop"; "0.02";
            "--truncate"; "0.02"; "--stall"; "0.1"; "--stall-ms"; "80";
            "--reorder"; "0.05"; "--dup"; "0.05"; "--split"; "0.3" ]
      in
      wait_port_file ppf;
      let w =
        spawn
          ~out:(Filename.concat dir "w0.out")
          ~err:(Filename.concat dir "w0.err")
          [ "worker"; "--connect"; "127.0.0.1:" ^ read_port ppf;
            "--secret-file"; secret_file; "--max-reconnects"; "50" ]
      in
      let code = wait_exit ~what:"dispatcher" dpid in
      ignore (check ~name ~base (code, out, err, []));
      (try Unix.kill proxy Sys.sigterm with Unix.Unix_error _ -> ());
      reap proxy;
      reap w)
    [ 1; 2 ];

  (* Journal degradation in a fleet run.  Writes 1 and 2 are the journal
     header and the port file, so ENOSPC on write 4 hits the second
     product record: the dispatcher carries on unjournaled, and its
     report is the baseline plus one warning[JOURNAL] line.  A --resume
     must then replay nothing, although the first record is intact. *)
  let jj = Filename.concat tmp_root "enospc.jsonl" in
  let code, out, err, wpids =
    fleet ~name:"journal-enospc" ~dispatch_env:[ "LLHSC_FAULT=enospc@4" ]
      ~dispatch_flags:[ "--journal"; jj; "--wait-workers"; "30" ]
      ~workers:[ [] ] ()
  in
  if code <> 0 then fail "journal-enospc: dispatcher exited %d:\n%s" code (read_file err);
  let warnings, rest =
    List.partition
      (fun l -> contains l "warning[JOURNAL]")
      (String.split_on_char '\n' (read_file out))
  in
  if List.length warnings <> 1 || String.concat "\n" rest <> base then
    fail "journal-enospc: want the baseline plus one warning[JOURNAL] line:\n%s"
      (read_file out);
  List.iter reap wpids;
  let r =
    fleet ~name:"journal-enospc-resume"
      ~dispatch_flags:[ "--journal"; jj; "--resume"; "--wait-workers"; "1" ]
      ~workers:[] ()
  in
  let err = check ~name:"journal-enospc-resume" ~base r in
  expect_notice ~name:"journal-enospc-resume" err "resume: nothing replayable";

  (* Dispatcher crash-recovery: SIGTERM (via the journal's fault hook)
     once vm1 and vm2 are journalled, then a --resume successor on the
     same port file.  The surviving worker re-reads the port,
     re-handshakes, and the resumed run replays the two finished products
     instead of re-checking them — byte-identical to the baseline. *)
  say "schedule: term-resume";
  let dir = scenario_dir "term-resume" in
  let pf = Filename.concat dir "port" in
  let jj = Filename.concat dir "run.jsonl" in
  let out1 = Filename.concat dir "report1.txt" in
  let err1 = Filename.concat dir "dispatch1.err" in
  let dpid =
    spawn ~env:[ "LLHSC_FAULT=term-after-records@2" ] ~out:out1 ~err:err1
      (("dispatch" :: "--listen" :: "127.0.0.1:0" :: "--port-file" :: pf
        :: "--wait-workers" :: "30" :: "--journal" :: jj
        :: "--secret-file" :: secret_file :: [])
      @ pipeline_args)
  in
  wait_port_file pf;
  let w =
    spawn
      ~out:(Filename.concat dir "w0.out")
      ~err:(Filename.concat dir "w0.err")
      [ "worker"; "--port-file"; pf; "--secret-file"; secret_file;
        "--max-reconnects"; "60" ]
  in
  (match wait_exit ~what:"terminated dispatcher" dpid with
   | 143 -> ()
   | c -> fail "term-resume: dispatcher exited %d, want 143 (128+SIGTERM)" c);
  if not (Sys.file_exists jj) then fail "term-resume: no journal at %s" jj;
  Sys.remove pf;
  let out2 = Filename.concat dir "report2.txt" in
  let err2 = Filename.concat dir "dispatch2.err" in
  let dpid =
    spawn ~out:out2 ~err:err2
      (("dispatch" :: "--listen" :: "127.0.0.1:0" :: "--port-file" :: pf
        :: "--wait-workers" :: "30" :: "--journal" :: jj :: "--resume"
        :: "--secret-file" :: secret_file :: [])
      @ pipeline_args)
  in
  let code = wait_exit ~what:"resumed dispatcher" dpid in
  ignore (check ~name:"term-resume" ~base (code, out2, err2, []));
  expect_notice ~name:"term-resume" err2 "resume: replayed from journal: vm1, vm2\n";
  (match wait_exit ~what:"surviving worker" w with
   | 0 -> ()
   | c -> fail "term-resume: surviving worker exited %d, want 0 (retired)" c);

  say "fleet smoke: all schedules byte-identical, exit 0"
