(* Fault-injection harness: mutate every kind of input file llhsc consumes
   (DTS, includes, deltas, feature models, project YAML, binding schemas)
   and assert the CLI's crash contract on each mutant:

     - exit code is 0 (clean), 1 (findings) or 2 (input error) — never
       cmdliner's 124/125, never a signal;
     - stderr carries structured diagnostics, not an OCaml backtrace.

   Runs ~200 mutants from a fixed seed, so failures reproduce exactly.
   Usage: fault_inject.exe LLHSC_BINARY FIXTURES_DIR CHAOSPROXY_BINARY
          [ARTIFACT_FILE] *)

(* --- deterministic PRNG (xorshift64*, fixed seed) --------------------------- *)

let rng = ref 0x9E3779B97F4A7C15L

let rand_bits () =
  let x = !rng in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  rng := x;
  Int64.to_int (Int64.shift_right_logical x 2)

let rand_int n = if n <= 0 then 0 else rand_bits () mod n

(* --- small file helpers ------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let rec copy_dir src dst =
  if not (Sys.file_exists dst) then Unix.mkdir dst 0o755;
  Array.iter
    (fun name ->
      let s = Filename.concat src name and d = Filename.concat dst name in
      if Sys.is_directory s then copy_dir s d else write_file d (read_file s))
    (Sys.readdir src)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* --- mutators ---------------------------------------------------------------- *)

let structural = "{};=<>&,\"[]:-"

let mutate_truncate s =
  if s = "" then s else String.sub s 0 (rand_int (String.length s))

let mutate_flip_byte s =
  if s = "" then s
  else begin
    let b = Bytes.of_string s in
    let i = rand_int (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl rand_int 8)));
    Bytes.to_string b
  end

let mutate_insert_structural s =
  let i = rand_int (String.length s + 1) in
  let c = structural.[rand_int (String.length structural)] in
  String.sub s 0 i ^ String.make 1 c ^ String.sub s i (String.length s - i)

let mutate_delete_structural s =
  let idxs = ref [] in
  String.iteri (fun i c -> if String.contains structural c then idxs := i :: !idxs) s;
  match !idxs with
  | [] -> mutate_truncate s
  | idxs ->
    let idxs = Array.of_list idxs in
    let i = idxs.(rand_int (Array.length idxs)) in
    String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1)

let on_lines f s =
  let lines = String.split_on_char '\n' s in
  String.concat "\n" (f (Array.of_list lines))

let mutate_delete_line s =
  on_lines
    (fun lines ->
      if Array.length lines <= 1 then Array.to_list lines
      else
        let k = rand_int (Array.length lines) in
        List.filteri (fun i _ -> i <> k) (Array.to_list lines))
    s

let mutate_duplicate_line s =
  on_lines
    (fun lines ->
      if Array.length lines = 0 then []
      else
        let k = rand_int (Array.length lines) in
        List.concat_map
          (fun (i, l) -> if i = k then [ l; l ] else [ l ])
          (List.mapi (fun i l -> (i, l)) (Array.to_list lines)))
    s

let mutate_garbage s =
  let junk = [ "\x00\x01\xff"; "}}}}"; "/*"; "= <0x"; "\"";
               "/include/ \"missing.dtsi\";"; "4294967296999999999" ] in
  let g = List.nth junk (rand_int (List.length junk)) in
  let i = rand_int (String.length s + 1) in
  String.sub s 0 i ^ g ^ String.sub s i (String.length s - i)

let mutate_empty _ = ""

let mutators =
  [| mutate_truncate; mutate_flip_byte; mutate_insert_structural;
     mutate_delete_structural; mutate_delete_line; mutate_duplicate_line;
     mutate_garbage; mutate_empty
  |]

let mutate s = mutators.(rand_int (Array.length mutators)) s

(* --- running the CLI ---------------------------------------------------------- *)

(* Start [argv]; stdin from /dev/null, stdout devnulled unless
   [stdout_file] is given, stderr to a file.  [env] appends NAME=VALUE
   bindings (the LLHSC_FAULT schedule).  Returns the pid — the fleet
   phase runs a dispatcher and workers concurrently; everything else
   waits. *)
let spawn_cli ?env ?stdout_file binary args ~stderr_file =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let out =
    match stdout_file with
    | None -> devnull
    | Some f -> Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let err = Unix.openfile stderr_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv = Array.of_list (binary :: args) in
  let pid =
    match env with
    | None -> Unix.create_process binary argv devnull out err
    | Some bindings ->
      Unix.create_process_env binary argv
        (Array.append (Unix.environment ()) (Array.of_list bindings))
        devnull out err
  in
  Unix.close devnull;
  if out <> devnull then Unix.close out;
  Unix.close err;
  pid

(* Run [argv] to completion; returns (status, stderr). *)
let run_cli ?env ?stdout_file binary args ~stderr_file =
  let pid = spawn_cli ?env ?stdout_file binary args ~stderr_file in
  let _, status = Unix.waitpid [] pid in
  (status, read_file stderr_file)

(* Every contract violation, one reproducible line each; dumped to the
   artifact file (argv[3]) on failure so CI can upload it. *)
let failure_log : string list ref = ref []
let log_failure fmt = Printf.ksprintf (fun s -> failure_log := s :: !failure_log) fmt

(* --- targets ------------------------------------------------------------------- *)

(* (file to mutate, CLI invocation given the sandbox dir) *)
let targets dir =
  let p f = Filename.concat dir f in
  [
    ("custom-sbc.dts", [ "check"; p "custom-sbc.dts"; "--schemas"; p "schemas" ]);
    ("cpus.dtsi", [ "check"; p "custom-sbc.dts"; "--schemas"; p "schemas" ]);
    ("custom-sbc.deltas",
     [ "analyze"; "--deltas"; p "custom-sbc.deltas"; "--model"; p "custom-sbc.fm" ]);
    ("custom-sbc.fm", [ "products"; p "custom-sbc.fm" ]);
    ("custom-sbc.proj.yaml", [ "build"; p "custom-sbc.proj.yaml" ]);
    ("schemas/memory.yaml", [ "check"; p "custom-sbc.dts"; "--schemas"; p "schemas" ]);
    ("schemas/cpu.yaml", [ "check"; p "custom-sbc.dts"; "--schemas"; p "schemas" ]);
    ("custom-sbc.dts", [ "dtb"; p "custom-sbc.dts"; "-o"; p "out.dtb" ]);
    ("custom-sbc.dts",
     [ "generate"; "--core"; p "custom-sbc.dts"; "--deltas"; p "custom-sbc.deltas";
       "-f"; "memory,cpu@0"; "-o"; p "gen.dts" ]);
    ("custom-sbc.fm", [ "configure"; p "custom-sbc.fm"; "-d"; "veth0" ]);
  ]

(* --- solver-mutation phase ------------------------------------------------------ *)

(* The input mutants above attack the parsers; these attack the *solver*:
   `sat --certify --unsound KIND:N` makes the solver deliberately unsound
   (dropped learnt literals, flipped model bits, muted proof steps) and the
   contract is that certification catches every one — exit 1 with an
   error[CERT] diagnostic, never a clean exit 0 — and that every line the
   mutant prints on stderr is a whole diagnostic. *)
let solver_mutations dir =
  let p f = Filename.concat dir f in
  List.concat_map
    (fun n ->
      [ (p "unsat.cnf", Printf.sprintf "drop-lit:%d" n);
        (p "unsat.cnf", Printf.sprintf "mute-proof:%d" n);
        (p "sat.cnf", Printf.sprintf "flip-model:%d" n)
      ])
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

let run_solver_mutations binary sandbox ~failures ~total =
  let stderr_file = Filename.concat sandbox "stderr.txt" in
  let bad what reason err =
    incr failures;
    log_failure "phase=certify what=%S reason=%S" what reason;
    Printf.printf "FAIL (certify, %s): %s\n  stderr: %s\n" what reason
      (if err = "" then "(empty)" else String.trim err)
  in
  (* Honest baseline first: certification of a sound solver must pass. *)
  List.iter
    (fun cnf ->
      incr total;
      let status, err =
        run_cli binary [ "sat"; Filename.concat sandbox cnf; "--certify" ] ~stderr_file
      in
      match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n ->
        bad (cnf ^ " honest") (Printf.sprintf "exit %d (want 0)" n) err
      | Unix.WSIGNALED s | Unix.WSTOPPED s ->
        bad (cnf ^ " honest") (Printf.sprintf "signal %d" s) err)
    [ "sat.cnf"; "unsat.cnf" ];
  List.iter
    (fun (cnf, spec) ->
      incr total;
      let status, err =
        run_cli binary [ "sat"; cnf; "--certify"; "--unsound"; spec ] ~stderr_file
      in
      let what = Filename.basename cnf ^ " " ^ spec in
      let torn =
        List.filter
          (fun line -> line <> "" && not (String.starts_with ~prefix:"error[" line))
          (String.split_on_char '\n' err)
      in
      match status with
      | Unix.WEXITED 1 when torn <> [] ->
        bad what (Printf.sprintf "stderr line %S is not a diagnostic" (List.hd torn)) err
      | Unix.WEXITED 1 when contains err "[CERT]" -> ()
      | Unix.WEXITED 0 -> bad what "unsound verdict escaped certification (exit 0)" err
      | Unix.WEXITED 1 -> bad what "exit 1 but no [CERT] diagnostic on stderr" err
      | Unix.WEXITED n -> bad what (Printf.sprintf "exit %d (want 1)" n) err
      | Unix.WSIGNALED s | Unix.WSTOPPED s -> bad what (Printf.sprintf "signal %d" s) err)
    (solver_mutations sandbox)

(* --- kill-and-resume phase ------------------------------------------------------ *)

(* Crash-safety contract of the --journal/--resume pipeline: SIGKILL the
   run at a seeded point (after the n-th fsync'd record, or halfway through
   writing it), then resume from the journal; the resumed run's stdout and
   exit code must be byte-identical to an uninterrupted run.  Runs without
   --certify/--retry, whose reports legitimately depend on how much solver
   work the resumed run skipped. *)

let pipeline_args dir ~vms ~journal ~resume =
  let p f = Filename.concat dir f in
  [ "pipeline"; "--core"; p "custom-sbc.dts"; "--deltas"; p "custom-sbc.deltas";
    "--model"; p "custom-sbc.fm"; "--schemas"; p "schemas" ]
  @ List.concat_map (fun vm -> [ "--vm"; vm ]) vms
  @ [ "--exclusive"; "cpus" ]
  @ (match journal with None -> [] | Some j -> [ "--journal"; j ])
  @ (if resume then [ "--resume" ] else [])

(* (label, VM feature selections, journal records the run writes:
   one per product + one for the partition check). *)
let kill_configs =
  [ ("two-vm",
     [ "memory,cpu@0,uart@20000000,uart@30000000,veth0";
       "memory,cpu@1,uart@20000000,uart@30000000,veth1" ], 4);
    ("two-vm-partial",
     [ "memory,cpu@0,veth0"; "memory,cpu@1,veth1" ], 4);
    ("one-vm", [ "memory,cpu@0,uart@20000000" ], 3) ]

let run_kill_resume binary sandbox ~failures ~total =
  let stderr_file = Filename.concat sandbox "stderr.txt" in
  let journal = Filename.concat sandbox "journal.jsonl" in
  let base_out = Filename.concat sandbox "base.out" in
  let res_out = Filename.concat sandbox "resume.out" in
  List.iter
    (fun (label, vms, records) ->
      (* Uninterrupted baseline, no journal: the byte-identity reference. *)
      let base_status, _ =
        run_cli binary ~stdout_file:base_out
          (pipeline_args sandbox ~vms ~journal:None ~resume:false)
          ~stderr_file
      in
      let baseline = read_file base_out in
      List.iter
        (fun (hook, mode) ->
          for n = 1 to records do
            incr total;
            let what = Printf.sprintf "%s %s=%d" label mode n in
            let bad reason err =
              incr failures;
              log_failure "phase=kill-resume what=%S reason=%S" what reason;
              Printf.printf "FAIL (kill-resume, %s): %s\n  stderr: %s\n" what
                reason
                (if err = "" then "(empty)" else String.trim err)
            in
            if Sys.file_exists journal then Sys.remove journal;
            let kill_status, kerr =
              run_cli binary
                ~env:[ Printf.sprintf "LLHSC_FAULT=%s@%d" hook n ]
                (pipeline_args sandbox ~vms ~journal:(Some journal)
                   ~resume:false)
                ~stderr_file
            in
            (match kill_status with
             | Unix.WSIGNALED s when s = Sys.sigkill -> ()
             | Unix.WSIGNALED _ | Unix.WSTOPPED _ | Unix.WEXITED _ ->
               bad "kill hook did not SIGKILL the run" kerr);
            let res_status, rerr =
              run_cli binary ~stdout_file:res_out
                (pipeline_args sandbox ~vms ~journal:(Some journal)
                   ~resume:true)
                ~stderr_file
            in
            if res_status <> base_status then
              bad
                (Printf.sprintf "resumed exit differs from baseline (%s vs %s)"
                   (match res_status with
                    | Unix.WEXITED n -> string_of_int n
                    | _ -> "signal")
                   (match base_status with
                    | Unix.WEXITED n -> string_of_int n
                    | _ -> "signal"))
                rerr
            else if read_file res_out <> baseline then
              bad "resumed report is not byte-identical to baseline" rerr
          done)
        [ ("kill-after-records", "after"); ("kill-mid-record", "mid") ])
    kill_configs

(* --- kill-a-worker phase -------------------------------------------------------- *)

(* Self-healing contract: SIGKILL the worker dispatched the n-th task
   (kill-worker@n, in Shard).  The supervised pool must reassign the
   task, quarantine it after a second crash and retry it in-process, so
   EVERY kill index — in range or not — yields exit 0, a report
   byte-identical to the unkilled run, and zero error[WORKER]
   diagnostics; an index in range must also leave its reassignment
   notice, or a kill that never fired would pass too.  In
   single-process mode (--jobs 1) the hook is inert. *)
let run_kill_worker binary sandbox ~failures ~total =
  let stderr_file = Filename.concat sandbox "stderr.txt" in
  let out_file = Filename.concat sandbox "worker.out" in
  let base_out = Filename.concat sandbox "worker-base.out" in
  let vms =
    [ "memory,cpu@0,uart@20000000,uart@30000000,veth0";
      "memory,cpu@1,uart@20000000,uart@30000000,veth1" ]
  in
  let args jobs =
    pipeline_args sandbox ~vms ~journal:None ~resume:false @ [ "--jobs"; jobs ]
  in
  (* Two check tasks per product (vm1, vm2, platform). *)
  let tasks = 6 in
  let bad what reason err =
    incr failures;
    log_failure "phase=kill-worker what=%S reason=%S" what reason;
    Printf.printf "FAIL (kill-worker, %s): %s\n  stderr: %s\n" what reason
      (if err = "" then "(empty)" else String.trim err)
  in
  (* Unkilled baseline; --jobs determinism makes it the reference for the
     --jobs 1 hook-inertness check too. *)
  let base_status, base_err = run_cli binary ~stdout_file:base_out (args "4") ~stderr_file in
  (match base_status with
   | Unix.WEXITED 0 -> ()
   | _ -> bad "baseline" "unkilled --jobs 4 pipeline did not exit 0" base_err);
  let baseline = read_file base_out in
  List.iter
    (fun n ->
      incr total;
      let what = Printf.sprintf "task=%d jobs=4" n in
      let status, err =
        run_cli binary
          ~env:[ Printf.sprintf "LLHSC_FAULT=kill-worker@%d" n ]
          ~stdout_file:out_file (args "4") ~stderr_file
      in
      let stdout = read_file out_file in
      (match status with
       | Unix.WEXITED 0 when stdout = baseline -> ()
       | Unix.WEXITED 0 -> bad what "clean exit but report differs from unkilled run" err
       | Unix.WEXITED c ->
         bad what (Printf.sprintf "exit %d (self-healing pool must recover to 0)" c) err
       | Unix.WSIGNALED s -> bad what (Printf.sprintf "parent killed by signal %d" s) err
       | Unix.WSTOPPED s -> bad what (Printf.sprintf "parent stopped by signal %d" s) err);
      if contains stdout "error[WORKER]" then
        bad what "reassignment left an error[WORKER] diagnostic" err;
      if n < tasks && not (contains err (Printf.sprintf "reassigning task %d (" n)) then
        bad what (Printf.sprintf "no \"reassigning task %d\" notice on stderr" n) err;
      if contains err "Fatal error" || contains err "Raised at" then
        bad what "uncaught OCaml exception on stderr" err)
    [ 0; 1; 2; 3; 4; 5; 6; 7; 64 ];
  incr total;
  let status, err =
    run_cli binary
      ~env:[ "LLHSC_FAULT=kill-worker@0" ]
      ~stdout_file:out_file (args "1") ~stderr_file
  in
  (match status with
   | Unix.WEXITED 0 when read_file out_file = baseline -> ()
   | Unix.WEXITED 0 -> bad "jobs=1" "hook changed the single-process report" err
   | _ -> bad "jobs=1" "kill hook fired with --jobs 1 (must be inert)" err)

(* --- supervision phase ----------------------------------------------------------- *)

(* The rest of the self-healing contract: hung workers (heartbeats stop)
   are killed at the task deadline and their tasks reassigned; respawn
   budget exhaustion falls back to in-process checking; a worker that
   trips its RLIMIT_AS guard degrades the task to error[RESOURCE];
   crash recovery composes with --certify/--retry byte-identically; and
   the duplicate-result, connection-drop and delayed-result hooks are
   recovered from in forked workers as in fleet ones. *)
let run_supervision binary sandbox ~failures ~total =
  let stderr_file = Filename.concat sandbox "stderr.txt" in
  let out_file = Filename.concat sandbox "supervision.out" in
  let base_out = Filename.concat sandbox "supervision-base.out" in
  let vms =
    [ "memory,cpu@0,uart@20000000,uart@30000000,veth0";
      "memory,cpu@1,uart@20000000,uart@30000000,veth1" ]
  in
  let args extra =
    pipeline_args sandbox ~vms ~journal:None ~resume:false @ extra
  in
  let bad what reason err =
    incr failures;
    log_failure "phase=supervision what=%S reason=%S" what reason;
    Printf.printf "FAIL (supervision, %s): %s\n  stderr: %s\n" what reason
      (if err = "" then "(empty)" else String.trim err)
  in
  let baseline_of extra =
    let status, err =
      run_cli binary ~stdout_file:base_out (args extra) ~stderr_file
    in
    (match status with
     | Unix.WEXITED 0 -> ()
     | _ -> bad "baseline" "undisturbed --jobs 1 pipeline did not exit 0" err);
    read_file base_out
  in
  (* Expect a disturbed run to recover: exit 0, byte-identical stdout,
     no error[WORKER], no backtrace; [expect_err] must appear on stderr. *)
  let expect_recovery what ~env ~extra ~baseline ?expect_err () =
    incr total;
    let status, err = run_cli binary ~env ~stdout_file:out_file (args extra) ~stderr_file in
    let stdout = read_file out_file in
    (match status with
     | Unix.WEXITED 0 when stdout = baseline -> ()
     | Unix.WEXITED 0 -> bad what "recovered exit but report differs from baseline" err
     | Unix.WEXITED c -> bad what (Printf.sprintf "exit %d (want 0)" c) err
     | Unix.WSIGNALED s -> bad what (Printf.sprintf "parent killed by signal %d" s) err
     | Unix.WSTOPPED s -> bad what (Printf.sprintf "parent stopped by signal %d" s) err);
    if contains stdout "error[WORKER]" then
      bad what "recovery left an error[WORKER] diagnostic" err;
    (match expect_err with
     | Some needle when not (contains err needle) ->
       bad what (Printf.sprintf "expected %S notice on stderr" needle) err
     | _ -> ());
    if contains err "Fatal error" || contains err "Raised at" then
      bad what "uncaught OCaml exception on stderr" err
  in
  let plain_baseline = baseline_of [ "--jobs"; "1" ] in
  (* Hung workers: every seeded hang index must be recovered through the
     deadline/reassign path. *)
  List.iter
    (fun n ->
      expect_recovery
        (Printf.sprintf "hang task=%d" n)
        ~env:[ Printf.sprintf "LLHSC_FAULT=hang-worker@%d" n ]
        ~extra:[ "--jobs"; "2"; "--task-deadline"; "1" ]
        ~baseline:plain_baseline ~expect_err:"deadline" ())
    [ 0; 2; 5 ];
  (* Respawn exhaustion: no replacement workers allowed, so the pool must
     finish the remaining tasks in-process. *)
  expect_recovery "respawn-exhaustion"
    ~env:[ "LLHSC_FAULT=kill-worker@0" ]
    ~extra:[ "--jobs"; "2"; "--max-respawns"; "0" ]
    ~baseline:plain_baseline ~expect_err:"exhausted" ();
  (* Crash recovery composes with certification and retry: the disturbed
     report must still carry identical certificate/escalation stats. *)
  let cr_flags = [ "--certify"; "--unsound"; "force-unknown:3"; "--retry"; "3" ] in
  let cr_baseline = baseline_of ([ "--jobs"; "1" ] @ cr_flags) in
  expect_recovery "kill under certify+retry"
    ~env:[ "LLHSC_FAULT=kill-worker@1" ]
    ~extra:([ "--jobs"; "2" ] @ cr_flags)
    ~baseline:cr_baseline ~expect_err:"reassigning task 1 (" ();
  expect_recovery "hang under certify+retry"
    ~env:[ "LLHSC_FAULT=hang-worker@1" ]
    ~extra:([ "--jobs"; "2"; "--task-deadline"; "1" ] @ cr_flags)
    ~baseline:cr_baseline ~expect_err:"deadline" ();
  (* RLIMIT_AS guard: the OOM-injected task degrades to error[RESOURCE]
     (exit 2), never to error[WORKER], and never crashes the parent. *)
  incr total;
  let status, err =
    run_cli binary
      ~env:[ "LLHSC_FAULT=oom-worker@0" ]
      ~stdout_file:out_file
      (args [ "--jobs"; "2"; "--mem-limit"; "512" ])
      ~stderr_file
  in
  let stdout = read_file out_file in
  (match status with
   | Unix.WEXITED 2 when contains stdout "error[RESOURCE]" -> ()
   | Unix.WEXITED 2 -> bad "rlimit-oom" "exit 2 but no error[RESOURCE] diagnostic" err
   | Unix.WEXITED c -> bad "rlimit-oom" (Printf.sprintf "exit %d (want 2)" c) err
   | Unix.WSIGNALED s -> bad "rlimit-oom" (Printf.sprintf "parent killed by signal %d" s) err
   | Unix.WSTOPPED s -> bad "rlimit-oom" (Printf.sprintf "parent stopped by signal %d" s) err);
  if contains stdout "error[WORKER]" then
    bad "rlimit-oom" "OOM degraded to error[WORKER] instead of error[RESOURCE]" err;
  if contains err "Fatal error" || contains err "Raised at" then
    bad "rlimit-oom" "uncaught OCaml exception on stderr" err;
  (* The fleet's worker hooks fire in forked workers too, since both
     run the same task loop: a duplicate result is ignored first-wins, a
     dropped connection is the child's death (reassign, respawn), and a
     result held past the deadline is reassigned. *)
  List.iter
    (fun n ->
      expect_recovery
        (Printf.sprintf "jobs=2 dup-result task=%d" n)
        ~env:[ Printf.sprintf "LLHSC_FAULT=dup-result-worker@%d" n ]
        ~extra:[ "--jobs"; "2" ]
        ~baseline:plain_baseline ~expect_err:"duplicate result" ())
    [ 0; 2 ];
  List.iter
    (fun n ->
      expect_recovery
        (Printf.sprintf "jobs=2 drop-conn task=%d" n)
        ~env:[ Printf.sprintf "LLHSC_FAULT=drop-conn-worker@%d" n ]
        ~extra:[ "--jobs"; "2" ]
        ~baseline:plain_baseline ~expect_err:"reassigning" ())
    [ 0; 1 ];
  expect_recovery "jobs=2 delay-result task=1"
    ~env:[ "LLHSC_FAULT=delay-result-worker@1" ]
    ~extra:[ "--jobs"; "2"; "--task-deadline"; "1" ]
    ~baseline:plain_baseline ~expect_err:"deadline" ();
  (* The hooks are inert without workers: a --jobs 1 run with every hook
     set must be byte-identical to the undisturbed baseline. *)
  expect_recovery "hooks inert in-process"
    ~env:
      [ "LLHSC_FAULT=hang-worker@0,oom-worker@0,dup-result-worker@0,\
         drop-conn-worker@0,delay-result-worker@0" ]
    ~extra:[ "--jobs"; "1" ]
    ~baseline:plain_baseline ()

(* --- fleet phase ----------------------------------------------------------------- *)

(* Socket-transport half of the self-healing contract: a real dispatcher
   and a real worker over a loopback socket, with the worker-side fault
   hooks — connection drop, result delayed past the lease deadline,
   duplicate result — injected at seeded task indices (in range or not).
   Every schedule must exit 0 with a report byte-identical to the
   --jobs 1 baseline: reassignment, reconnection and first-wins
   duplicate suppression are invisible in the merge. *)
let run_fleet binary sandbox ~failures ~total =
  let stderr_file = Filename.concat sandbox "fleet-dispatch.err" in
  let out_file = Filename.concat sandbox "fleet.out" in
  let base_out = Filename.concat sandbox "fleet-base.out" in
  let port_file = Filename.concat sandbox "fleet.port" in
  let vms =
    [ "memory,cpu@0,uart@20000000,uart@30000000,veth0";
      "memory,cpu@1,uart@20000000,uart@30000000,veth1" ]
  in
  let bad what reason err =
    incr failures;
    log_failure "phase=fleet what=%S reason=%S" what reason;
    Printf.printf "FAIL (fleet, %s): %s\n  stderr: %s\n" what reason
      (if err = "" then "(empty)" else String.trim err)
  in
  let base_status, base_err =
    run_cli binary ~stdout_file:base_out
      (pipeline_args sandbox ~vms ~journal:None ~resume:false @ [ "--jobs"; "1" ])
      ~stderr_file
  in
  (match base_status with
   | Unix.WEXITED 0 -> ()
   | _ -> bad "baseline" "undisturbed --jobs 1 pipeline did not exit 0" base_err);
  let baseline = read_file base_out in
  let wait_port () =
    let rec go tries =
      if Sys.file_exists port_file && (Unix.stat port_file).Unix.st_size > 0 then true
      else if tries = 0 then false
      else begin
        Unix.sleepf 0.1;
        go (tries - 1)
      end
    in
    go 100
  in
  (* Reap a worker, SIGKILLing it if it does not exit on its own. *)
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
  in
  let schedule what ~env ~flags =
    incr total;
    if Sys.file_exists port_file then Sys.remove port_file;
    let dispatch_args =
      "dispatch" :: "--listen" :: "127.0.0.1:0" :: "--port-file" :: port_file
      :: flags
      @ List.tl (pipeline_args sandbox ~vms ~journal:None ~resume:false)
    in
    let dpid = spawn_cli binary ~stdout_file:out_file dispatch_args ~stderr_file in
    if not (wait_port ()) then begin
      (try Unix.kill dpid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] dpid);
      bad what "dispatcher never wrote its port file" (read_file stderr_file)
    end
    else begin
      let wpid =
        spawn_cli binary ~env
          [ "worker"; "--port-file"; port_file; "--max-reconnects"; "3" ]
          ~stderr_file:(Filename.concat sandbox "fleet-worker.err")
      in
      let _, status = Unix.waitpid [] dpid in
      let err = read_file stderr_file in
      let stdout = read_file out_file in
      (match status with
       | Unix.WEXITED 0 when stdout = baseline -> ()
       | Unix.WEXITED 0 -> bad what "clean exit but report differs from --jobs 1 run" err
       | Unix.WEXITED c -> bad what (Printf.sprintf "exit %d (want 0)" c) err
       | Unix.WSIGNALED s -> bad what (Printf.sprintf "dispatcher killed by signal %d" s) err
       | Unix.WSTOPPED s -> bad what (Printf.sprintf "dispatcher stopped by signal %d" s) err);
      if contains stdout "error[WORKER]" then
        bad what "fleet recovery left an error[WORKER] diagnostic" err;
      if contains err "Fatal error" || contains err "Raised at" then
        bad what "uncaught OCaml exception on stderr" err;
      reap wpid
    end
  in
  (* Connection drops: the worker must reconnect and redo the crashed
     task (the long grace keeps the fleet floor from tripping); an
     out-of-range index leaves the hook inert. *)
  List.iter
    (fun n ->
      schedule
        (Printf.sprintf "drop-conn task=%d" n)
        ~env:[ Printf.sprintf "LLHSC_FAULT=drop-conn-worker@%d" n ]
        ~flags:[ "--wait-workers"; "30" ])
    [ 0; 1; 64 ];
  (* A result delayed past the lease deadline: reassigned, and the late
     copy lands on a closed socket without upsetting the merge. *)
  schedule "delay-result task=1"
    ~env:[ "LLHSC_FAULT=delay-result-worker@1" ]
    ~flags:[ "--wait-workers"; "3"; "--task-deadline"; "1" ];
  (* Duplicate results: the second copy must be suppressed first-wins. *)
  List.iter
    (fun n ->
      schedule
        (Printf.sprintf "dup-result task=%d" n)
        ~env:[ Printf.sprintf "LLHSC_FAULT=dup-result-worker@%d" n ]
        ~flags:[ "--wait-workers"; "30" ])
    [ 0; 2 ]

(* --- network-chaos phase --------------------------------------------------------- *)

(* The dispatcher/worker link runs through the seeded fault-injecting
   TCP proxy of the fleet tests (test/fleet/chaosproxy.ml) (corruption, partitions, truncation,
   stalls, reorders, duplicated and split writes), with authentication
   on.  The contract: every damaged frame collapses to dead-worker
   handling, the run still exits 0 with the baseline bytes, and nothing
   ever crashes. *)
let run_network_chaos binary ~chaosproxy sandbox ~failures ~total =
  let stderr_file = Filename.concat sandbox "chaos-dispatch.err" in
  let out_file = Filename.concat sandbox "chaos.out" in
  let base_out = Filename.concat sandbox "chaos-base.out" in
  let port_file = Filename.concat sandbox "chaos.port" in
  let proxy_port_file = Filename.concat sandbox "chaos-proxy.port" in
  let secret_file = Filename.concat sandbox "chaos.secret" in
  write_file secret_file "fault-harness-secret\n";
  let vms =
    [ "memory,cpu@0,uart@20000000,uart@30000000,veth0";
      "memory,cpu@1,uart@20000000,uart@30000000,veth1" ]
  in
  let bad what reason err =
    incr failures;
    log_failure "phase=network-chaos what=%S reason=%S" what reason;
    Printf.printf "FAIL (network-chaos, %s): %s\n  stderr: %s\n" what reason
      (if err = "" then "(empty)" else String.trim err)
  in
  let base_status, base_err =
    run_cli binary ~stdout_file:base_out
      (pipeline_args sandbox ~vms ~journal:None ~resume:false @ [ "--jobs"; "1" ])
      ~stderr_file
  in
  (match base_status with
   | Unix.WEXITED 0 -> ()
   | _ -> bad "baseline" "undisturbed --jobs 1 pipeline did not exit 0" base_err);
  let baseline = read_file base_out in
  let wait_file path =
    let rec go tries =
      if Sys.file_exists path && (Unix.stat path).Unix.st_size > 0 then true
      else if tries = 0 then false
      else begin
        Unix.sleepf 0.1;
        go (tries - 1)
      end
    in
    go 100
  in
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
  in
  let kill_now pid =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  let schedule seed =
    incr total;
    let what = Printf.sprintf "chaos seed=%d" seed in
    List.iter
      (fun f -> if Sys.file_exists f then Sys.remove f)
      [ port_file; proxy_port_file ];
    let dpid =
      spawn_cli binary ~stdout_file:out_file
        ("dispatch" :: "--listen" :: "127.0.0.1:0" :: "--port-file" :: port_file
         :: "--wait-workers" :: "30" :: "--secret-file" :: secret_file
         :: List.tl (pipeline_args sandbox ~vms ~journal:None ~resume:false))
        ~stderr_file
    in
    if not (wait_file port_file) then begin
      kill_now dpid;
      bad what "dispatcher never wrote its port file" (read_file stderr_file)
    end
    else begin
      let ppid =
        spawn_cli chaosproxy
          [ "--listen"; "127.0.0.1:0";
            "--upstream"; "127.0.0.1:" ^ String.trim (read_file port_file);
            "--port-file"; proxy_port_file; "--seed"; string_of_int seed;
            "--corrupt"; "0.03"; "--drop"; "0.02"; "--truncate"; "0.02";
            "--stall"; "0.1"; "--stall-ms"; "80"; "--reorder"; "0.05";
            "--dup"; "0.05"; "--split"; "0.3" ]
          ~stderr_file:(Filename.concat sandbox "chaos-proxy.err")
      in
      if not (wait_file proxy_port_file) then begin
        kill_now ppid;
        kill_now dpid;
        bad what "chaos proxy never wrote its port file"
          (read_file (Filename.concat sandbox "chaos-proxy.err"))
      end
      else begin
        let wpid =
          spawn_cli binary
            [ "worker";
              "--connect"; "127.0.0.1:" ^ String.trim (read_file proxy_port_file);
              "--secret-file"; secret_file; "--max-reconnects"; "50" ]
            ~stderr_file:(Filename.concat sandbox "chaos-worker.err")
        in
        let _, status = Unix.waitpid [] dpid in
        let err = read_file stderr_file in
        let stdout = read_file out_file in
        (match status with
         | Unix.WEXITED 0 when stdout = baseline -> ()
         | Unix.WEXITED 0 -> bad what "clean exit but report differs from --jobs 1 run" err
         | Unix.WEXITED c -> bad what (Printf.sprintf "exit %d (want 0)" c) err
         | Unix.WSIGNALED s -> bad what (Printf.sprintf "dispatcher killed by signal %d" s) err
         | Unix.WSTOPPED s -> bad what (Printf.sprintf "dispatcher stopped by signal %d" s) err);
        if contains stdout "error[WORKER]" then
          bad what "chaos recovery left an error[WORKER] diagnostic" err;
        if contains err "Fatal error" || contains err "Raised at" then
          bad what "uncaught OCaml exception on stderr" err;
        (try Unix.kill ppid Sys.sigterm with Unix.Unix_error _ -> ());
        reap ppid;
        reap wpid
      end
    end
  in
  List.iter schedule [ 1; 2; 3 ]

(* --- forced-Unknown phase ------------------------------------------------------- *)

(* Inject Unknown verdicts (a budget-style degradation, not an
   unsoundness) every n-th solver call, with and without the escalation
   ladder.  The contract: the exit-code contract holds, nothing crashes,
   and a saturating injection (n=1, every attempt Unknown) degrades to
   "inconclusive" warnings — never a fake verdict, never a backtrace. *)
let run_forced_unknown binary sandbox ~failures ~total =
  let stderr_file = Filename.concat sandbox "stderr.txt" in
  let out_file = Filename.concat sandbox "unknown.out" in
  let vms =
    [ "memory,cpu@0,uart@20000000,uart@30000000,veth0";
      "memory,cpu@1,uart@20000000,uart@30000000,veth1" ]
  in
  List.iter
    (fun (n, retry) ->
      incr total;
      let what =
        Printf.sprintf "force-unknown:%d%s" n
          (match retry with Some r -> " --retry " ^ r | None -> "")
      in
      let bad reason err =
        incr failures;
        log_failure "phase=force-unknown what=%S reason=%S" what reason;
        Printf.printf "FAIL (force-unknown, %s): %s\n  stderr: %s\n" what reason
          (if err = "" then "(empty)" else String.trim err)
      in
      let args =
        pipeline_args sandbox ~vms ~journal:None ~resume:false
        @ [ "--unsound"; Printf.sprintf "force-unknown:%d" n ]
        @ (match retry with Some r -> [ "--retry"; r ] | None -> [])
      in
      let status, err = run_cli binary ~stdout_file:out_file args ~stderr_file in
      let stdout = read_file out_file in
      (match status with
       | Unix.WEXITED (0 | 1 | 2) -> ()
       | Unix.WEXITED c -> bad (Printf.sprintf "exit code %d" c) err
       | Unix.WSIGNALED s -> bad (Printf.sprintf "killed by signal %d" s) err
       | Unix.WSTOPPED s -> bad (Printf.sprintf "stopped by signal %d" s) err);
      if contains err "Fatal error" || contains err "Raised at" then
        bad "uncaught OCaml exception on stderr" err;
      (* Saturating injection: every solve attempt (retries included)
         returns Unknown, so the run must degrade to inconclusive
         warnings rather than claim a verdict. *)
      if n = 1 && not (contains stdout "inconclusive") then
        bad "saturating Unknown produced no inconclusive warning" err)
    (List.concat_map
       (fun n -> [ (n, None); (n, Some "3") ])
       [ 1; 2; 3; 5 ])

(* --- disk-fault phase ----------------------------------------------------------- *)

(* Storage contract (the disk kinds of LLHSC_FAULT, fired in
   lib/llhsc/durable.ml): under any seeded disk fault the checker never
   crashes mid-check and never pretends data is durable when it is not.

   - [enospc@n]/[eio-fsync@n] on a journaled run: the journal degrades,
     the run completes with its baseline exit code, the report carries a
     warning[JOURNAL] line and is otherwise byte-identical to baseline;
     a subsequent --resume refuses the degraded journal, re-checks
     everything, and reproduces the baseline report byte-for-byte.
   - [erofs@1] on the journal open: structured error[IO], exit 2.
   - [short@1] during an atomic output commit: structured error[IO],
     exit 2, and the previous output file contents survive untouched.
   - [crash-rename@1] during an atomic output commit: the process dies
     of the injected SIGKILL and the previous contents survive — the
     reader never sees a torn half-file. *)
let run_disk_faults binary sandbox ~failures ~total =
  let stderr_file = Filename.concat sandbox "stderr.txt" in
  let journal = Filename.concat sandbox "journal.jsonl" in
  let base_out = Filename.concat sandbox "disk-base.out" in
  let out_file = Filename.concat sandbox "disk.out" in
  let res_out = Filename.concat sandbox "disk-resume.out" in
  let bad what reason err =
    incr failures;
    log_failure "phase=disk what=%S reason=%S" what reason;
    Printf.printf "FAIL (disk, %s): %s\n  stderr: %s\n" what reason
      (if err = "" then "(empty)" else String.trim err)
  in
  let exit_str = function
    | Unix.WEXITED n -> string_of_int n
    | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
    | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s
  in
  let strip_journal_warning s =
    String.split_on_char '\n' s
    |> List.filter (fun l -> not (contains l "warning[JOURNAL]"))
    |> String.concat "\n"
  in
  List.iter
    (fun (label, vms, records) ->
      let base_status, _ =
        run_cli binary ~stdout_file:base_out
          (pipeline_args sandbox ~vms ~journal:None ~resume:false)
          ~stderr_file
      in
      let baseline = read_file base_out in
      (* Every write and every fsync the journal performs (header +
         [records] records) fails in turn: fail-operational, loudly. *)
      List.iter
        (fun kind ->
          for n = 1 to records + 1 do
            incr total;
            let what = Printf.sprintf "%s %s@%d" label kind n in
            if Sys.file_exists journal then Sys.remove journal;
            let status, err =
              run_cli binary ~stdout_file:out_file
                ~env:[ Printf.sprintf "LLHSC_FAULT=%s@%d" kind n ]
                (pipeline_args sandbox ~vms ~journal:(Some journal) ~resume:false)
                ~stderr_file
            in
            let stdout = read_file out_file in
            if contains err "Fatal error" || contains err "Raised at" then
              bad what "uncaught OCaml exception on stderr" err
            else if status <> base_status then
              bad what
                (Printf.sprintf "exit %s under a journal fault (baseline %s)"
                   (exit_str status) (exit_str base_status))
                err
            else if not (contains stdout "warning[JOURNAL]") then
              bad what "journal write fault degraded silently (no warning[JOURNAL])"
                err
            else if strip_journal_warning stdout <> baseline then
              bad what "degraded report differs beyond the JOURNAL warning" err
            else begin
              (* The degraded journal must be refused: the resume
                 re-checks everything and reproduces the baseline. *)
              incr total;
              let res_status, rerr =
                run_cli binary ~stdout_file:res_out
                  (pipeline_args sandbox ~vms ~journal:(Some journal) ~resume:true)
                  ~stderr_file
              in
              if res_status <> base_status then
                bad (what ^ " resume")
                  (Printf.sprintf "resumed exit %s (baseline %s)"
                     (exit_str res_status) (exit_str base_status))
                  rerr
              else if read_file res_out <> baseline then
                bad (what ^ " resume")
                  "resume after degradation is not byte-identical to baseline" rerr
              else if not (contains rerr "not trusting it") then
                bad (what ^ " resume") "no degradation notice on resume stderr" rerr
            end
          done)
        [ "enospc"; "eio-fsync" ];
      (* Read-only journal directory: a structured input error, never a
         crash or a silently unjournaled run. *)
      incr total;
      if Sys.file_exists journal then Sys.remove journal;
      let status, err =
        run_cli binary ~stdout_file:out_file ~env:[ "LLHSC_FAULT=erofs@1" ]
          (pipeline_args sandbox ~vms ~journal:(Some journal) ~resume:false)
          ~stderr_file
      in
      (match status with
       | Unix.WEXITED 2 when contains err "error[IO]" -> ()
       | Unix.WEXITED 2 -> bad (label ^ " erofs") "exit 2 but no error[IO] on stderr" err
       | s -> bad (label ^ " erofs") (Printf.sprintf "exit %s (want 2)" (exit_str s)) err))
    kill_configs;
  (* Atomic output commit: generate -o through the durable write path. *)
  let gen = Filename.concat sandbox "gen.dts" in
  let gen_args =
    [ "generate"; "--core"; Filename.concat sandbox "custom-sbc.dts";
      "--deltas"; Filename.concat sandbox "custom-sbc.deltas";
      "-f"; "memory,cpu@0"; "-o"; gen ]
  in
  List.iter
    (fun (kind, check) ->
      incr total;
      write_file gen "previous contents\n";
      let status, err =
        run_cli binary ~env:[ "LLHSC_FAULT=" ^ kind ] gen_args ~stderr_file
      in
      check status err;
      if read_file gen <> "previous contents\n" then
        bad ("generate " ^ kind) "previous output contents did not survive the fault"
          err)
    [ ("short@1",
       fun status err ->
         match status with
         | Unix.WEXITED 2 when contains err "error[IO]" -> ()
         | s ->
           bad "generate short@1"
             (Printf.sprintf "exit %s (want 2 with error[IO])" (exit_str s)) err);
      ("crash-rename@1",
       fun status err ->
         match status with
         | Unix.WSIGNALED s when s = Sys.sigkill -> ()
         | s ->
           bad "generate crash-rename@1"
             (Printf.sprintf "exit %s (want the injected SIGKILL)" (exit_str s)) err)
    ];
  (* And with the fault cleared the same command commits atomically. *)
  incr total;
  let status, err = run_cli binary gen_args ~stderr_file in
  (match status with
   | Unix.WEXITED 0 when read_file gen <> "previous contents\n" && read_file gen <> "" -> ()
   | Unix.WEXITED 0 -> bad "generate clean" "output was never replaced" err
   | s -> bad "generate clean" (Printf.sprintf "exit %s (want 0)" (exit_str s)) err)

let () =
  let binary, fixtures, chaosproxy, artifact =
    match Sys.argv with
    | [| _; b; f; c |] -> (b, f, c, None)
    | [| _; b; f; c; a |] -> (b, f, c, Some a)
    | _ ->
      prerr_endline
        "usage: fault_inject.exe LLHSC_BINARY FIXTURES_DIR CHAOSPROXY_BINARY \
         [ARTIFACT_FILE]";
      exit 2
  in
  let rounds = 20 in (* x 10 targets = 200 mutants *)
  let failures = ref 0 in
  let total = ref 0 in
  let sandbox = Filename.concat (Filename.get_temp_dir_name ()) "llhsc-fault" in
  for round = 1 to rounds do
    List.iter
      (fun (victim, args) ->
        incr total;
        if Sys.file_exists sandbox then remove_tree sandbox;
        copy_dir fixtures sandbox;
        let victim_path = Filename.concat sandbox victim in
        (* Snapshot the PRNG state before mutating: the logged state plus
           round/victim pins the surviving mutant exactly. *)
        let rng_state = !rng in
        write_file victim_path (mutate (read_file victim_path));
        let stderr_file = Filename.concat sandbox "stderr.txt" in
        let status, err = run_cli binary args ~stderr_file in
        let bad reason =
          incr failures;
          log_failure "phase=input round=%d victim=%s rng=0x%Lx reason=%S argv=%S"
            round victim rng_state reason (String.concat " " args);
          Printf.printf "FAIL (round %d, %s): %s\n  argv: %s\n  stderr: %s\n" round
            victim reason (String.concat " " args)
            (if err = "" then "(empty)" else String.trim err)
        in
        (match status with
         | Unix.WEXITED (0 | 1 | 2) -> ()
         | Unix.WEXITED n -> bad (Printf.sprintf "exit code %d" n)
         | Unix.WSIGNALED s -> bad (Printf.sprintf "killed by signal %d" s)
         | Unix.WSTOPPED s -> bad (Printf.sprintf "stopped by signal %d" s));
        if contains err "Fatal error" || contains err "Raised at" || contains err "Raised by"
        then bad "uncaught OCaml exception on stderr")
      (targets sandbox)
  done;
  (* Solver-mutation phase: pristine fixtures, mutated *solver*. *)
  if Sys.file_exists sandbox then remove_tree sandbox;
  copy_dir fixtures sandbox;
  run_solver_mutations binary sandbox ~failures ~total;
  (* Kill-and-resume phase: SIGKILL at every seeded journal record, resume,
     demand a byte-identical report. *)
  if Sys.file_exists sandbox then remove_tree sandbox;
  copy_dir fixtures sandbox;
  run_kill_resume binary sandbox ~failures ~total;
  (* Disk-fault phase: seeded ENOSPC/EIO/short-write/read-only/crash
     schedules through the durable I/O layer; degradation must be loud,
     resumable state trustworthy, atomic commits all-or-nothing. *)
  if Sys.file_exists sandbox then remove_tree sandbox;
  copy_dir fixtures sandbox;
  run_disk_faults binary sandbox ~failures ~total;
  (* Kill-a-worker phase: SIGKILL a forked check worker at every seeded
     task index, demand isolated WORKER diagnostics and a live parent. *)
  if Sys.file_exists sandbox then remove_tree sandbox;
  copy_dir fixtures sandbox;
  run_kill_worker binary sandbox ~failures ~total;
  (* Supervision phase: hung workers, respawn exhaustion, rlimit OOM, and
     crash recovery under --certify/--retry. *)
  if Sys.file_exists sandbox then remove_tree sandbox;
  copy_dir fixtures sandbox;
  run_supervision binary sandbox ~failures ~total;
  (* Fleet phase: the same recovery contract over the socket transport —
     connection drops, late results, duplicate results. *)
  if Sys.file_exists sandbox then remove_tree sandbox;
  copy_dir fixtures sandbox;
  run_fleet binary sandbox ~failures ~total;
  (* Network-chaos phase: the fleet link through the seeded
     fault-injecting proxy, authentication on. *)
  if Sys.file_exists sandbox then remove_tree sandbox;
  copy_dir fixtures sandbox;
  run_network_chaos binary ~chaosproxy sandbox ~failures ~total;
  (* Forced-Unknown phase: saturate the solver with Unknown verdicts, with
     and without the escalation ladder. *)
  if Sys.file_exists sandbox then remove_tree sandbox;
  copy_dir fixtures sandbox;
  run_forced_unknown binary sandbox ~failures ~total;
  if Sys.file_exists sandbox then remove_tree sandbox;
  (match artifact with
   | Some path when !failures > 0 ->
     write_file path (String.concat "\n" (List.rev !failure_log) ^ "\n");
     Printf.printf "surviving-mutant log written to %s\n" path
   | _ -> ());
  Printf.printf "fault injection: %d mutants, %d contract violations\n" !total !failures;
  if !failures > 0 then exit 1
