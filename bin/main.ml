(* llhsc — DeviceTree syntax and semantic checker (command-line front end).

   Subcommands:
     check     parse a DTS and run the syntactic + semantic checkers
     products  analyse a feature model (count/enumerate/dead features)
     generate  apply delta modules for a feature selection, emit the DTS
     pipeline  full workflow: alloc + generation + checks + Bao configs
     dtb       compile DTS to a flattened DTB (or decompile with -d)
     demo      run the paper's running example end to end *)

let read_file = Llhsc.Util.read_file

(* Every artifact the CLI emits (generated DTS, Bao configs, DTBs, SMT
   dumps) commits atomically: a crash or disk error mid-write leaves the
   old bytes or no file, never a torn artifact. *)
let write_file path contents = Llhsc.Durable.write_file ~path contents

(* A delivery of SIGTERM/SIGINT mid-pipeline.  Raised from the signal
   handler so the journal sink can be fsync'd and closed on the way out —
   an interrupted --journal run must always be --resume-able. *)
exception Interrupted of int

(* Multi-error loading: report every syntax/merge error in the file, not
   just the first. *)
let load_tree path =
  match
    Devicetree.Tree.of_source_diags ~loader:(Llhsc.Util.include_loader path) ~file:path
      (read_file path)
  with
  | Ok tree -> tree
  | Error errs -> raise (Diag.Errors (List.map Diag.parse_error errs))

(* The .yaml/.yml files of a --schemas directory, in name order. *)
let schema_files = function
  | None -> []
  | Some dir ->
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.filter (fun f -> Filename.check_suffix f ".yaml" || Filename.check_suffix f ".yml")
    |> List.map (Filename.concat dir)

let load_schemas dir =
  List.map (fun f -> Schema.Binding.of_string (read_file f)) (schema_files dir)

let print_findings findings =
  List.iter (fun f -> Fmt.pr "%a@." Llhsc.Report.pp f) findings

let exit_of_findings findings = if Llhsc.Report.is_clean findings then 0 else 1

(* Every known library error is mapped to a structured diagnostic by
   [Diag.of_exn], so this list cannot drift as checkers are added; anything
   unknown escapes (and cmdliner turns it into exit 125, which the fault
   harness treats as a bug). *)
let handle_errors f =
  try f () with
  | Diag.Errors ds ->
    List.iter (fun d -> Fmt.epr "%a@." Diag.pp d) ds;
    2
  | e -> (
    match Diag.of_exn e with
    | Some d ->
      Fmt.epr "%a@." Diag.pp d;
      2
    | None -> raise e)

(* --- check ----------------------------------------------------------------------- *)

(* Print certification failures as error[CERT] diagnostics.  They count as
   findings (exit 1), not input errors (exit 2): the inputs were fine, but a
   solver verdict could not be independently validated, so the run must not
   look clean. *)
let print_cert_failures (r : Smt.Solver.cert_report) =
  List.iter
    (fun msg -> Fmt.epr "%a@." Diag.pp (Diag.make ~code:"CERT" "%s" msg))
    r.Smt.Solver.failures

let cmd_check dts_path schema_dir semantic_only syntactic_only certify =
  handle_errors @@ fun () ->
  let tree = load_tree dts_path in
  let schemas = load_schemas schema_dir in
  let solver = Smt.Solver.create ~certify () in
  let syntactic =
    if semantic_only || schemas = [] then []
    else Llhsc.Syntactic.check ~solver ~schemas tree
  in
  let semantic = if syntactic_only then [] else Llhsc.Semantic.check ~solver tree in
  let findings = syntactic @ semantic in
  if findings = [] then Fmt.pr "%s: all checks passed@." dts_path
  else print_findings findings;
  if certify then begin
    let r = Smt.Solver.cert_report solver in
    Fmt.pr "%a@." Llhsc.Report.pp_cert r;
    print_cert_failures r;
    if r.Smt.Solver.failures <> [] then 1 else exit_of_findings findings
  end
  else exit_of_findings findings

(* --- products -------------------------------------------------------------------- *)

let cmd_products fm_path count_only show_dead show_anomalies =
  handle_errors @@ fun () ->
  let model = Featuremodel.Parse.parse (read_file fm_path) in
  let env = Featuremodel.Analysis.encode model in
  if Featuremodel.Analysis.is_void env then begin
    Fmt.pr "feature model is void (no valid products)@.";
    1
  end
  else begin
    let products = Featuremodel.Analysis.enumerate_products env in
    Fmt.pr "%d valid product(s)@." (List.length products);
    if not count_only then
      List.iteri
        (fun i p -> Fmt.pr "  %2d: {%s}@." (i + 1) (String.concat ", " p))
        products;
    if show_dead then begin
      match Featuremodel.Analysis.dead_features env with
      | [] -> Fmt.pr "no dead features@."
      | dead -> Fmt.pr "dead features: %s@." (String.concat ", " dead)
    end;
    if show_anomalies then begin
      (match Featuremodel.Analysis.false_optional_features env with
       | [] -> Fmt.pr "no false-optional features@."
       | fo -> Fmt.pr "false-optional features: %s@." (String.concat ", " fo));
      match Featuremodel.Analysis.redundant_constraints env with
      | [] -> Fmt.pr "no redundant constraints@."
      | rs ->
        List.iter (fun c -> Fmt.pr "redundant constraint: %a@." Featuremodel.Bexpr.pp c) rs
    end;
    0
  end

(* --- analyze (delta set vs feature model) -------------------------------------------- *)

let cmd_analyze deltas_paths fm_path =
  handle_errors @@ fun () ->
  let deltas =
    let all =
      List.concat_map
        (fun f -> Delta.Parse.parse ~validate_refs:false ~file:f (read_file f))
        deltas_paths
    in
    Delta.Parse.validate all;
    all
  in
  let model = Featuremodel.Parse.parse (read_file fm_path) in
  let r = Delta.Analysis.analyze ~model deltas in
  Fmt.pr "%a" Delta.Analysis.pp r;
  if r.Delta.Analysis.conflicts = [] then 0 else 1

(* --- configure --------------------------------------------------------------------- *)

(* Batch-mode configurator: apply decisions in order, then print each
   feature's propagated status ("forced"/"forbidden" = the greyed-out
   features of the paper's Fig. 1). *)
let cmd_configure fm_path decisions =
  handle_errors @@ fun () ->
  let model = Featuremodel.Parse.parse (read_file fm_path) in
  let c = Featuremodel.Configurator.create model in
  let apply spec =
    match String.index_opt spec '=' with
    | None -> Featuremodel.Configurator.decide c spec true
    | Some i ->
      let name = String.sub spec 0 i in
      let value =
        match String.sub spec (i + 1) (String.length spec - i - 1) with
        | "on" | "true" | "yes" -> true
        | "off" | "false" | "no" -> false
        | v -> failwith (Printf.sprintf "bad decision value %S (use on/off)" v)
      in
      Featuremodel.Configurator.decide c name value
  in
  (try List.iter apply decisions
   with Featuremodel.Configurator.Error msg ->
     Fmt.epr "rejected: %s@." msg;
     exit 1);
  List.iter
    (fun (name, status) ->
      Fmt.pr "%-24s %a@." name Featuremodel.Configurator.pp_status status)
    (Featuremodel.Configurator.state c);
  if Featuremodel.Configurator.is_complete c then
    Fmt.pr "complete product: {%s}@."
      (String.concat ", " (Featuremodel.Configurator.product c));
  0

(* --- generate -------------------------------------------------------------------- *)

let cmd_generate core_path deltas_path features out check =
  handle_errors @@ fun () ->
  let core = load_tree core_path in
  let deltas = Delta.Parse.parse ~file:deltas_path (read_file deltas_path) in
  let tree = Delta.Apply.generate ~core ~deltas ~selected:features in
  let order = Delta.Apply.order ~selected:features deltas in
  Fmt.pr "applied deltas: %s@."
    (match order with [] -> "(none)" | _ -> String.concat " < " order);
  let dts = Devicetree.Printer.to_string tree in
  (match out with
   | Some path ->
     write_file path dts;
     Fmt.pr "wrote %s@." path
   | None -> print_string dts);
  if check then begin
    let findings = Llhsc.Semantic.check tree in
    print_findings findings;
    exit_of_findings findings
  end
  else 0

(* --- pipeline -------------------------------------------------------------------- *)

(* Exit codes: 0 clean, 1 findings, 2 a phase died on bad input (its
   diagnostics are in [outcome.errors] and were already printed). *)
let exit_of_outcome outcome =
  if outcome.Llhsc.Pipeline.errors <> [] then 2
  else if Llhsc.Pipeline.ok outcome then 0
  else 1

(* The worker resource guards of `pipeline` and `worker`. *)
let check_limits mem_limit cpu_limit =
  (match mem_limit with
   | Some m when m <= 0 ->
     failwith (Printf.sprintf "--mem-limit wants a positive MiB count, got %d" m)
   | _ -> ());
  match cpu_limit with
  | Some c when c <= 0 ->
    failwith (Printf.sprintf "--cpu-limit wants a positive second count, got %d" c)
  | _ -> ()

(* The per-task lease of `pipeline` and `dispatch`.  Without an explicit
   --task-deadline, derive one from the per-query solver timeout: a
   lease covers a whole task (at most a chunk of obligations), so give
   it a generous multiple plus slack.  [None] when neither flag is
   given. *)
let task_deadline_of task_deadline timeout =
  match (task_deadline, timeout) with
  | Some d, _ when d <= 0. ->
    failwith (Printf.sprintf "--task-deadline wants a positive duration, got %g" d)
  | (Some _ as d), _ -> d
  | None, Some t -> Some ((t *. 32.) +. 10.)
  | None, None -> None

(* The checked products' DTS plus the Bao platform.c and config.c, into
   [dir]; [wrote path] runs after each file commits. *)
let write_artifacts ~wrote dir outcome =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let products = outcome.Llhsc.Pipeline.products in
  let emit name contents =
    let path = Filename.concat dir name in
    write_file path contents;
    wrote path
  in
  List.iter
    (fun p ->
      emit (p.Llhsc.Pipeline.name ^ ".dts")
        (Devicetree.Printer.to_string p.Llhsc.Pipeline.tree))
    products;
  (match List.find_opt (fun p -> p.Llhsc.Pipeline.name = "platform") products with
   | Some platform ->
     emit "platform.c" (Bao.Platform.to_c (Bao.Platform.of_tree platform.Llhsc.Pipeline.tree))
   | None -> ());
  let vm_products = List.filter (fun p -> p.Llhsc.Pipeline.name <> "platform") products in
  emit "config.c"
    (Bao.Config.to_c
       (Bao.Config.of_vm_trees
          (List.map (fun p -> (p.Llhsc.Pipeline.name, p.Llhsc.Pipeline.tree)) vm_products)))

let cmd_pipeline ?runner core_path deltas_path fm_path schema_dir vm_features exclusive
    out_dir max_conflicts timeout certify retry journal_path resume unsound jobs
    task_deadline max_respawns mem_limit cpu_limit =
  handle_errors @@ fun () ->
  if jobs < 0 then
    failwith
      (Printf.sprintf "--jobs wants a worker count >= 0 (0 = auto-detect), got %d" jobs);
  if max_respawns < 0 then
    failwith (Printf.sprintf "--max-respawns wants a count >= 0, got %d" max_respawns);
  (* No deadline at all when neither flag is given: supervision must
     never kill a legitimately slow unbudgeted run. *)
  let task_deadline = task_deadline_of task_deadline timeout in
  check_limits mem_limit cpu_limit;
  let spec, pipeline =
    Fleet.Spec.load ~core:core_path ~deltas:deltas_path ~model:fm_path
      ~schemas:(schema_files schema_dir) ~vms:vm_features ~exclusive ~certify
      ~retry ~max_conflicts ~solver_timeout:timeout ~unsound
  in
  (* The run spec holds every byte the parser read, /include/d files
     too, and every verdict-affecting flag: its digest is threaded into
     every journal record's content hash, so --resume re-checks when any
     of it changed. *)
  let inputs_hash = Fleet.Spec.hash spec in
  let resume_entries =
    if not resume then []
    else
      match journal_path with
      | Some path ->
        (* Quiet fsck first: surface (on stderr, never in the report) why
           a journal will not be trusted, instead of silently re-checking
           everything. *)
        (match Llhsc.Journal.fsck ~path with
         | None -> () (* no journal yet: a fresh run, nothing to say *)
         | Some r ->
           (match r.Llhsc.Journal.degraded_reason with
            | Some reason ->
              Fmt.epr
                "resume: journal %s recorded a durability degradation (%s); \
                 not trusting it (run `llhsc journal compact` to re-bless \
                 the surviving entries)@."
                path reason
            | None ->
              if r.Llhsc.Journal.torn > 0 || r.Llhsc.Journal.invalid > 0 then
                Fmt.epr "resume: journal %s: skipping %d torn/corrupt line(s)@."
                  path
                  (r.Llhsc.Journal.torn + r.Llhsc.Journal.invalid)));
        Llhsc.Journal.load ~path ~inputs_hash
      | None -> failwith "--resume requires --journal FILE"
  in
  let sink =
    Option.map (fun path -> Llhsc.Journal.open_ ~path ~inputs_hash) journal_path
  in
  (* Make an interrupt exit journal-clean: the handler raises, the journal
     is flushed/closed, and the run exits with the conventional 128+signal
     code.  Records are individually fsync'd, so everything completed
     before the signal is durable and --resume replays it. *)
  (* OCaml signal numbers are its own encoding (negative); carry the OS
     number so "interrupted by signal 15" and exit 128+15 come out right. *)
  let handler os_signal = Sys.Signal_handle (fun _ -> raise (Interrupted os_signal)) in
  let prev_term = Sys.signal Sys.sigterm (handler 15) in
  let prev_int = Sys.signal Sys.sigint (handler 2) in
  let restore () =
    Sys.set_signal Sys.sigterm prev_term;
    Sys.set_signal Sys.sigint prev_int
  in
  match
    pipeline
      (Llhsc.Pipeline.run ~inputs_hash ?journal:sink ~resume:resume_entries ~jobs
         ?task_deadline ~max_respawns ?mem_limit ?cpu_limit
         ?runner:(Option.map (fun runner -> runner spec) runner))
  with
  | exception Interrupted s ->
    restore ();
    Option.iter Llhsc.Journal.close sink;
    (match journal_path with
     | Some path ->
       Fmt.epr "interrupted by signal %d: journal %s synced; rerun with --resume@." s path
     | None -> Fmt.epr "interrupted by signal %d@." s);
    128 + s
  | outcome ->
  restore ();
  Option.iter Llhsc.Journal.close sink;
  (* Resume status goes to stderr only: a resumed run's stdout report stays
     byte-identical to an uninterrupted run's. *)
  if resume then begin
    match outcome.Llhsc.Pipeline.replayed with
    | [] -> Fmt.epr "resume: nothing replayable; all products re-checked@."
    | rs -> Fmt.epr "resume: replayed from journal: %s@." (String.concat ", " rs)
  end;
  Fmt.pr "%a" Llhsc.Pipeline.pp_outcome outcome;
  (match out_dir with
   | Some dir when Llhsc.Pipeline.ok outcome ->
     write_artifacts ~wrote:(Fmt.pr "wrote %s@.") dir outcome
   | Some _ -> Fmt.pr "checks failed; not writing artifacts@."
   | None -> ());
  exit_of_outcome outcome

(* --- journal maintenance ----------------------------------------------------------- *)

(* Exit-code contract mirrors the CLI's: 0 the journal is clean, 1 it has
   recoverable issues (torn/corrupt lines, a degradation marker), 2 it is
   unusable (missing, unreadable, or the header is gone). *)
let cmd_journal_fsck path quiet =
  handle_errors @@ fun () ->
  match Llhsc.Journal.fsck ~path with
  | None ->
    Fmt.epr "%a@." Diag.pp (Diag.make ~code:"IO" "%s: cannot read journal" path);
    2
  | Some r -> (
    let say fmt =
      if quiet then Format.ifprintf Format.std_formatter fmt else Fmt.pr fmt
    in
    (match r.Llhsc.Journal.header with
     | `Ok ih -> say "journal %s: header ok (inputs %s)@." path ih
     | `Bad -> say "journal %s: unrecognised header@." path
     | `Missing -> say "journal %s: empty@." path);
    say "  records: %d (%d distinct, %d superseded, %d legacy checksum-less)@."
      r.Llhsc.Journal.records r.Llhsc.Journal.entries
      (r.Llhsc.Journal.records - r.Llhsc.Journal.entries)
      r.Llhsc.Journal.legacy;
    if r.Llhsc.Journal.torn > 0 then
      say "  torn: %d line(s) whose checksum does not verify@." r.Llhsc.Journal.torn;
    if r.Llhsc.Journal.invalid > 0 then
      say "  corrupt: %d line(s) that are not valid records@." r.Llhsc.Journal.invalid;
    (match r.Llhsc.Journal.degraded_reason with
     | Some reason ->
       say "  degraded: the writing run lost durability (%s); --resume will \
            refuse this journal until `llhsc journal compact` re-blesses it@."
         reason
     | None -> ());
    match r.Llhsc.Journal.header with
    | `Bad | `Missing -> 2
    | `Ok _ -> if Llhsc.Journal.fsck_issues r then 1 else 0)

let cmd_journal_compact path =
  handle_errors @@ fun () ->
  match Llhsc.Journal.compact ~path with
  | Error reason ->
    Fmt.epr "%a@." Diag.pp (Diag.make ~code:"IO" "%s" reason);
    2
  | Ok (lines, entries) ->
    Fmt.pr "journal %s: compacted %d line(s) to %d entr%s@." path lines entries
      (if entries = 1 then "y" else "ies");
    0

(* --- dispatch / worker (fleet mode) ----------------------------------------------- *)

(* "HOST:PORT" (the last ':' splits, so a future IPv6 form still parses). *)
let parse_hostport what s =
  match String.rindex_opt s ':' with
  | None -> failwith (Printf.sprintf "%s wants HOST:PORT, got %S" what s)
  | Some i -> (
    let host = String.sub s 0 i in
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some p when p >= 0 && p <= 65535 -> (host, p)
    | _ -> failwith (Printf.sprintf "%s wants a port in 0..65535, got %S" what s))

(* The shared fleet secret lives in a file (never on the command line,
   where `ps` would leak it).  Surrounding whitespace is trimmed so a
   trailing newline from `echo` does not silently split the fleet. *)
let read_secret_file path =
  let s = String.trim (read_file path) in
  if s = "" then failwith (Printf.sprintf "secret file %s is empty" path);
  s

let cmd_dispatch listen min_workers wait_workers port_file secret_file
    core_path deltas_path fm_path schema_dir vm_features
    exclusive out_dir max_conflicts timeout certify retry journal_path resume
    unsound task_deadline =
  handle_errors @@ fun () ->
  let host, port = parse_hostport "--listen" listen in
  let secret = Option.map read_secret_file secret_file in
  if min_workers < 0 then
    failwith (Printf.sprintf "--min-workers wants a count >= 0, got %d" min_workers);
  if wait_workers < 0. then
    failwith (Printf.sprintf "--wait-workers wants seconds >= 0, got %g" wait_workers);
  (* A remote lease must always expire eventually — a partitioned worker
     holds its tasks until then — so unlike the local pool there is a
     hard default. *)
  let deadline = Option.value ~default:60. (task_deadline_of task_deadline timeout) in
  let cfg =
    { Fleet.Dispatch.host; port; min_workers; wait_workers; deadline;
      port_file; secret;
      (* The task journal rides next to the product journal: the
         product journal replays finished products on --resume, the
         task journal replays finished tasks of the interrupted sweep. *)
      task_journal = Option.map (fun p -> p ^ ".tasks") journal_path;
      resume }
  in
  (* Workers get the spec `pipeline` built, with the products replayed
     from the journal as its skip list. *)
  let runner spec ~skip tasks =
    Fleet.Dispatch.run cfg ~spec:{ spec with Fleet.Spec.skip } tasks
  in
  (* Same driver as `pipeline`, with the fleet in place of the local
     pool: spec, journal, resume, report rendering and exit codes are
     shared, and the local-pool knobs are fixed to their no-op values. *)
  cmd_pipeline ~runner core_path deltas_path fm_path schema_dir vm_features
    exclusive out_dir max_conflicts timeout certify retry journal_path resume
    unsound 1 None 8 None None

let cmd_worker connect port_file max_reconnects mem_limit cpu_limit secret_file
    =
  handle_errors @@ fun () ->
  if max_reconnects < 0 then
    failwith (Printf.sprintf "--max-reconnects wants a count >= 0, got %d" max_reconnects);
  check_limits mem_limit cpu_limit;
  let host, port =
    match connect with
    | Some s ->
      let h, p = parse_hostport "--connect" s in
      (h, Some p)
    | None -> ("127.0.0.1", None)
  in
  if port = None && port_file = None then
    failwith "worker needs --connect HOST:PORT or --port-file FILE";
  let secret = Option.map read_secret_file secret_file in
  Fleet.Worker.run
    { Fleet.Worker.host; port; port_file; max_reconnects; mem_limit; cpu_limit;
      secret }

(* --- serve ------------------------------------------------------------------------ *)

let cmd_serve host port workers queue tenant_quota request_deadline read_timeout
    write_timeout max_body max_header retry_after max_request_jobs dispatch
    dispatch_secret_file verbose =
  handle_errors @@ fun () ->
  if port < 0 || port > 65535 then
    failwith (Printf.sprintf "--port wants 0..65535 (0 = ephemeral), got %d" port);
  if workers < 1 then
    failwith (Printf.sprintf "--workers wants a count >= 1, got %d" workers);
  if queue < 1 then failwith (Printf.sprintf "--queue wants a depth >= 1, got %d" queue);
  if tenant_quota < 1 then
    failwith (Printf.sprintf "--tenant-quota wants a count >= 1, got %d" tenant_quota);
  if max_request_jobs < 1 then
    failwith (Printf.sprintf "--max-request-jobs wants a count >= 1, got %d" max_request_jobs);
  if retry_after < 1 then
    failwith (Printf.sprintf "--retry-after wants seconds >= 1, got %d" retry_after);
  List.iter
    (fun (flag, v) ->
      if v <= 0. then failwith (Printf.sprintf "%s wants a positive duration, got %g" flag v))
    [ ("--read-timeout", read_timeout); ("--write-timeout", write_timeout) ];
  (match request_deadline with
   | Some d when d <= 0. ->
     failwith (Printf.sprintf "--request-deadline wants a positive duration, got %g" d)
   | _ -> ());
  List.iter
    (fun (flag, v) ->
      if v < 1024 then failwith (Printf.sprintf "%s wants at least 1024 bytes, got %d" flag v))
    [ ("--max-body", max_body); ("--max-header", max_header) ];
  let dispatch =
    match dispatch with
    | None -> []
    | Some s ->
      String.split_on_char ',' s
      |> List.filter (fun a -> String.trim a <> "")
      |> List.map (fun a -> parse_hostport "--dispatch" (String.trim a))
  in
  (match dispatch_secret_file with
   | Some p -> ignore (read_secret_file p) (* fail fast, before the first job *)
   | None -> ());
  Serve.Server.run
    { Serve.Server.host; port; workers; queue; tenant_quota; request_deadline;
      read_timeout; write_timeout; max_body_bytes = max_body;
      max_header_bytes = max_header; retry_after; max_request_jobs;
      exec = Sys.executable_name; dispatch;
      dispatch_secret_file; verbose }

(* --- dtb -------------------------------------------------------------------------- *)

let cmd_dtb input output decompile =
  handle_errors @@ fun () ->
  if decompile then begin
    let tree, memreserves = Devicetree.Fdt.decode (read_file input) in
    ignore memreserves;
    let dts = Devicetree.Printer.to_string tree in
    match output with
    | Some path ->
      write_file path dts;
      Fmt.pr "wrote %s@." path;
      0
    | None ->
      print_string dts;
      0
  end
  else begin
    let src = read_file input in
    let ast = Devicetree.Parser.parse ~file:input src in
    let memreserves = Devicetree.Tree.memreserves_of_ast ast in
    let tree = Devicetree.Tree.of_ast ~loader:(Llhsc.Util.include_loader input) ast in
    let blob = Devicetree.Fdt.encode ~memreserves tree in
    let out = match output with Some p -> p | None -> Filename.remove_extension input ^ ".dtb" in
    write_file out blob;
    Fmt.pr "wrote %s (%d bytes)@." out (String.length blob);
    0
  end

(* --- diff ------------------------------------------------------------------------- *)

let cmd_diff a_path b_path =
  handle_errors @@ fun () ->
  let a = load_tree a_path and b = load_tree b_path in
  let changes = Devicetree.Diff.diff a b in
  Fmt.pr "%a@." Devicetree.Diff.pp changes;
  if changes = [] then 0 else 1

(* --- build (project file) ----------------------------------------------------------- *)

(* Project file (YAML):
     core: board.dts
     deltas: [board.deltas, extra.deltas]
     model: board.fm
     schemas: schemas          # directory
     exclusive: [cpus]
     vms:
       - name: vm1
         features: [memory, cpu@0]
     output: out               # optional artifact directory
     jobs: 4                   # optional check-phase worker processes (0 = auto-detect cores)
   Paths are relative to the project file. *)
let cmd_build project_path =
  handle_errors @@ fun () ->
  let dir = Filename.dirname project_path in
  let resolve p = if Filename.is_relative p then Filename.concat dir p else p in
  let y = Schema.Yaml_lite.parse (read_file project_path) in
  let str_field name =
    match Option.bind (Schema.Yaml_lite.find name y) Schema.Yaml_lite.as_string with
    | Some s -> s
    | None -> failwith (Printf.sprintf "project file: missing %S" name)
  in
  let str_list name =
    match Schema.Yaml_lite.find name y with
    | Some (Schema.Yaml_lite.List items) ->
      List.filter_map Schema.Yaml_lite.as_string items
    | Some (Schema.Yaml_lite.Str s) -> [ s ]
    | _ -> []
  in
  let core = load_tree (resolve (str_field "core")) in
  let deltas =
    let files = match str_list "deltas" with [] -> failwith "project file: missing deltas" | fs -> fs in
    let all =
      List.concat_map
        (fun f -> Delta.Parse.parse ~validate_refs:false ~file:f (read_file (resolve f)))
        files
    in
    Delta.Parse.validate all;
    all
  in
  let model = Featuremodel.Parse.parse (read_file (resolve (str_field "model"))) in
  let schemas =
    match Option.bind (Schema.Yaml_lite.find "schemas" y) Schema.Yaml_lite.as_string with
    | Some d -> load_schemas (Some (resolve d))
    | None -> []
  in
  let vms =
    match Schema.Yaml_lite.find "vms" y with
    | Some (Schema.Yaml_lite.List items) ->
      List.map
        (fun item ->
          match Schema.Yaml_lite.find "features" item with
          | Some (Schema.Yaml_lite.List fs) -> List.filter_map Schema.Yaml_lite.as_string fs
          | _ -> failwith "project file: vm entry missing features")
        items
    | _ -> failwith "project file: missing vms"
  in
  let exclusive = str_list "exclusive" in
  let jobs =
    (* 0 = auto-detect online cores, mirroring --jobs 0. *)
    match Option.bind (Schema.Yaml_lite.find "jobs" y) Schema.Yaml_lite.as_int with
    | Some n when Int64.compare n 0L >= 0 -> Int64.to_int n
    | Some n -> failwith (Printf.sprintf "project file: jobs must be >= 0, got %Ld" n)
    | None -> 1
  in
  let outcome =
    Llhsc.Pipeline.run ~exclusive ~jobs ~model ~core ~deltas
      ~schemas_for:(fun _ -> schemas) ~vm_requests:vms ()
  in
  Fmt.pr "%a" Llhsc.Pipeline.pp_outcome outcome;
  (match Option.bind (Schema.Yaml_lite.find "output" y) Schema.Yaml_lite.as_string with
   | Some out when Llhsc.Pipeline.ok outcome ->
     let out = resolve out in
     write_artifacts ~wrote:ignore out outcome;
     Fmt.pr "artifacts written to %s@." out
   | Some _ -> Fmt.pr "checks failed; not writing artifacts@."
   | None -> ());
  exit_of_outcome outcome

(* --- overlay ---------------------------------------------------------------------- *)

let cmd_overlay base_path overlay_paths output check =
  handle_errors @@ fun () ->
  let base = load_tree base_path in
  let merged =
    List.fold_left
      (fun base path ->
        try Devicetree.Overlay.apply ~base ~overlay:(load_tree path)
        with Devicetree.Overlay.Error (msg, loc) ->
          Fmt.epr "error: %s: %s (%a)@." path msg Devicetree.Loc.pp loc;
          exit 2)
      base overlay_paths
  in
  let dts = Devicetree.Printer.to_string merged in
  (match output with
   | Some path ->
     write_file path dts;
     Fmt.pr "wrote %s@." path
   | None -> print_string dts);
  if check then begin
    let findings = Llhsc.Semantic.check merged in
    print_findings findings;
    exit_of_findings findings
  end
  else 0

(* --- smt2 ------------------------------------------------------------------------- *)

let cmd_smt2 dts_path schema_dir output =
  handle_errors @@ fun () ->
  let tree = load_tree dts_path in
  let schemas = load_schemas schema_dir in
  let solver = Smt.Solver.create () in
  Schema.Compile.compile_tree solver ~schemas tree;
  let dump = Fmt.str "%a" Smt.Solver.pp_smtlib solver in
  (match output with
   | Some path ->
     write_file path dump;
     Fmt.pr "wrote %s@." path
   | None -> print_string dump);
  0

(* --- sat -------------------------------------------------------------------------- *)

let cmd_sat cnf_path certify unsound =
  handle_errors @@ fun () ->
  let cnf = Sat.Dimacs.parse_file cnf_path in
  let solver, preok = Sat.Dimacs.load ~proof:certify cnf in
  Option.iter
    (fun spec -> Sat.Solver.inject_unsoundness solver (Sat.Solver.unsound_of_string spec))
    unsound;
  let result = if preok then Sat.Solver.solve solver else Sat.Solver.Unsat in
  (match result with
   | Sat.Solver.Sat -> Fmt.pr "s SATISFIABLE@."
   | Sat.Solver.Unsat -> Fmt.pr "s UNSATISFIABLE@."
   | Sat.Solver.Unknown -> Fmt.pr "s UNKNOWN@.");
  if not certify then 0
  else begin
    match result with
    | Sat.Solver.Unknown -> 0 (* no verdict to certify *)
    | Sat.Solver.Sat | Sat.Solver.Unsat -> (
      let proof =
        match Sat.Solver.proof solver with
        | Some p -> p
        | None -> assert false (* enabled via ~proof:certify above *)
      in
      let t0 = Unix.gettimeofday () in
      let checked =
        match result with
        | Sat.Solver.Sat ->
          Sat.Checker.check_sat_model proof (fun l -> Sat.Solver.lit_value solver l)
        | _ -> Sat.Checker.check_proof ~chain:(Sat.Solver.unsat_chain solver) proof
      in
      let ms = (Unix.gettimeofday () -. t0) *. 1000. in
      match checked with
      | Ok steps ->
        Fmt.pr "c certificate: %d steps verified in %.2f ms@." steps ms;
        0
      | Error msg ->
        Fmt.epr "%a@." Diag.pp (Diag.make ~code:"CERT" "uncertified verdict: %s" msg);
        1)
  end

(* --- demo ------------------------------------------------------------------------- *)

let cmd_demo () =
  handle_errors @@ fun () ->
  let module RE = Llhsc.Running_example in
  Fmt.pr "== llhsc demo: the paper's running example ==@.@.";
  let model = RE.feature_model () in
  let env = Featuremodel.Analysis.encode model in
  Fmt.pr "feature model: %d valid products@."
    (Featuremodel.Analysis.count_products env);
  let outcome =
    Llhsc.Pipeline.run ~exclusive:RE.exclusive ~model ~core:(RE.core_tree ())
      ~deltas:(RE.deltas ()) ~schemas_for:RE.schemas_for
      ~vm_requests:[ RE.vm1_features; RE.vm2_features ] ()
  in
  Fmt.pr "%a@." Llhsc.Pipeline.pp_outcome outcome;
  (match
     List.find_opt (fun p -> p.Llhsc.Pipeline.name = "platform") outcome.Llhsc.Pipeline.products
   with
   | Some platform ->
     Fmt.pr "--- platform.c (Listing 3) ---@.%s@."
       (Bao.Platform.to_c (Bao.Platform.of_tree platform.Llhsc.Pipeline.tree))
   | None -> ());
  let vms =
    List.filter (fun p -> p.Llhsc.Pipeline.name <> "platform") outcome.Llhsc.Pipeline.products
  in
  Fmt.pr "--- config.c (Listing 6) ---@.%s@."
    (Bao.Config.to_c
       (Bao.Config.of_vm_trees
          (List.map (fun p -> (p.Llhsc.Pipeline.name, p.Llhsc.Pipeline.tree)) vms)));
  if Llhsc.Pipeline.ok outcome then 0 else 1

(* --- cmdliner wiring ---------------------------------------------------------------- *)

open Cmdliner

let dts_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.dts")

let schema_dir_arg =
  Arg.(value & opt (some string) None & info [ "schemas" ] ~docv:"DIR" ~doc:"Directory of .yaml binding schemas.")

let certify_arg =
  Arg.(value & flag
       & info [ "certify" ]
           ~doc:"Certify every solver verdict against an independent proof/model \
                 checker; any verdict that fails certification is reported as an \
                 error[CERT] diagnostic and the command exits non-zero.")

let check_cmd =
  let semantic_only =
    Arg.(value & flag & info [ "semantic-only" ] ~doc:"Skip the schema-based syntactic checks.")
  in
  let syntactic_only =
    Arg.(value & flag & info [ "syntactic-only" ] ~doc:"Skip the semantic (address) checks.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check a DTS file syntactically and semantically")
    Term.(const cmd_check $ dts_arg $ schema_dir_arg $ semantic_only $ syntactic_only
          $ certify_arg)

let products_cmd =
  let fm = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.fm") in
  let count = Arg.(value & flag & info [ "count" ] ~doc:"Print only the product count.") in
  let dead = Arg.(value & flag & info [ "dead" ] ~doc:"Also report dead features.") in
  let anomalies =
    Arg.(value & flag & info [ "anomalies" ] ~doc:"Report false-optional features and redundant constraints.")
  in
  Cmd.v
    (Cmd.info "products" ~doc:"Analyse a feature model")
    Term.(const cmd_products $ fm $ count $ dead $ anomalies)

let features_arg =
  Arg.(value & opt (list string) [] & info [ "features"; "f" ] ~docv:"F1,F2" ~doc:"Selected features.")

let analyze_cmd =
  let deltas = Arg.(non_empty & opt_all string [] & info [ "deltas" ] ~docv:"FILE.deltas") in
  let fm = Arg.(required & opt (some string) None & info [ "model" ] ~docv:"FILE.fm") in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Static analysis of a delta set against its feature model")
    Term.(const cmd_analyze $ deltas $ fm)

let configure_cmd =
  let fm = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.fm") in
  let decisions =
    Arg.(value & opt_all string [] & info [ "decide"; "d" ] ~docv:"FEATURE[=on|off]"
           ~doc:"Apply a decision (repeatable, in order).")
  in
  Cmd.v
    (Cmd.info "configure" ~doc:"Stepwise configuration with decision propagation")
    Term.(const cmd_configure $ fm $ decisions)

let generate_cmd =
  let core = Arg.(required & opt (some string) None & info [ "core" ] ~docv:"CORE.dts") in
  let deltas = Arg.(required & opt (some string) None & info [ "deltas" ] ~docv:"FILE.deltas") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.dts") in
  let check = Arg.(value & flag & info [ "check" ] ~doc:"Run the semantic checker on the product.") in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a DTS product from a core and delta modules")
    Term.(const cmd_generate $ core $ deltas $ features_arg $ out $ check)

(* Args shared by `pipeline` and `dispatch` (the fleet dispatcher is the
   same workflow with the local pool swapped for remote workers). *)
let pl_core = Arg.(required & opt (some string) None & info [ "core" ] ~docv:"CORE.dts")
let pl_deltas = Arg.(required & opt (some string) None & info [ "deltas" ] ~docv:"FILE.deltas")
let pl_fm = Arg.(required & opt (some string) None & info [ "model" ] ~docv:"FILE.fm")

let pl_vms =
  Arg.(value & opt_all (list string) [] & info [ "vm" ] ~docv:"F1,F2" ~doc:"Feature selection of one VM (repeatable).")

let pl_exclusive =
  Arg.(value & opt (list string) [] & info [ "exclusive" ] ~docv:"FEATS" ~doc:"Features whose children are exclusive across VMs.")

let pl_out = Arg.(value & opt (some string) None & info [ "out-dir" ] ~docv:"DIR")

let pl_max_conflicts =
  Arg.(value & opt (some int) None & info [ "max-conflicts" ] ~docv:"N"
         ~doc:"Solver budget: cap conflicts per query; exhausted queries report inconclusive.")

let pl_timeout =
  Arg.(value & opt (some float) None & info [ "solver-timeout" ] ~docv:"SECONDS"
         ~doc:"Solver budget: wall-clock deadline per query.")

let pl_retry =
  Arg.(value & opt (some int) None & info [ "retry" ] ~docv:"ATTEMPTS"
         ~doc:"Retry inconclusive (budget-exhausted) solver queries up an \
               escalation ladder of at most $(docv) total attempts: budget \
               x4 per rung with diversified restarts (fresh seed, flipped \
               or randomized phases, alternate VSIDS decay).  Per-attempt \
               statistics are reported for every retried query.")

let pl_journal =
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE"
         ~doc:"Crash-safe journal: append one fsync'd JSONL record per \
               completed product to $(docv), keyed by a content hash of \
               the run's inputs.  A killed run loses at most the product \
               being checked.")

let pl_resume =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:"Replay the --journal file: products whose recorded content \
                 hash still matches are skipped (findings replayed \
                 verbatim), stale or missing ones are re-checked.  The \
                 stdout report is byte-identical to an uninterrupted run.")

let pl_unsound =
  Arg.(value & opt (some string) None
       & info [ "unsound" ] ~docv:"KIND:N"
           ~doc:"Testing only: inject a deliberate solver fault every N \
                 queries (drop-lit:N, flip-model:N, mute-proof:N or \
                 force-unknown:N) to exercise certification and \
                 escalation paths.")

let pipeline_cmd =
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Dispatch the per-product check phase across a supervised \
                   pool of $(docv) forked worker processes ($(docv)=0 \
                   auto-detects the number of online CPU cores).  The report \
                   is byte-identical to a sequential run (the merge is \
                   deterministic), the parent remains the sole journal \
                   writer, and a crashed or hung worker's task is reassigned \
                   to a replacement worker.")
  in
  let task_deadline =
    Arg.(value & opt (some float) None
         & info [ "task-deadline" ] ~docv:"SECONDS"
             ~doc:"Supervision: per-task lease for pool workers.  A worker \
                   whose in-flight task outlives $(docv) seconds is killed \
                   and its task reassigned.  Defaults to 32 x \
                   --solver-timeout + 10s when that flag is set, otherwise \
                   no deadline.")
  in
  let max_respawns =
    Arg.(value & opt int 8
         & info [ "max-respawns" ] ~docv:"N"
             ~doc:"Supervision: replace at most $(docv) crashed or killed \
                   pool workers over the whole run (exponential backoff); \
                   once exhausted, remaining tasks finish in-process.")
  in
  let mem_limit =
    Arg.(value & opt (some int) None
         & info [ "mem-limit" ] ~docv:"MIB"
             ~doc:"Resource guard: cap each pool worker's address space at \
                   $(docv) MiB (RLIMIT_AS).  A task that trips the guard \
                   degrades to an error[RESOURCE] diagnostic instead of \
                   taking the checker down.")
  in
  let cpu_limit =
    Arg.(value & opt (some int) None
         & info [ "cpu-limit" ] ~docv:"SECONDS"
             ~doc:"Resource guard: cap each pool worker's CPU time at \
                   $(docv) seconds (RLIMIT_CPU).  A task that trips the \
                   guard degrades to an error[RESOURCE] diagnostic.")
  in
  Cmd.v
    (Cmd.info "pipeline" ~doc:"Run the full llhsc workflow (Fig. 2)")
    Term.(const (cmd_pipeline ?runner:None) $ pl_core $ pl_deltas $ pl_fm $ schema_dir_arg $ pl_vms
          $ pl_exclusive $ pl_out $ pl_max_conflicts $ pl_timeout $ certify_arg
          $ pl_retry $ pl_journal $ pl_resume $ pl_unsound
          $ jobs $ task_deadline $ max_respawns $ mem_limit $ cpu_limit)

let dispatch_cmd =
  let listen =
    Arg.(value & opt string "127.0.0.1:0"
         & info [ "listen" ] ~docv:"HOST:PORT"
             ~doc:"Bind address for worker connections (port 0 picks an \
                   ephemeral port; see --port-file).")
  in
  let min_workers =
    Arg.(value & opt int 1
         & info [ "min-workers" ] ~docv:"N"
             ~doc:"Degradation floor: when fewer than $(docv) workers are \
                   connected (after the --wait-workers grace), remaining \
                   tasks finish in-process so the run always terminates.  \
                   0 waits for workers indefinitely.")
  in
  let wait_workers =
    Arg.(value & opt float 10.
         & info [ "wait-workers" ] ~docv:"SECONDS"
             ~doc:"Registration grace: how long the fleet may stay below \
                   --min-workers before the dispatcher degrades to \
                   in-process checking.")
  in
  let port_file =
    Arg.(value & opt (some string) None
         & info [ "port-file" ] ~docv:"FILE"
             ~doc:"Write the bound port to $(docv) once listening (workers \
                   can poll it with their own --port-file).")
  in
  let task_deadline =
    Arg.(value & opt (some float) None
         & info [ "task-deadline" ] ~docv:"SECONDS"
             ~doc:"Per-task lease: a worker whose task outlives $(docv) \
                   seconds is presumed hung or partitioned, its connection \
                   dropped and its tasks reassigned.  Defaults to 32 x \
                   --solver-timeout + 10s, else 60s — remote leases always \
                   expire.")
  in
  let secret_file =
    Arg.(value & opt (some string) None
         & info [ "secret-file" ] ~docv:"FILE"
             ~doc:"Shared fleet secret: require every worker to complete a \
                   mutual HMAC-SHA256 challenge-response proving knowledge \
                   of $(docv)'s contents before the run's inputs are \
                   shipped; all later frames carry session-keyed MACs.  \
                   Workers that cannot authenticate are dropped and \
                   counted, never leased a task.")
  in
  Cmd.v
    (Cmd.info "dispatch"
       ~doc:"Run the pipeline with its check phase sharded over socket workers"
       ~man:
         [ `S Manpage.s_description;
           `P "Runs the same workflow as $(b,pipeline), but dispatches the \
               per-product check tasks to llhsc $(b,worker) processes \
               connected over TCP instead of a local fork pool.  Inputs are \
               shipped to workers in full, so workers need no shared \
               filesystem; results are validated against a spec hash and \
               merged exactly-once (first valid result per task wins), \
               making the stdout report byte-identical to --jobs 1 under \
               any schedule of worker crashes, hangs, disconnects or \
               duplicated results.  If the fleet shrinks below \
               --min-workers, remaining tasks finish in-process — a run \
               that loses every worker still completes." ])
    Term.(const cmd_dispatch $ listen $ min_workers $ wait_workers
          $ port_file $ secret_file $ pl_core $ pl_deltas
          $ pl_fm $ schema_dir_arg $ pl_vms
          $ pl_exclusive $ pl_out $ pl_max_conflicts $ pl_timeout $ certify_arg
          $ pl_retry $ pl_journal $ pl_resume $ pl_unsound $ task_deadline)

let worker_cmd =
  let connect =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"HOST:PORT"
             ~doc:"Dispatcher address.")
  in
  let port_file =
    Arg.(value & opt (some string) None
         & info [ "port-file" ] ~docv:"FILE"
             ~doc:"Poll the dispatcher's --port-file for the port instead \
                   of naming it in --connect (connects to 127.0.0.1).")
  in
  let max_reconnects =
    Arg.(value & opt int 8
         & info [ "max-reconnects" ] ~docv:"N"
             ~doc:"Give up after $(docv) consecutive failed connections or \
                   broken sessions (exponential backoff between attempts; a \
                   completed handshake resets the budget).")
  in
  let mem_limit =
    Arg.(value & opt (some int) None
         & info [ "mem-limit" ] ~docv:"MIB"
             ~doc:"Resource guard: cap this worker's address space at \
                   $(docv) MiB (RLIMIT_AS), like a fork-pool child's.")
  in
  let cpu_limit =
    Arg.(value & opt (some int) None
         & info [ "cpu-limit" ] ~docv:"SECONDS"
             ~doc:"Resource guard: cap this worker's CPU time at $(docv) \
                   seconds (RLIMIT_CPU).")
  in
  let secret_file =
    Arg.(value & opt (some string) None
         & info [ "secret-file" ] ~docv:"FILE"
             ~doc:"Shared fleet secret: authenticate the dispatcher with a \
                   mutual HMAC-SHA256 challenge-response and refuse specs \
                   from one that cannot prove knowledge of $(docv)'s \
                   contents.")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"Serve check tasks to an llhsc dispatch process"
       ~man:
         [ `S Manpage.s_description;
           `P "Connects to an llhsc $(b,dispatch) process, rebuilds its task \
               list from the shipped inputs, and executes leased tasks until \
               retired (exit 0).  Survives connection loss with \
               jittered exponential-backoff reconnects; exits 1 once \
               --max-reconnects consecutive attempts fail." ])
    Term.(const cmd_worker $ connect $ port_file $ max_reconnects $ mem_limit
          $ cpu_limit $ secret_file)

let dtb_cmd =
  let input = Arg.(required & pos 0 (some string) None & info [] ~docv:"INPUT") in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUTPUT") in
  let decompile = Arg.(value & flag & info [ "d"; "decompile" ] ~doc:"DTB to DTS.") in
  Cmd.v
    (Cmd.info "dtb" ~doc:"Compile DTS to a flattened DTB, or decompile")
    Term.(const cmd_dtb $ input $ output $ decompile)

let diff_cmd =
  let a = Arg.(required & pos 0 (some string) None & info [] ~docv:"A.dts") in
  let b = Arg.(required & pos 1 (some string) None & info [] ~docv:"B.dts") in
  Cmd.v
    (Cmd.info "diff" ~doc:"Structural diff between two DTS files")
    Term.(const cmd_diff $ a $ b)

let build_cmd =
  let project = Arg.(required & pos 0 (some string) None & info [] ~docv:"PROJECT.yaml") in
  Cmd.v
    (Cmd.info "build" ~doc:"Run the pipeline described by a project file")
    Term.(const cmd_build $ project)

let overlay_cmd =
  let base = Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE.dts") in
  let overlays = Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"OVERLAY.dts...") in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.dts") in
  let check = Arg.(value & flag & info [ "check" ] ~doc:"Run the semantic checker on the result.") in
  Cmd.v
    (Cmd.info "overlay" ~doc:"Apply DT overlays (dtbo fragments) to a base DTS")
    Term.(const cmd_overlay $ base $ overlays $ output $ check)

let smt2_cmd =
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.smt2") in
  Cmd.v
    (Cmd.info "smt2" ~doc:"Export the syntactic constraint problem as SMT-LIB2")
    Term.(const cmd_smt2 $ dts_arg $ schema_dir_arg $ output)

let sat_cmd =
  let cnf = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.cnf") in
  let unsound =
    Arg.(value & opt (some string) None
         & info [ "unsound" ] ~docv:"KIND:N"
             ~doc:"Testing only: inject a deliberate solver fault \
                   (drop-lit:N, flip-model:N, mute-proof:N or \
                   force-unknown:N) so the certification checker can be \
                   shown to catch it.")
  in
  Cmd.v
    (Cmd.info "sat" ~doc:"Solve a DIMACS CNF file (optionally certifying the verdict)")
    Term.(const cmd_sat $ cnf $ certify_arg $ unsound)

let serve_cmd =
  let host =
    Arg.(value & opt string Serve.Server.default_config.Serve.Server.host
         & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port =
    Arg.(value & opt int Serve.Server.default_config.Serve.Server.port
         & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Listen port (0 picks an ephemeral port).")
  in
  let workers =
    Arg.(value & opt int Serve.Server.default_config.Serve.Server.workers
         & info [ "workers" ] ~docv:"N"
             ~doc:"Maximum concurrently running check jobs.  Each job is a \
                   forked child exec'ing this binary, so a crashed or hung \
                   check never takes the daemon down.")
  in
  let queue =
    Arg.(value & opt int Serve.Server.default_config.Serve.Server.queue
         & info [ "queue" ] ~docv:"N"
             ~doc:"Bounded admission queue depth.  A request arriving when \
                   $(docv) jobs already wait is shed immediately with 429 + \
                   Retry-After — the daemon never buffers unbounded work.")
  in
  let tenant_quota =
    Arg.(value & opt int Serve.Server.default_config.Serve.Server.tenant_quota
         & info [ "tenant-quota" ] ~docv:"N"
             ~doc:"Maximum in-flight jobs per tenant (the X-Api-Key request \
                   header; requests without one share the \"anonymous\" \
                   tenant).  A tenant at its quota is shed with 429 without \
                   consuming queue space.")
  in
  let request_deadline =
    Arg.(value & opt (some float) Serve.Server.default_config.Serve.Server.request_deadline
         & info [ "request-deadline" ] ~docv:"SECONDS"
             ~doc:"Per-job lease, like the pipeline's --task-deadline one \
                   level up: a job outliving $(docv) seconds has its process \
                   group killed and the client gets 504.")
  in
  let read_timeout =
    Arg.(value & opt float Serve.Server.default_config.Serve.Server.read_timeout
         & info [ "read-timeout" ] ~docv:"SECONDS"
             ~doc:"Slow-loris guard: a connection that has not delivered a \
                   complete request within $(docv) seconds gets 408.")
  in
  let write_timeout =
    Arg.(value & opt float Serve.Server.default_config.Serve.Server.write_timeout
         & info [ "write-timeout" ] ~docv:"SECONDS"
             ~doc:"A response that cannot be flushed within $(docv) seconds \
                   is abandoned and the connection closed.")
  in
  let max_body =
    Arg.(value & opt int Serve.Server.default_config.Serve.Server.max_body_bytes
         & info [ "max-body" ] ~docv:"BYTES"
             ~doc:"Request bodies larger than $(docv) bytes are refused with \
                   413, at the Content-Length declaration when possible.")
  in
  let max_header =
    Arg.(value & opt int Serve.Server.default_config.Serve.Server.max_header_bytes
         & info [ "max-header" ] ~docv:"BYTES"
             ~doc:"Request header blocks larger than $(docv) bytes are \
                   refused with 431.")
  in
  let retry_after =
    Arg.(value & opt int Serve.Server.default_config.Serve.Server.retry_after
         & info [ "retry-after" ] ~docv:"SECONDS"
             ~doc:"Retry-After hint attached to every 429/503 shed response.")
  in
  let max_request_jobs =
    Arg.(value & opt int Serve.Server.default_config.Serve.Server.max_request_jobs
         & info [ "max-request-jobs" ] ~docv:"N"
             ~doc:"Clamp on the \"jobs\" field of pipeline request bodies \
                   (each job may fan out onto the supervised shard pool \
                   inside its child).")
  in
  let dispatch =
    Arg.(value & opt (some string) None
         & info [ "dispatch" ] ~docv:"HOST:PORT[,...]"
             ~doc:"Fleet backend: a comma-separated pool of listen \
                   addresses.  Each running pipeline job claims a free \
                   address and is spawned as $(b,llhsc dispatch --listen) \
                   on it, so operator-run $(b,llhsc worker) processes \
                   pointed at the pool execute the tasks.  With no free \
                   address the job falls back to the local fork pool, and \
                   a dispatcher that finds no worker (or cannot bind) \
                   degrades to its in-process sweep — the verdict bytes \
                   never depend on fleet health.  /v1/stats reports \
                   backend_fleet and backend_local counts.")
  in
  let dispatch_secret_file =
    Arg.(value & opt (some string) None
         & info [ "dispatch-secret-file" ] ~docv:"FILE"
             ~doc:"Shared fleet secret passed to each spawned dispatcher \
                   as --secret-file; workers must authenticate before \
                   receiving any work.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Supervision notices on stderr.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the checker as an overload-safe multi-tenant HTTP daemon"
       ~man:
         [ `S Manpage.s_description;
           `P "Serves POST /v1/check (raw DTS body, flags as query \
               parameters) and POST /v1/pipeline (JSON body shipping the \
               core DTS, delta modules, feature model, schemas and VM \
               selections inline), plus GET /healthz, /readyz and \
               /v1/stats.  Each admitted request runs as a forked child of \
               this same binary in a private working directory, so served \
               verdicts are byte-identical to the batch CLI on the same \
               inputs.  SIGTERM drains gracefully: stop accepting, answer \
               every admitted request, exit 0." ])
    Term.(const cmd_serve $ host $ port $ workers $ queue $ tenant_quota
          $ request_deadline $ read_timeout $ write_timeout $ max_body $ max_header
          $ retry_after $ max_request_jobs $ dispatch $ dispatch_secret_file $ verbose)

let journal_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"JOURNAL") in
  let fsck =
    let quiet =
      Arg.(value & flag
           & info [ "q"; "quiet" ] ~doc:"No census on stdout; exit code only.")
    in
    Cmd.v
      (Cmd.info "fsck"
         ~doc:"Check a --journal file: header, per-line CRCs, torn/corrupt \
               census, degradation marker.  Exit 0 clean, 1 recoverable \
               issues, 2 unusable.")
      Term.(const cmd_journal_fsck $ path $ quiet)
  in
  let compact =
    Cmd.v
      (Cmd.info "compact"
         ~doc:"Atomically rewrite a journal to its last-wins entries, \
               dropping torn lines, superseded duplicates and any \
               degradation marker (the explicit recovery step that lets \
               --resume trust a degraded journal again).")
      Term.(const cmd_journal_compact $ path)
  in
  Cmd.group
    (Cmd.info "journal" ~doc:"Inspect and maintain --journal files")
    [ fsck; compact ]

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the paper's running example end to end")
    Term.(const cmd_demo $ const ())

let main_cmd =
  Cmd.group
    (Cmd.info "llhsc" ~version:"1.0.0"
       ~doc:"DeviceTree syntax and semantic checker for static-partitioning hypervisors")
    [ check_cmd; products_cmd; configure_cmd; analyze_cmd; generate_cmd; pipeline_cmd;
      dispatch_cmd; worker_cmd; build_cmd; dtb_cmd; diff_cmd;
      overlay_cmd; smt2_cmd; sat_cmd; serve_cmd; journal_cmd; demo_cmd ]

(* A malformed fault schedule would silently run with no fault, so it
   stops every subcommand before any work. *)
let () =
  match Llhsc.Fault.check () with
  | Error msg ->
    Fmt.epr "%a@." Diag.pp (Diag.make ~code:"FAULT" "%s" msg);
    exit 2
  | Ok () -> exit (Cmd.eval' main_cmd)
