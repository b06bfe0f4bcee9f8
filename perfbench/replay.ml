(* The traced run: each layer's public functions called from the
   benchmark side, so the time of an operation splits into layers.

   The checker replay follows [Llhsc.Pipeline.run] (and `llhsc check`)
   call for call: parse, allocation, delta application per product,
   schema loading, and one fresh solver per task of at most eight
   syntactic obligations plus one per semantic check, with
   [Schema.Compile.check_node] split into [Solver.push], [compile_node],
   [Solver.check] and [Solver.pop].  The replayed report must equal the
   known answer, which is what the untraced run is checked against too.

   A traced run reports every per-layer metric BENCHMARK.json lists,
   whichever workload it runs, so every traced run measures every layer:
   the checker layers and certification on the workload's own operations
   (the quad pipeline, or one block of the served mix), the process and
   transport layers (shard pool, journal, fleet frames, HTTP, job spawn)
   on the same inputs through the public functions of those layers.  The
   three quad workloads therefore share their layer table; only the
   workload-level numbers before it differ.  The passes together take
   about a third of --seconds. *)

module T = Devicetree.Tree
module S = Smt.Solver
module Q = Llhsc.Quad_rv64

type counters = {
  mutable loads : int;
  mutable obligations : int;
  mutable queries : int;
  mutable solvers : int;
  mutable semantic_queries : int;
  mutable partition_queries : int;
  mutable vars : int;
  mutable clauses : int;
  mutable conflicts : int;
  mutable propagations : int;
  mutable cert_time : float;
  mutable cert_steps : int;
  mutable certified : int;
}

let counters () =
  { loads = 0; obligations = 0; queries = 0; solvers = 0; semantic_queries = 0;
    partition_queries = 0; vars = 0; clauses = 0; conflicts = 0; propagations = 0;
    cert_time = 0.; cert_steps = 0; certified = 0 }

(* Obligations per syntactic task, as in [Llhsc.Pipeline]. *)
let chunk_size = 8

let rec chunks l =
  match l with
  | [] -> []
  | _ ->
    let rec take n acc = function
      | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take chunk_size [] l in
    c :: chunks rest

(* One checking task on a fresh solver; its statistics are folded into
   [c] once the task is done, outside every span. *)
let with_solver tr c ~certify ~role f =
  let s = Trace.span tr "smt.create" (fun () -> S.create ~certify ()) in
  let r = f s in
  let q = (S.retry_report s).S.total_queries in
  c.solvers <- c.solvers + 1;
  c.queries <- c.queries + q;
  (match role with
   | `Semantic -> c.semantic_queries <- c.semantic_queries + q
   | `Partition -> c.partition_queries <- c.partition_queries + q
   | `Syntactic -> ());
  Scanf.sscanf (Fmt.str "%a" S.pp_stats s)
    "vars=%d clauses=%d learnts=%d decisions=%d conflicts=%d props=%d restarts=%d"
    (fun v cl _ _ k p _ ->
      c.vars <- c.vars + v;
      c.clauses <- c.clauses + cl;
      c.conflicts <- c.conflicts + k;
      c.propagations <- c.propagations + p);
  if certify then begin
    let cr = S.cert_report s in
    if cr.S.failures <> [] then failwith "certification failed in the replay";
    List.iter
      (fun (x : S.cert) ->
        c.cert_time <- c.cert_time +. x.S.time;
        c.cert_steps <- c.cert_steps + x.S.steps;
        c.certified <- c.certified + 1)
      cr.S.certs
  end;
  r

(* [Schema.Compile.check_node] and [Llhsc.Syntactic.check_obligations]
   for one obligation, with each solver call in its own span. *)
let check_obligation tr s ~product (path, (node : T.t), (schema : Schema.Binding.t)) =
  Trace.span tr "smt.scope" (fun () -> S.push s);
  Trace.span tr "schema.compile" (fun () ->
      Schema.Compile.compile_node s ~schema ~path:(product ^ ":" ^ path) node);
  let answer = Trace.span tr "smt.check" (fun () -> S.check s) in
  Trace.span tr "smt.scope" (fun () -> S.pop s);
  match answer with
  | S.Sat -> []
  | S.Unsat core ->
    let core = match core with [] -> [ "unsat:no-core" ] | _ -> core in
    [ Llhsc.Report.finding ~checker:"syntactic" ~node_path:path ~loc:node.T.loc ~core
        "node violates schema %s: %s" schema.Schema.Binding.id
        (String.concat "; " (Llhsc.Syntactic.summarize_core core)) ]
  | S.Unknown ->
    [ Llhsc.Report.finding ~severity:Llhsc.Report.Warning ~checker:"syntactic"
        ~node_path:path ~loc:node.T.loc
        "inconclusive: solver budget exhausted while checking schema %s"
        schema.Schema.Binding.id ]

(* [Llhsc.Quad_rv64.run_pipeline ()], rendered as `llhsc pipeline`
   prints it. *)
let pipeline tr c ~certify =
  let core = Trace.span tr "devicetree.parse" (fun () -> Q.core_tree ()) in
  let model = Trace.span tr "featuremodel.parse" (fun () -> Q.feature_model ()) in
  let deltas = Trace.span tr "delta.parse" (fun () -> Q.deltas ()) in
  let requests = List.mapi (fun i fs -> Llhsc.Alloc.request (i + 1) fs) Inputs.quad_vms in
  match
    Trace.span tr "alloc.allocate" (fun () ->
        Llhsc.Alloc.allocate ~exclusive:Q.exclusive model ~vms:(List.length requests) ~requests)
  with
  | Llhsc.Alloc.Rejected _ -> failwith "allocation rejected the quad product line"
  | Llhsc.Alloc.Allocated { vms; platform } ->
    let product (name, features) =
      let tree =
        Trace.span tr "delta.apply" (fun () -> Delta.Apply.generate ~core ~deltas ~selected:features)
      in
      let schemas = Trace.span tr "schema.load" (fun () -> Q.schemas_for tree) in
      c.loads <- c.loads + List.length schemas;
      let obls = Trace.span tr "syntactic.plan" (fun () -> Llhsc.Syntactic.obligations ~schemas tree) in
      c.obligations <- c.obligations + List.length obls;
      let syntactic =
        List.concat_map
          (fun chunk ->
            with_solver tr c ~certify ~role:`Syntactic (fun s ->
                List.concat_map (check_obligation tr s ~product:name) chunk))
          (chunks obls)
      in
      let semantic =
        with_solver tr c ~certify ~role:`Semantic (fun s ->
            Trace.span tr "semantic.check" (fun () -> Llhsc.Semantic.check ~solver:s tree))
      in
      { Llhsc.Pipeline.name; features; tree; findings = syntactic @ semantic }
    in
    let products =
      List.map product
        (List.map (fun (vm, fs) -> (Printf.sprintf "vm%d" vm, fs)) vms @ [ ("platform", platform) ])
    in
    let vm_products = List.filter (fun p -> p.Llhsc.Pipeline.name <> "platform") products in
    let platform_tree =
      (List.find (fun p -> p.Llhsc.Pipeline.name = "platform") products).Llhsc.Pipeline.tree
    in
    let partition_findings =
      with_solver tr c ~certify ~role:`Partition (fun s ->
          Trace.span tr "partition.check" (fun () ->
              Llhsc.Partition.check ~solver:s ~platform:platform_tree
                (List.map (fun p -> (p.Llhsc.Pipeline.name, p.Llhsc.Pipeline.tree)) vm_products)))
    in
    Trace.span tr "report.render" (fun () ->
        let delta_orders =
          List.map
            (fun p ->
              (p.Llhsc.Pipeline.name, Delta.Apply.order ~selected:p.Llhsc.Pipeline.features deltas))
            products
        in
        Fmt.str "%a" Llhsc.Pipeline.pp_outcome
          { Llhsc.Pipeline.products; alloc_findings = []; partition_findings; delta_orders;
            errors = []; cert = None; retry = None; replayed = []; journal_fault = None })

(* `llhsc check request.dts` without schemas, as the daemon runs it. *)
let check tr c ~certify kind =
  let tree =
    Trace.span tr "devicetree.parse" (fun () ->
        T.of_source ~file:"request.dts" (Inputs.check_dts kind))
  in
  let findings =
    with_solver tr c ~certify ~role:`Semantic (fun s ->
        Trace.span tr "semantic.check" (fun () -> Llhsc.Semantic.check ~solver:s tree))
  in
  Trace.span tr "report.render" (fun () ->
      match findings with
      | [] -> "request.dts: all checks passed\n"
      | fs -> String.concat "" (List.map (fun f -> Fmt.str "%a\n" Llhsc.Report.pp f) fs))

let operation tr c ~certify = function
  | Inputs.Pipeline_quad -> pipeline tr c ~certify
  | k -> check tr c ~certify k

(* The known report and exit code of one operation. *)
let expected goldens = function
  | Inputs.Pipeline_quad -> (Inputs.golden goldens Inputs.pipeline_golden, 0)
  | k -> (
    match Inputs.served_verdict (Inputs.golden goldens (Inputs.serve_golden k)) with
    | Some v -> v
    | None -> failwith ("malformed known answer for " ^ Inputs.kind_name k))

(* --- passes ---------------------------------------------------------------- *)

(* Repeat [f] for [budget] seconds, at least [min] times. *)
let repeat ?(min = 3) budget f =
  let stop = Harness.now () +. budget in
  let n = ref 0 in
  while !n < min || Harness.now () < stop do
    f ();
    incr n
  done;
  !n

(* Milliseconds [f ()] takes. *)
let elapsed_ms f = 1000. *. snd (Harness.timed f)

let median_ms ?min budget f =
  let samples = ref [] in
  ignore (repeat ?min budget (fun () -> samples := elapsed_ms f :: !samples));
  Stats.median !samples

(* Median milliseconds per call of a call too short to time alone: each
   sample times a batch of calls that together take about a millisecond,
   far above the clock's microsecond step. *)
let per_call_ms budget f =
  let batch = ref 0 in
  let t0 = Harness.now () in
  while Harness.now () -. t0 < 0.001 do
    f ();
    incr batch
  done;
  let batch = !batch in
  median_ms budget (fun () ->
      for _ = 1 to batch do
        f ()
      done)
  /. float_of_int batch

type setup = {
  kinds : Inputs.kind array; (* one block of the workload's operations *)
  goldens : Inputs.goldens;
  llhsc : string;
  work : string;
  seconds : float;
}

(* Whole blocks of operations, untraced and traced in turn (so drift in
   machine speed hits both alike); per-operation means of every
   checker-layer span and counter, plus coverage and the tracing
   overhead. *)
let checker_pass st tr =
  let failed = ref 0 and attempted = ref 0 in
  let want = Array.map (fun k -> fst (expected st.goldens k)) st.kinds in
  let block c tr =
    Array.iteri
      (fun i k ->
        let report =
          Trace.operation tr ("op." ^ Inputs.kind_name k) (fun () -> operation tr c ~certify:false k)
        in
        incr attempted;
        if report <> want.(i) then incr failed)
      st.kinds
  in
  let untraced = Trace.create ~enabled:false in
  let untraced_ms = ref 0. in
  block (counters ()) untraced;
  let c = counters () in
  let blocks =
    repeat (0.15 *. st.seconds) (fun () ->
        untraced_ms := !untraced_ms +. elapsed_ms (fun () -> block (counters ()) untraced);
        block c tr)
  in
  let ops = float_of_int (blocks * Array.length st.kinds) in
  let per_op x = x /. ops in
  let untraced_op_ms = per_op !untraced_ms in
  let selfs = Trace.self_times tr in
  let self name =
    match Hashtbl.find_opt selfs name with Some (s, w, _) -> (s, w) | None -> (0., 0.)
  in
  let ms name = (name ^ "_ms", per_op (fst (self name) *. 1000.)) in
  let layer_ms = Hashtbl.fold (fun _ (s, _, _) acc -> acc +. s) selfs 0. *. 1000. in
  let traced_op_ms = per_op (Trace.op_time tr *. 1000.) in
  let count name v = (name, per_op (float_of_int v)) in
  ( [ ms "devicetree.parse";
      ("devicetree.parse_mwords", per_op (snd (self "devicetree.parse")) /. 1e6);
      ms "featuremodel.parse"; ms "delta.parse"; ms "delta.apply"; ms "schema.load";
      count "schema.loads" c.loads; ms "alloc.allocate"; ms "syntactic.plan";
      count "syntactic.obligations" c.obligations; ms "smt.create"; ms "smt.scope";
      ms "schema.compile";
      ("schema.compile_mwords", per_op (snd (self "schema.compile")) /. 1e6);
      ms "smt.check"; count "smt.queries" c.queries; count "smt.solvers" c.solvers;
      count "sat.vars" c.vars; count "sat.clauses" c.clauses; count "sat.conflicts" c.conflicts;
      count "sat.propagations" c.propagations; ms "semantic.check";
      count "semantic.queries" c.semantic_queries; ms "partition.check";
      count "partition.queries" c.partition_queries; ms "report.render";
      ("trace.coverage", per_op layer_ms /. untraced_op_ms);
      ("trace.overhead_pct", 100. *. ((traced_op_ms /. untraced_op_ms) -. 1.)) ],
    !attempted,
    !failed )

(* The same operations on certifying solvers: what certification adds. *)
let certify_pass st =
  let c = counters () in
  let off = Trace.create ~enabled:false in
  let n =
    repeat (0.03 *. st.seconds) (fun () ->
        Array.iter (fun k -> ignore (operation off c ~certify:true k)) st.kinds)
  in
  let ops = float_of_int (n * Array.length st.kinds) in
  [ ("smt.certify_ms", c.cert_time *. 1000. /. ops);
    ("sat.trace_steps", float_of_int c.cert_steps /. ops);
    ("smt.certified_queries", float_of_int c.certified /. ops) ]

let quad_tasks () =
  Llhsc.Pipeline.plan_tasks ~exclusive:Q.exclusive ~model:(Q.feature_model ())
    ~core:(Q.core_tree ()) ~deltas:(Q.deltas ()) ~schemas_for:Q.schemas_for
    ~vm_requests:Inputs.quad_vms ()

let task_results tasks =
  Array.map
    (function Some r -> r | None -> failwith "a pool task failed")
    (Llhsc.Shard.run_tasks ~jobs:1 tasks)

(* The check phase of the quad pipeline through the forked worker pool
   at one and two jobs; CPU counts the pool's reaped workers too. *)
let shard_pass st =
  let tasks = quad_tasks () in
  let cpu () = (Harness.usage `Self).Harness.cpu_s +. (Harness.usage `Children).Harness.cpu_s in
  let run jobs =
    let c0 = cpu () in
    let results, s = Harness.timed (fun () -> Llhsc.Shard.run_tasks ~jobs tasks) in
    if Array.exists Option.is_none results then failwith "a pool task failed";
    (s *. 1000., (cpu () -. c0) *. 1000.)
  in
  let j1 = ref [] and j2 = ref [] in
  ignore (repeat (0.04 *. st.seconds) (fun () -> j1 := run 1 :: !j1; j2 := run 2 :: !j2));
  let med f l = Stats.median (List.map f l) in
  let n = float_of_int (Array.length tasks) in
  let result_bytes =
    Array.fold_left
      (fun acc r -> acc + String.length (Llhsc.Json.to_string (Llhsc.Shard.result_to_json r)))
      0 (task_results tasks)
  in
  [ ("shard.tasks", n);
    ("shard.run_j1_ms", med fst !j1);
    ("shard.run_j2_ms", med fst !j2);
    ("shard.cpu_overhead_ms_per_task", (med snd !j2 -. med snd !j1) /. n);
    ("shard.result_bytes", float_of_int result_bytes) ]

(* One fsync'd record per product plus the partition record, as a
   journaled pipeline run writes them. *)
let journal_pass st =
  let inputs_hash = Llhsc.Journal.inputs_hash ~parts:[ "perfbench" ] in
  let outcome = Q.run_pipeline () in
  let products = outcome.Llhsc.Pipeline.products in
  let entries =
    List.map
      (fun (p : Llhsc.Pipeline.product) ->
        { Llhsc.Journal.kind = Llhsc.Journal.Product; name = p.name;
          hash = Llhsc.Journal.product_hash ~inputs_hash ~name:p.name ~features:p.features;
          features = p.features;
          order = List.assoc p.name outcome.Llhsc.Pipeline.delta_orders;
          findings = p.findings; certified = false; cert_failures = 0 })
      products
    @ [ { Llhsc.Journal.kind = Llhsc.Journal.Partition; name = "partition";
          hash =
            Llhsc.Journal.partition_hash ~inputs_hash
              ~products:(List.map (fun (p : Llhsc.Pipeline.product) -> (p.name, p.features)) products);
          features = []; order = []; findings = outcome.Llhsc.Pipeline.partition_findings;
          certified = false; cert_failures = 0 } ]
  in
  let path = Filename.concat st.work "journal-pass.jsonl" in
  let per_record = ref [] in
  ignore
    (repeat (0.02 *. st.seconds) (fun () ->
         if Sys.file_exists path then Sys.remove path;
         let sink = Llhsc.Journal.open_ ~path ~inputs_hash in
         let ms = elapsed_ms (fun () -> List.iter (Llhsc.Journal.record sink) entries) in
         if Llhsc.Journal.degradation sink <> None then failwith "journal degraded";
         Llhsc.Journal.close sink;
         per_record := (ms /. float_of_int (List.length entries)) :: !per_record));
  [ ("journal.record_ms", Stats.median !per_record);
    ("journal.records", float_of_int (List.length entries)) ]

let quad_spec =
  { Fleet.Spec.core = { Fleet.Spec.file = "quad-rv64.dts"; text = Q.core_dts };
    deltas = { Fleet.Spec.file = "quad-rv64.deltas"; text = Q.deltas_src };
    model = Q.feature_model_src;
    schemas = Q.schemas_src;
    files = [];
    vms = Inputs.quad_vms;
    exclusive = Q.exclusive;
    certify = false; retry = None; max_conflicts = None; solver_timeout = None;
    unsound = None; skip = [] }

(* One task result as a worker sends it. *)
let result_msg ~spec i r =
  let module J = Llhsc.Json in
  J.to_string
    (J.Obj
       [ ( "result",
           J.Obj [ ("task", J.Int i); ("spec", J.Str spec); ("r", Llhsc.Shard.result_to_json r) ] )
       ])

(* The frames of one authenticated fleet run with two workers: per
   worker a hello, challenge, auth, spec setup, ready and retire; per
   task a lease, a heartbeat and the result. *)
let fleet_frames ~wire ~spec ~results =
  let module J = Llhsc.Json in
  let msg j = J.to_string j in
  let nonce = String.make 64 'a' in
  let per_worker =
    [ msg
        (J.Obj
           [ ("hello", J.Obj [ ("pid", J.Int 4242); ("cached", J.List []); ("nonce", J.Str nonce) ])
           ]);
      msg (J.Obj [ ("challenge", J.Obj [ ("nonce", J.Str nonce); ("mac", J.Str nonce) ]) ]);
      msg (J.Obj [ ("auth", J.Obj [ ("mac", J.Str nonce) ]) ]);
      wire;
      msg (J.Obj [ ("ready", J.Obj [ ("spec", J.Str spec); ("tasks", J.Int (Array.length results)) ]) ]);
      msg (J.Obj [ ("retire", J.Bool true) ]) ]
  in
  let per_task =
    Array.to_list results
    |> List.mapi (fun i r ->
           [ msg (J.Obj [ ("task", J.Int i) ]);
             msg (J.Obj [ ("hb", J.Obj [ ("task", J.Int i); ("spec", J.Str spec) ]) ]);
             result_msg ~spec i r ])
    |> List.concat
  in
  per_worker @ per_worker @ per_task

let fleet_pass st =
  let module J = Llhsc.Json in
  let spec = Fleet.Spec.hash quad_spec in
  let setup_msg () =
    J.to_string (J.Obj [ ("setup", Fleet.Spec.to_wire quad_spec); ("hash", J.Str spec) ])
  in
  let wire = setup_msg () in
  let encode_ms = per_call_ms (0.005 *. st.seconds) (fun () -> ignore (setup_msg ())) in
  let build_ms =
    per_call_ms (0.005 *. st.seconds) (fun () ->
        let spec =
          match J.parse wire with
          | Ok j -> Option.bind (J.member "setup" j) Fleet.Spec.of_wire
          | Error _ -> None
        in
        match Option.map Fleet.Spec.build spec with
        | Some (Ok _) -> ()
        | _ -> failwith "the shipped spec did not build")
  in
  let results = task_results (quad_tasks ()) in
  let frames = fleet_frames ~wire ~spec ~results in
  let key = Llhsc.Hmac.hmac ~key:"perfbench" "llhsc-sess:a:b" in
  let on_wire seq payload = Fleet.Frame.encode (Fleet.Frame.seal ~key ~seq payload) in
  let codec () =
    let dec = Fleet.Frame.Decoder.create () in
    List.iteri
      (fun seq payload ->
        let bytes = on_wire seq payload in
        Fleet.Frame.Decoder.feed dec bytes 0 (String.length bytes);
        match Fleet.Frame.Decoder.next dec with
        | `Frame f when Fleet.Frame.unseal ~key ~seq f = Some payload -> ()
        | _ -> failwith "frame codec round trip failed")
      frames
  in
  let codec_ms = median_ms (0.01 *. st.seconds) codec in
  (* Sealed result frames as they cross the socket. *)
  let result_bytes =
    Array.to_list results
    |> List.mapi (fun i r -> String.length (on_wire i (result_msg ~spec i r)))
    |> List.fold_left ( + ) 0
  in
  [ ("fleet.spec_wire_bytes", float_of_int (String.length wire));
    ("fleet.spec_encode_ms", encode_ms);
    ("fleet.spec_build_ms", build_ms);
    ("fleet.frames", float_of_int (List.length frames));
    ("fleet.frame_codec_ms", codec_ms);
    ("fleet.result_bytes", float_of_int result_bytes) ]

(* The daemon's request parser over the workload's requests, per request. *)
let http_pass st =
  let requests = Array.map Inputs.http_request st.kinds in
  let parse raw =
    let p = Serve.Http.create () in
    Serve.Http.feed p raw;
    match Serve.Http.poll p with `Request _ -> () | _ -> failwith "request did not parse"
  in
  let block_ms = per_call_ms (0.01 *. st.seconds) (fun () -> Array.iter parse requests) in
  [ ("serve.http_parse_ms", block_ms /. float_of_int (Array.length requests)) ]

(* Process costs: the CLI's exec floor, each job kind of the daemon run
   directly with its exact argv, and what the daemon adds on top of a
   small job (HTTP, admission, spawn, response). *)
let process_pass st ~served_ms =
  let floor_ms =
    median_ms (0.01 *. st.seconds) (fun () ->
        match Harness.run_capture st.llhsc [ "--version" ] with
        | Unix.WEXITED 0, _ -> ()
        | _ -> failwith "llhsc --version failed")
  in
  let job_ms kind =
    let argv, files = Inputs.job kind in
    let dir = Filename.concat st.work ("job-" ^ Inputs.kind_name kind) in
    List.iter (fun (f, text) -> Harness.write_file (Filename.concat dir f) text) files;
    let report, code = expected st.goldens kind in
    median_ms (0.015 *. st.seconds) (fun () ->
        match Harness.run_capture ~cwd:dir st.llhsc argv with
        | Unix.WEXITED c, out when c = code && out = report -> ()
        | _ -> failwith ("direct job " ^ Inputs.kind_name kind ^ " gave a wrong answer"))
  in
  let sbc = job_ms Inputs.Check_sbc in
  [ ("cli.exec_floor_ms", floor_ms);
    ("serve.job_ms.check_sbc", sbc);
    ("serve.job_ms.check_quad", job_ms Inputs.Check_quad);
    ("serve.job_ms.pipeline_quad", job_ms Inputs.Pipeline_quad);
    ("serve.overhead_ms", served_ms (0.03 *. st.seconds) -. sbc) ]

(* The whole traced run; [served_ms budget] times sequential small
   checks through a live daemon (see {!Workloads}).  Returns the
   per-layer metrics, operations attempted and failed, and the tracer. *)
let run st ~served_ms =
  let tr = Trace.create ~enabled:true in
  let checker, attempted, failed = checker_pass st tr in
  let metrics =
    checker @ certify_pass st @ shard_pass st @ journal_pass st @ fleet_pass st @ http_pass st
    @ process_pass st ~served_ms
  in
  (metrics, attempted, failed, tr)
