(* llhsc benchmark harness.

   The paper (DSN'23) is a tool paper whose evaluation is the running
   example; its reproducible artifacts are figures/listings plus claims in
   the text.  This harness has two parts:

   1. An *experiment report* (printed first): each experiment E1..E11 from
      DESIGN.md is executed and its measured outcome is printed next to the
      paper's claim.  This is the data recorded in EXPERIMENTS.md.

   2. *Timing benches* (Bechamel, one Test.make per experiment id),
      including the scaling sweeps E10/E11 and the ablations (E12
      incremental-vs-scratch, CDCL-vs-DPLL) that characterise the solver
      substrate standing in for Z3.

     dune exec bench/main.exe            # full run
     dune exec bench/main.exe -- report  # experiment report only *)

open Bechamel

module RE = Llhsc.Running_example
module T = Devicetree.Tree

(* ------------------------------------------------------------------ *)
(* Shared workloads                                                     *)
(* ------------------------------------------------------------------ *)

let run_pipeline () =
  Llhsc.Pipeline.run ~exclusive:RE.exclusive ~model:(RE.feature_model ())
    ~core:(RE.core_tree ()) ~deltas:(RE.deltas ()) ~schemas_for:RE.schemas_for
    ~vm_requests:[ RE.vm1_features; RE.vm2_features ] ()

let clash_tree () =
  let t = RE.core_tree () in
  T.set_prop t ~path:"/uart@20000000" "reg"
    [ Devicetree.Ast.Cells
        { bits = 32;
          cells = List.map (fun v -> Devicetree.Ast.Cell_int v) [ 0x0L; 0x60000000L; 0x0L; 0x1000L ]
        }
    ]

let truncated_tree () =
  let deltas = List.filter (fun d -> d.Delta.Lang.name <> "d4") (RE.deltas ()) in
  Delta.Apply.generate ~core:(RE.core_tree ()) ~deltas ~selected:RE.vm1_features

(* Synthetic tree with [n] disjoint device nodes (for the E11 sweep). *)
let synthetic_tree n =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "/dts-v1/;\n/ { #address-cells = <1>; #size-cells = <1>;\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  dev%d@%x { reg = <0x%x 0x1000>; };\n" i (0x10000000 + (i * 0x10000))
         (0x10000000 + (i * 0x10000)))
  done;
  Buffer.add_string buf "};\n";
  T.of_source ~file:"synthetic.dts" (Buffer.contents buf)

(* Synthetic feature model: [groups] XOR groups of [width] children each. *)
let synthetic_model ~groups ~width =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "feature abstract Root {\n";
  for g = 0 to groups - 1 do
    Buffer.add_string buf (Printf.sprintf "  mandatory abstract g%d xor {\n" g);
    for c = 0 to width - 1 do
      Buffer.add_string buf (Printf.sprintf "    g%dc%d;\n" g c)
    done;
    Buffer.add_string buf "  }\n"
  done;
  Buffer.add_string buf "}\n";
  Featuremodel.Parse.parse (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Part 1: experiment report (paper claim vs measured)                  *)
(* ------------------------------------------------------------------ *)

let check mark = if mark then "OK" else "DIFFERS"

let report () =
  Fmt.pr "==================================================================@.";
  Fmt.pr "llhsc experiment report (paper claim vs measured)@.";
  Fmt.pr "==================================================================@.";

  (* E1: Fig. 1a has 12 valid products. *)
  let env = Featuremodel.Analysis.encode (RE.feature_model ()) in
  let nproducts = Featuremodel.Analysis.count_products env in
  Fmt.pr "E1  (Fig 1a)   valid products:           paper=12        measured=%d  [%s]@."
    nproducts (check (nproducts = 12));

  (* E2: Fig. 1b/1c products are valid; max 2 VMs. *)
  let fig1b = Featuremodel.Analysis.is_valid_product env RE.vm1_features in
  let fig1c = Featuremodel.Analysis.is_valid_product env RE.vm2_features in
  let maxvms = Featuremodel.Multi.max_vms ~exclusive:RE.exclusive (RE.feature_model ()) in
  Fmt.pr "E2  (Fig 1b/c) products valid, max VMs:  paper=yes,2     measured=%b/%b,%d  [%s]@."
    fig1b fig1c maxvms (check (fig1b && fig1c && maxvms = 2));

  (* E3: end-to-end pipeline green. *)
  let outcome = run_pipeline () in
  Fmt.pr "E3  (Fig 2)    end-to-end checks:        paper=green     measured=%s  [%s]@."
    (if Llhsc.Pipeline.ok outcome then "green" else "red")
    (check (Llhsc.Pipeline.ok outcome));

  (* E4: delta orders d3 < d4 < d_add. *)
  let order1 = List.assoc "vm1" outcome.Llhsc.Pipeline.delta_orders in
  let order2 = List.assoc "vm2" outcome.Llhsc.Pipeline.delta_orders in
  let pos x xs =
    let rec go i = function [] -> -1 | y :: r -> if x = y then i else go (i + 1) r in
    go 0 xs
  in
  let ok1 = pos "d3" order1 < pos "d4" order1 && pos "d4" order1 < pos "d1" order1 in
  let ok2 = pos "d3" order2 < pos "d4" order2 && pos "d4" order2 < pos "d2" order2 in
  Fmt.pr "E4  (SIII-B)   delta orders:             paper=d3<d4<add measured=%s; %s  [%s]@."
    (String.concat "<" order1) (String.concat "<" order2)
    (check (ok1 && ok2));

  (* E5: uart/memory clash detected semantically, invisible syntactically. *)
  let t5 = clash_tree () in
  let direct5 =
    Llhsc.Report.errors (Llhsc.Syntactic.check_direct ~schemas:(RE.schemas_for t5) t5)
  in
  let sem5 = Llhsc.Semantic.check_memory t5 in
  Fmt.pr "E5  (SI-A)     uart clash:               paper=sem-only  measured=dt-schema:%d llhsc:%d  [%s]@."
    (List.length direct5) (List.length sem5)
    (check (direct5 = [] && List.length sem5 = 1));

  (* E6: omitting d4 -> 4 banks, collision at 0x0. *)
  let t6 = truncated_tree () in
  let banks =
    Devicetree.Addresses.decode_reg ~address_cells:1 ~size_cells:1
      (Option.get (T.get_prop (T.find_exn t6 "/memory@40000000") "reg"))
  in
  let sem6 = Llhsc.Semantic.check_memory t6 in
  let at_zero =
    List.exists (fun f -> Llhsc.Util.contains f.Llhsc.Report.message "at address 0x0") sem6
  in
  Fmt.pr "E6  (SIV-C)    64->32 truncation:        paper=4banks@@0  measured=%dbanks,0x0:%b  [%s]@."
    (List.length banks) at_zero
    (check (List.length banks = 4 && at_zero));

  (* E7: constraints (1)-(6) discharge; a const mutation flips to UNSAT. *)
  let smt_fails tree =
    Schema.Compile.check_tree (Smt.Solver.create ()) ~schemas:(RE.schemas_for tree) tree
  in
  let intact = smt_fails (RE.core_tree ()) = [] in
  let broken =
    smt_fails
      (T.set_prop (RE.core_tree ()) ~path:"/memory@40000000" "device_type"
         [ Devicetree.Ast.Str "ram" ])
    <> []
  in
  Fmt.pr "E7  (Lst 5)    constraints (1)-(6):      paper=SAT/UNSAT measured=%b/%b  [%s]@."
    intact broken (check (intact && broken));

  (* E8: platform.c fields match Listing 3. *)
  let platform_prod =
    List.find (fun p -> p.Llhsc.Pipeline.name = "platform") outcome.Llhsc.Pipeline.products
  in
  let pc = Bao.Platform.to_c (Bao.Platform.of_tree platform_prod.Llhsc.Pipeline.tree) in
  let has s = Llhsc.Util.contains pc s in
  let e8 =
    has ".cpu_num = 2" && has ".region_num = 2"
    && has "{ .base = 0x40000000, .size = 0x20000000 }"
    && has "{ .base = 0x60000000, .size = 0x20000000 }"
    && has ".core_num = (uint8_t[]) {2}"
  in
  Fmt.pr "E8  (Lst 3)    platform_desc fields:     paper=match     measured=%s  [%s]@."
    (if e8 then "match" else "mismatch") (check e8);

  (* E9: struct config fields match Listing 6's shape. *)
  let vms =
    List.filter (fun p -> p.Llhsc.Pipeline.name <> "platform") outcome.Llhsc.Pipeline.products
  in
  let cc =
    Bao.Config.to_c
      (Bao.Config.of_vm_trees
         (List.map (fun p -> (p.Llhsc.Pipeline.name, p.Llhsc.Pipeline.tree)) vms))
  in
  let hasc s = Llhsc.Util.contains cc s in
  let e9 =
    hasc ".vmlist_size = 2" && hasc ".entry = 0x40000000"
    && hasc "{ .pa = 0x20000000, .va = 0x20000000, .size = 0x1000 }"
    && hasc ".ipc_num = 1" && hasc ".shmemlist_size = 2"
  in
  Fmt.pr "E9  (Lst 6)    struct config fields:     paper=match     measured=%s  [%s]@."
    (if e9 then "match" else "mismatch") (check e9);

  (* E10/E11 functional outcomes (timings in part 2). *)
  let t0 = Unix.gettimeofday () in
  let m =
    Featuremodel.Multi.encode ~exclusive:[ "g0" ] (synthetic_model ~groups:4 ~width:8) ~vms:4
  in
  let alloc_sat = Featuremodel.Multi.is_allocatable m in
  let t1 = Unix.gettimeofday () in
  Fmt.pr "E10 (SIV-A)    alloc 4 VMs x 8 cpus:     sat=%b in %.1f ms@." alloc_sat
    ((t1 -. t0) *. 1000.);
  let t0 = Unix.gettimeofday () in
  let n_overlaps = List.length (Llhsc.Semantic.check_memory (synthetic_tree 64)) in
  let t1 = Unix.gettimeofday () in
  Fmt.pr "E11 (frm 7)    overlap check, 64 regions: collisions=%d in %.1f ms@." n_overlaps
    ((t1 -. t0) *. 1000.);
  (* E13: cross-VM partitioning — shared hardware warns, d7/d8 partition. *)
  let shared_warnings = List.length outcome.Llhsc.Pipeline.partition_findings in
  let partitioned =
    Llhsc.Pipeline.run ~exclusive:RE.exclusive ~model:(RE.feature_model ())
      ~core:(RE.core_tree ()) ~deltas:(RE.partitioned_deltas ())
      ~schemas_for:RE.schemas_for
      ~vm_requests:[ RE.vm1_partitioned_features; RE.vm2_partitioned_features ] ()
  in
  let part_findings = List.length partitioned.Llhsc.Pipeline.partition_findings in
  Fmt.pr
    "E13 (SI-A)     RAM partitioning:         shared=%d warn  partitioned=%d  [%s]@."
    shared_warnings part_findings
    (check (shared_warnings = 4 && part_findings = 0));
  (* E14: the quad-core RV64 case study, three VMs fully partitioned. *)
  let quad = Llhsc.Quad_rv64.run_pipeline () in
  Fmt.pr "E14 (scale)    quad RV64, 3 VMs:         green=%b cross-VM=%d  [%s]@."
    (Llhsc.Pipeline.ok quad)
    (List.length quad.Llhsc.Pipeline.partition_findings)
    (check (Llhsc.Pipeline.ok quad && quad.Llhsc.Pipeline.partition_findings = []));
  Fmt.pr "==================================================================@.@."

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel timing benches                                      *)
(* ------------------------------------------------------------------ *)

let stage = Staged.stage

let e1_bench =
  Test.make ~name:"E01-fig1-count-products"
    (stage @@ fun () ->
    Featuremodel.Analysis.count_products (Featuremodel.Analysis.encode (RE.feature_model ())))

let e2_bench =
  Test.make ~name:"E02-fig1-two-vm-allocation"
    (stage @@ fun () ->
    Llhsc.Alloc.allocate ~exclusive:RE.exclusive (RE.feature_model ()) ~vms:2
      ~requests:[ Llhsc.Alloc.request 1 [ "veth0" ]; Llhsc.Alloc.request 2 [ "veth1" ] ])

let e3_bench = Test.make ~name:"E03-fig2-end-to-end" (stage run_pipeline)

let e4_bench =
  let deltas = RE.deltas () in
  Test.make ~name:"E04-delta-linearize"
    (stage @@ fun () -> Delta.Apply.order ~selected:RE.vm1_features deltas)

let e5_bench =
  let tree = clash_tree () in
  Test.make ~name:"E05-clash-detection" (stage @@ fun () -> Llhsc.Semantic.check_memory tree)

let e6_bench =
  let tree = truncated_tree () in
  Test.make ~name:"E06-truncation-detection"
    (stage @@ fun () -> Llhsc.Semantic.check_memory tree)

let e7_bench =
  let tree = RE.core_tree () in
  let schemas = RE.schemas_for tree in
  Test.make ~name:"E07-syntactic-smt"
    (stage @@ fun () -> Schema.Compile.check_tree (Smt.Solver.create ()) ~schemas tree)

let e7_baseline_bench =
  let tree = RE.core_tree () in
  let schemas = RE.schemas_for tree in
  Test.make ~name:"E07-syntactic-direct-baseline"
    (stage @@ fun () -> Schema.Validate.check schemas tree)

let e8_bench =
  let outcome = run_pipeline () in
  let platform =
    (List.find (fun p -> p.Llhsc.Pipeline.name = "platform") outcome.Llhsc.Pipeline.products)
      .Llhsc.Pipeline.tree
  in
  Test.make ~name:"E08-gen-platform-config"
    (stage @@ fun () -> Bao.Platform.to_c (Bao.Platform.of_tree platform))

let e9_bench =
  let outcome = run_pipeline () in
  let vms =
    List.filter (fun p -> p.Llhsc.Pipeline.name <> "platform") outcome.Llhsc.Pipeline.products
    |> List.map (fun p -> (p.Llhsc.Pipeline.name, p.Llhsc.Pipeline.tree))
  in
  Test.make ~name:"E09-gen-vm-config"
    (stage @@ fun () -> Bao.Config.to_c (Bao.Config.of_vm_trees vms))

(* E10: allocation solving time vs problem size (n cpus x m VMs). *)
let e10_benches =
  List.map
    (fun (width, vms) ->
      let model = synthetic_model ~groups:2 ~width in
      Test.make ~name:(Printf.sprintf "E10-alloc-scaling-n%02d-m%d" width vms)
        (stage @@ fun () ->
        Featuremodel.Multi.is_allocatable
          (Featuremodel.Multi.encode ~exclusive:[ "g0" ] model ~vms)))
    [ (4, 2); (8, 2); (8, 4); (16, 4); (32, 4); (32, 8) ]

(* E11: overlap checking time vs number of regions, in both the
   paper-faithful all-pairs formulation and with the sweep prefilter. *)
let e11_benches =
  List.concat_map
    (fun n ->
      let tree = synthetic_tree n in
      [ Test.make ~name:(Printf.sprintf "E11-overlap-pairwise-%03d" n)
          (stage @@ fun () -> Llhsc.Semantic.check_memory ~strategy:`Pairwise tree);
        Test.make ~name:(Printf.sprintf "E11-overlap-sweep-%03d" n)
          (stage @@ fun () -> Llhsc.Semantic.check_memory ~strategy:`Sweep tree)
      ])
    [ 2; 8; 32 ]

(* E12: incremental (one solver, push/pop) vs from-scratch solving — the
   paper's §VI argument for adding constraints to the same Z3 instance. *)
let e12_regions =
  List.init 12 (fun i ->
      { Llhsc.Semantic.owner = Printf.sprintf "/dev%d" i;
        region = { Devicetree.Addresses.base = Int64.of_int (0x1000 * i); size = 0x800L };
        loc = Devicetree.Loc.dummy
      })

let all_pairs =
  let rec pairs = function
    | [] -> []
    | r :: rest -> List.map (fun r' -> (r, r')) rest @ pairs rest
  in
  pairs e12_regions

let e12_incremental =
  Test.make ~name:"E12-incremental-one-solver"
    (stage @@ fun () ->
    let solver = Smt.Solver.create () in
    List.iter
      (fun (a, b) -> ignore (Llhsc.Semantic.pair_overlap solver a b : [ `Overlap of int64 | `Disjoint | `Inconclusive ]))
      all_pairs)

let e12_scratch =
  Test.make ~name:"E12-scratch-solver-per-query"
    (stage @@ fun () ->
    List.iter
      (fun (a, b) ->
        let solver = Smt.Solver.create () in
        ignore (Llhsc.Semantic.pair_overlap solver a b : [ `Overlap of int64 | `Disjoint | `Inconclusive ]))
      all_pairs)

(* Ablation: CDCL vs plain DPLL on the same Tseitin encoding of a
   feature-model formula. *)
let ablation_model = synthetic_model ~groups:3 ~width:6

let ablation_formula num_vars_ref =
  (* Atoms are pre-numbered 0..n-1 so both solvers see identical CNF. *)
  let names = Featuremodel.Model.feature_names ablation_model in
  let vars = List.mapi (fun i n -> (n, i)) names in
  num_vars_ref := List.length names;
  Featuremodel.Analysis.formula ablation_model (fun n -> List.assoc n vars)

let ablation_cdcl =
  Test.make ~name:"ablation-cdcl-fm-sat"
    (stage @@ fun () ->
    let nv = ref 0 in
    let formula = ablation_formula nv in
    let solver = Sat.Solver.create () in
    for _ = 1 to !nv do
      ignore (Sat.Solver.new_var solver : int)
    done;
    ignore (Sat.Formula.assert_in solver formula : bool);
    Sat.Solver.solve solver)

let ablation_dpll =
  Test.make ~name:"ablation-dpll-fm-sat"
    (stage @@ fun () ->
    let nv = ref 0 in
    let formula = ablation_formula nv in
    let problem = Sat.Dpll.of_formula ~num_vars:!nv formula in
    Sat.Dpll.solve problem)

let e14_bench =
  Test.make ~name:"E14-quad-rv64-pipeline"
    (stage @@ fun () -> Llhsc.Quad_rv64.run_pipeline ())

(* Certification column: the same workload with proof logging + independent
   checking of every verdict.  The delta vs E14 is the certification
   overhead reported in BENCH_certify.json. *)
let e14_certify_bench =
  Test.make ~name:"E14-quad-rv64-certify"
    (stage @@ fun () -> Llhsc.Quad_rv64.run_pipeline ~certify:true ())

let e13_bench =
  Test.make ~name:"E13-partition-check"
    (stage @@ fun () ->
    Llhsc.Pipeline.run ~exclusive:RE.exclusive ~model:(RE.feature_model ())
      ~core:(RE.core_tree ()) ~deltas:(RE.partitioned_deltas ())
      ~schemas_for:RE.schemas_for
      ~vm_requests:[ RE.vm1_partitioned_features; RE.vm2_partitioned_features ] ())

let all_tests =
  [ e1_bench; e2_bench; e3_bench; e4_bench; e5_bench; e6_bench; e7_bench;
    e7_baseline_bench; e8_bench; e9_bench ]
  @ e10_benches @ e11_benches
  @ [ e12_incremental; e12_scratch; e13_bench; e14_bench; e14_certify_bench;
      ablation_cdcl; ablation_dpll ]

let run_benchmarks () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ~kde:None () in
  Fmt.pr "benchmarks (time per run, OLS estimate over monotonic clock):@.";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols (List.hd instances) raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some [ e ] -> e
            | Some _ | None -> nan
          in
          let name = Test.Elt.name elt in
          if ns > 1_000_000. then Fmt.pr "  %-36s %10.3f ms/run@." name (ns /. 1_000_000.)
          else if ns > 1_000. then Fmt.pr "  %-36s %10.3f us/run@." name (ns /. 1_000.)
          else Fmt.pr "  %-36s %10.1f ns/run@." name ns)
        (Test.elements test))
    all_tests

(* ------------------------------------------------------------------ *)
(* Certification overhead measurement (BENCH_certify.json)              *)
(* ------------------------------------------------------------------ *)

(* Median wall-clock of [runs] executions of [f]. *)
let median_ms ~runs f =
  Benchlib.Stats.median
    (List.init runs (fun _ -> 1000. *. snd (Benchlib.Harness.timed f)))

let write_certify_json path =
  let runs = 11 in
  let plain_ms = median_ms ~runs (fun () -> Llhsc.Quad_rv64.run_pipeline ()) in
  let certify_ms =
    median_ms ~runs (fun () -> Llhsc.Quad_rv64.run_pipeline ~certify:true ())
  in
  let outcome = Llhsc.Quad_rv64.run_pipeline ~certify:true () in
  let queries, steps, check_ms, failures =
    match outcome.Llhsc.Pipeline.cert with
    | None -> (0, 0, 0., 0)
    | Some r ->
      ( List.length r.Smt.Solver.certs,
        List.fold_left (fun a (c : Smt.Solver.cert) -> a + c.steps) 0 r.Smt.Solver.certs,
        1000.
        *. List.fold_left (fun a (c : Smt.Solver.cert) -> a +. c.time) 0. r.Smt.Solver.certs,
        List.length r.Smt.Solver.failures )
  in
  Llhsc.Durable.with_file ~path (fun oc ->
  Printf.fprintf oc
    {|{
  "workload": "quad_rv64 pipeline (3 VMs + platform)",
  "runs": %d,
  "plain_ms": %.3f,
  "certify_ms": %.3f,
  "overhead_pct": %.1f,
  "certified_queries": %d,
  "trace_steps_total": %d,
  "checker_ms": %.3f,
  "failures": %d
}
|}
    runs plain_ms certify_ms
    (100. *. ((certify_ms /. plain_ms) -. 1.))
    queries steps check_ms failures);
  Fmt.pr "wrote %s (plain %.2f ms, certify %.2f ms, %d queries, %d steps)@." path
    plain_ms certify_ms queries steps

(* ------------------------------------------------------------------ *)
(* Resilience measurement (BENCH_resilience.json)                       *)
(* ------------------------------------------------------------------ *)

(* The fail-operational column: quad_rv64 under a deliberately tight solver
   budget, with and without the retry-with-escalation ladder, plus the cost
   of journaling the run and of resuming from that journal. *)

let count_inconclusive (outcome : Llhsc.Pipeline.outcome) =
  let contains_inconclusive msg =
    let n = String.length msg and p = "inconclusive" in
    let k = String.length p in
    let rec scan i = i + k <= n && (String.sub msg i k = p || scan (i + 1)) in
    scan 0
  in
  let count fs =
    List.length
      (List.filter (fun (f : Llhsc.Report.finding) -> contains_inconclusive f.message) fs)
  in
  List.fold_left
    (fun acc (p : Llhsc.Pipeline.product) -> acc + count p.findings)
    (count outcome.Llhsc.Pipeline.partition_findings)
    outcome.Llhsc.Pipeline.products

let write_resilience_json path =
  let runs = 11 in
  let budget () = Sat.Solver.budget ~max_propagations:2000 () in
  let retry () = Smt.Escalation.ladder ~attempts:3 () in
  let plain_ms = median_ms ~runs (fun () -> Llhsc.Quad_rv64.run_pipeline ~budget:(budget ()) ()) in
  let retry_ms =
    median_ms ~runs (fun () ->
        Llhsc.Quad_rv64.run_pipeline ~budget:(budget ()) ~retry:(retry ()) ())
  in
  let plain = Llhsc.Quad_rv64.run_pipeline ~budget:(budget ()) () in
  let escalated = Llhsc.Quad_rv64.run_pipeline ~budget:(budget ()) ~retry:(retry ()) () in
  let total_queries, retried, recovered, attempts_total =
    match escalated.Llhsc.Pipeline.retry with
    | None -> (0, 0, 0, 0)
    | Some r ->
      ( r.Smt.Solver.total_queries,
        List.length r.Smt.Solver.retried,
        List.length
          (List.filter (fun (e : Smt.Solver.retry_entry) -> e.recovered) r.Smt.Solver.retried),
        List.fold_left
          (fun a (e : Smt.Solver.retry_entry) -> a + List.length e.attempts)
          0 r.Smt.Solver.retried )
  in
  (* Resume column: full-budget run journaled to a scratch file, then
     replayed.  Journal overhead = fsync'd record per product; resume cost =
     hash checks + delta re-application, no solver work. *)
  let journal_path = Filename.temp_file "llhsc-bench" ".jsonl" in
  let inputs_hash = Llhsc.Journal.inputs_hash ~parts:[ "bench-resilience" ] in
  let base_ms = median_ms ~runs (fun () -> Llhsc.Quad_rv64.run_pipeline ()) in
  let journal_ms =
    median_ms ~runs (fun () ->
        if Sys.file_exists journal_path then Sys.remove journal_path;
        let sink = Llhsc.Journal.open_ ~path:journal_path ~inputs_hash in
        let o = Llhsc.Quad_rv64.run_pipeline ~inputs_hash ~journal:sink () in
        Llhsc.Journal.close sink;
        o)
  in
  let entries = Llhsc.Journal.load ~path:journal_path ~inputs_hash in
  let resume_ms =
    median_ms ~runs (fun () -> Llhsc.Quad_rv64.run_pipeline ~inputs_hash ~resume:entries ())
  in
  Sys.remove journal_path;
  Llhsc.Durable.with_file ~path (fun oc ->
  Printf.fprintf oc
    {|{
  "workload": "quad_rv64 pipeline (3 VMs + platform), max_propagations=2000",
  "runs": %d,
  "plain_ms": %.3f,
  "retry_ms": %.3f,
  "inconclusive_without_retry": %d,
  "inconclusive_with_retry": %d,
  "total_queries": %d,
  "queries_retried": %d,
  "queries_recovered": %d,
  "escalation_success_rate": %.3f,
  "attempts_per_retried_query": %.2f,
  "full_budget_ms": %.3f,
  "journal_ms": %.3f,
  "journal_overhead_pct": %.1f,
  "resume_ms": %.3f,
  "resume_vs_full_pct": %.1f
}
|}
    runs plain_ms retry_ms (count_inconclusive plain) (count_inconclusive escalated)
    total_queries retried recovered
    (if retried = 0 then 1. else float_of_int recovered /. float_of_int retried)
    (if retried = 0 then 1. else float_of_int attempts_total /. float_of_int retried)
    base_ms journal_ms
    (100. *. ((journal_ms /. base_ms) -. 1.))
    resume_ms
    (100. *. (resume_ms /. base_ms)));
  Fmt.pr
    "wrote %s (plain %.2f ms, retry %.2f ms, %d/%d retried queries recovered; resume %.2f ms vs full %.2f ms)@."
    path plain_ms retry_ms recovered retried resume_ms base_ms

(* ------------------------------------------------------------------ *)
(* Parallel check-phase measurement (BENCH_parallel.json)               *)
(* ------------------------------------------------------------------ *)

(* The --jobs column: quad_rv64 with the check phase sharded across forked
   workers.  Wall-clock speedup needs real cores, so the detected online
   CPU count is recorded next to the timings: on a single-core host the
   workers serialise and the ratio degrades to fork + socket overhead, which
   is worth knowing but is not a scheduling regression. *)

let outcome_string o = Fmt.str "%a" Llhsc.Pipeline.pp_outcome o

let write_parallel_json path =
  let runs = 11 in
  let time ?certify jobs =
    median_ms ~runs (fun () -> Llhsc.Quad_rv64.run_pipeline ?certify ~jobs ())
  in
  let j1 = time 1 in
  let j2 = time 2 in
  let j4 = time 4 in
  let c1 = time ~certify:true 1 in
  let c4 = time ~certify:true 4 in
  (* The determinism contract, asserted on the spot: the rendered report
     must not depend on the job count, certifying or not. *)
  let identical =
    outcome_string (Llhsc.Quad_rv64.run_pipeline ~jobs:4 ())
    = outcome_string (Llhsc.Quad_rv64.run_pipeline ~jobs:1 ())
    && outcome_string (Llhsc.Quad_rv64.run_pipeline ~certify:true ~jobs:4 ())
       = outcome_string (Llhsc.Quad_rv64.run_pipeline ~certify:true ~jobs:1 ())
  in
  let cpus = Llhsc.Shard.online_cpus () in
  Llhsc.Durable.with_file ~path (fun oc ->
  Printf.fprintf oc
    {|{
  "workload": "quad_rv64 pipeline (3 VMs + platform), check phase sharded",
  "runs": %d,
  "online_cpus": %d,
  "jobs1_ms": %.3f,
  "jobs2_ms": %.3f,
  "jobs4_ms": %.3f,
  "speedup_jobs2": %.2f,
  "speedup_jobs4": %.2f,
  "certify_jobs1_ms": %.3f,
  "certify_jobs4_ms": %.3f,
  "certify_speedup_jobs4": %.2f,
  "reports_byte_identical": %b
}
|}
    runs cpus j1 j2 j4 (j1 /. j2) (j1 /. j4) c1 c4 (c1 /. c4) identical);
  Fmt.pr
    "wrote %s (%d cpus; j1 %.2f ms, j2 %.2f ms, j4 %.2f ms, speedup x%.2f; certify j1 %.2f ms, j4 %.2f ms, x%.2f; identical=%b)@."
    path cpus j1 j2 j4 (j1 /. j4) c1 c4 (c1 /. c4) identical

(* ------------------------------------------------------------------ *)
(* Supervision measurement (BENCH_supervision.json)                     *)
(* ------------------------------------------------------------------ *)

(* The self-healing column: what do leases/heartbeats/deadlines cost on a
   healthy run, and what does recovering from a SIGKILLed worker cost?
   The kill-recovery run must still merge byte-identically — asserted on
   the spot, like the parallel determinism contract. *)

let with_env var value f =
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var "") f

let write_supervision_json path =
  let runs = 11 in
  let time ?task_deadline ?mem_limit ?cpu_limit jobs =
    median_ms ~runs (fun () ->
        Llhsc.Quad_rv64.run_pipeline ?task_deadline ?mem_limit ?cpu_limit ~jobs ())
  in
  let j1 = time 1 in
  let j2 = time 2 in
  let j4 = time 4 in
  (* Supervised extras on a healthy run: lease clock + heartbeat parsing
     (deadline), plus rlimit installation in every worker (guards). *)
  let j4_deadline = time ~task_deadline:30. 4 in
  let j4_guarded = time ~task_deadline:30. ~mem_limit:2048 ~cpu_limit:300 4 in
  (* Kill-recovery: the worker dispatched task 0 SIGKILLs itself, crashes
     its replacement too, and the task is quarantined and retried
     in-process — the full supervision path on every run. *)
  let baseline = outcome_string (Llhsc.Quad_rv64.run_pipeline ~jobs:1 ()) in
  let kill_ms, kill_identical =
    with_env "LLHSC_FAULT" "kill-worker@0" (fun () ->
        let ms =
          median_ms ~runs (fun () -> Llhsc.Quad_rv64.run_pipeline ~jobs:2 ())
        in
        (ms, outcome_string (Llhsc.Quad_rv64.run_pipeline ~jobs:2 ()) = baseline))
  in
  let identical =
    kill_identical
    && outcome_string
         (Llhsc.Quad_rv64.run_pipeline ~jobs:4 ~task_deadline:30. ~mem_limit:2048
            ~cpu_limit:300 ())
       = baseline
  in
  let cpus = Llhsc.Shard.online_cpus () in
  Llhsc.Durable.with_file ~path (fun oc ->
  Printf.fprintf oc
    {|{
  "workload": "quad_rv64 pipeline (3 VMs + platform), supervised pool",
  "runs": %d,
  "online_cpus": %d,
  "jobs1_ms": %.3f,
  "jobs2_ms": %.3f,
  "jobs4_ms": %.3f,
  "jobs4_deadline_ms": %.3f,
  "deadline_overhead_pct": %.1f,
  "jobs4_guarded_ms": %.3f,
  "guard_overhead_pct": %.1f,
  "kill_recovery_jobs2_ms": %.3f,
  "kill_recovery_overhead_pct": %.1f,
  "reports_byte_identical": %b
}
|}
    runs cpus j1 j2 j4 j4_deadline
    (100. *. ((j4_deadline /. j4) -. 1.))
    j4_guarded
    (100. *. ((j4_guarded /. j4) -. 1.))
    kill_ms
    (100. *. ((kill_ms /. j2) -. 1.))
    identical);
  Fmt.pr
    "wrote %s (%d cpus; j4 %.2f ms, +deadline %.2f ms, +guards %.2f ms; kill-recovery %.2f ms vs j2 %.2f ms; identical=%b)@."
    path cpus j4 j4_deadline j4_guarded kill_ms j2 identical

(* ------------------------------------------------------------------ *)
(* Serve measurement (BENCH_serve.json)                                 *)
(* ------------------------------------------------------------------ *)

(* The daemon column: request latency through the full HTTP + forked job
   path (the request decoded in memory, checked by the CLI's own code in
   a fork of the daemon) on a healthy run, and the shed behaviour under a burst at 2x
   capacity.  The daemon is the real binary on an ephemeral port; the
   client is a minimal blocking HTTP/1.1 writer (one request per
   connection, matching the daemon's contract). *)

let serve_dts =
  "/dts-v1/;\n/ {\n\t#address-cells = <2>;\n\t#size-cells = <2>;\n\
   \tmemory@80000000 {\n\t\tdevice_type = \"memory\";\n\
   \t\treg = <0x0 0x80000000 0x0 0x40000000>;\n\t};\n};\n"

let serve_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let serve_send fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* Read to EOF (the daemon closes after one response); return the status. *)
let serve_read_status fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 8192 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  go ();
  try Scanf.sscanf (Buffer.contents buf) "HTTP/1.1 %d" (fun s -> s)
  with Scanf.Scan_failure _ | End_of_file -> -1

let serve_request ?(headers = "") port body =
  let fd = serve_connect port in
  serve_send fd
    (Printf.sprintf "POST /v1/check HTTP/1.1\r\nHost: b\r\n%sContent-Length: %d\r\n\r\n%s"
       headers (String.length body) body);
  let status = serve_read_status fd in
  Unix.close fd;
  status

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

let write_serve_json path =
  let llhsc =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/main.exe"
  in
  let workers = 2 and queue = 4 in
  let out_r, out_w = Unix.pipe () in
  let env = Array.append (Unix.environment ()) [| "LLHSC_SERVE_TEST_HOOKS=1" |] in
  let pid =
    Unix.create_process_env llhsc
      [| llhsc; "serve"; "--port"; "0"; "--workers"; string_of_int workers;
         "--queue"; string_of_int queue |]
      env Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let log = Unix.in_channel_of_descr out_r in
  let port =
    Scanf.sscanf (input_line log) "llhsc serve: listening on %[0-9.]:%d" (fun _ p -> p)
  in
  (* Latency: sequential requests through the whole HTTP + forked job +
     check path, p50/p95 over a healthy run. *)
  let requests = 60 in
  let latencies =
    Array.init requests (fun _ ->
        let t0 = Unix.gettimeofday () in
        let status = serve_request port serve_dts in
        let ms = 1000. *. (Unix.gettimeofday () -. t0) in
        if status <> 200 then failwith (Printf.sprintf "healthy request got %d" status);
        ms)
  in
  Array.sort compare latencies;
  let p50 = percentile latencies 0.50 and p95 = percentile latencies 0.95 in
  (* Overload: a burst at 2x capacity (capacity = workers running + queue
     waiting), all in flight before the first delayed job finishes.  The
     daemon must shed the excess immediately with 429 and answer every
     accepted request. *)
  let capacity = workers + queue in
  let burst = 2 * capacity in
  let fds =
    Array.init burst (fun _ ->
        let fd = serve_connect port in
        serve_send fd
          (Printf.sprintf
             "POST /v1/check HTTP/1.1\r\nHost: b\r\nX-Llhsc-Test-Delay-Ms: 300\r\n\
              Content-Length: %d\r\n\r\n%s"
             (String.length serve_dts) serve_dts);
        fd)
  in
  let statuses =
    Array.map
      (fun fd ->
        let s = serve_read_status fd in
        Unix.close fd;
        s)
      fds
  in
  let count s = Array.fold_left (fun acc x -> if x = s then acc + 1 else acc) 0 statuses in
  let ok = count 200 and shed = count 429 in
  let unanswered = burst - ok - shed in
  (* Drain: SIGTERM must exit 0. *)
  Unix.kill pid Sys.sigterm;
  let drain_clean = match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false in
  close_in_noerr log;
  Llhsc.Durable.with_file ~path (fun oc ->
  Printf.fprintf oc
    {|{
  "workload": "llhsc serve, POST /v1/check (a forked job child checking each decoded request body in memory)",
  "workers": %d,
  "queue": %d,
  "requests": %d,
  "latency_p50_ms": %.3f,
  "latency_p95_ms": %.3f,
  "burst": %d,
  "burst_capacity": %d,
  "burst_ok": %d,
  "burst_shed": %d,
  "shed_rate": %.3f,
  "unanswered": %d,
  "drain_exit_clean": %b
}
|}
    workers queue requests p50 p95 burst capacity ok shed
    (float_of_int shed /. float_of_int burst)
    unanswered drain_clean);
  Fmt.pr
    "wrote %s (p50 %.2f ms, p95 %.2f ms; burst %d -> %d ok, %d shed, %d unanswered; drain=%b)@."
    path p50 p95 burst ok shed unanswered drain_clean;
  if unanswered > 0 then failwith "serve bench: some burst requests went unanswered";
  if not drain_clean then failwith "serve bench: drain did not exit 0"

(* ------------------------------------------------------------------ *)
(* Fleet measurement (BENCH_fleet.json)                                 *)
(* ------------------------------------------------------------------ *)

(* The socket-transport column: the quad_rv64 pipeline dispatched to real
   worker processes over loopback TCP, against the in-process --jobs
   baselines, plus the cost of recovering from a worker that dies
   mid-task.  Everything runs the real binary end to end (fork/exec,
   handshake, spec shipping, frame I/O), so the fleet timings carry the
   whole transport overhead, not just the check phase. *)

let write_fleet_json path =
  let llhsc =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/main.exe"
  in
  (* Materialise the quad_rv64 fixture (same layout as
     `examples/quad_rv64.exe dump`). *)
  let module Q = Llhsc.Quad_rv64 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "llhsc-bench-fleet-%d" (Unix.getpid ()))
  in
  let rec rm_rf p =
    match Unix.lstat p with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
    | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  at_exit (fun () -> rm_rf dir);
  let write_file p contents =
    let oc = open_out (Filename.concat dir p) in
    output_string oc contents;
    close_out oc
  in
  write_file "quad-rv64.dts" Q.core_dts;
  write_file "quad-rv64.fm" Q.feature_model_src;
  write_file "quad-rv64.deltas" Q.deltas_src;
  Unix.mkdir (Filename.concat dir "schemas") 0o700;
  List.iteri
    (fun i src -> write_file (Printf.sprintf "schemas/schema-%d.yaml" i) src)
    Q.schemas_src;
  let p f = Filename.concat dir f in
  let pipeline_tail =
    [ "--core"; p "quad-rv64.dts"; "--deltas"; p "quad-rv64.deltas";
      "--model"; p "quad-rv64.fm"; "--schemas"; p "schemas";
      "--exclusive"; String.concat "," Q.exclusive ]
    @ List.concat_map
        (fun fs -> [ "--vm"; String.concat "," fs ])
        [ Q.vm1_features; Q.vm2_features; Q.vm3_features ]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let spawn ?(env = []) ~out args =
    Unix.create_process_env llhsc
      (Array.of_list (llhsc :: args))
      (Array.append (Unix.environment ()) (Array.of_list env))
      Unix.stdin out devnull
  in
  let wait_zero what pid =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _, Unix.WEXITED c -> failwith (Printf.sprintf "fleet bench: %s exited %d" what c)
    | _ -> failwith (Printf.sprintf "fleet bench: %s died on a signal" what)
  in
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let out_file = p "report.out" in
  let with_out f =
    let out = Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
    Fun.protect ~finally:(fun () -> Unix.close out) (fun () -> f out)
  in
  (* One in-process run: seconds + report bytes. *)
  let local_run jobs =
    let t0 = Unix.gettimeofday () in
    with_out (fun out ->
        wait_zero "pipeline"
          (spawn ~out (("pipeline" :: pipeline_tail) @ [ "--jobs"; string_of_int jobs ])));
    (Unix.gettimeofday () -. t0, read_file out_file)
  in
  (* One fleet run: dispatcher + [workers] worker processes on loopback,
     timed from dispatcher spawn to dispatcher exit (the user-visible
     wall clock, transport included).  [kill] seeds the self-kill hook
     in the first worker. *)
  let fleet_run ?(kill = false) workers =
    let port_file = p "port" in
    (try Sys.remove port_file with Sys_error _ -> ());
    let t0 = Unix.gettimeofday () in
    let dpid =
      with_out (fun out ->
          spawn ~out
            (("dispatch" :: "--listen" :: "127.0.0.1:0" :: "--port-file" :: port_file
              :: "--wait-workers" :: "30" :: pipeline_tail)))
    in
    ignore (Benchlib.Harness.wait_port_file ~timeout:10. port_file : int);
    let wpids =
      List.init workers (fun i ->
          let env = if kill && i = 0 then [ "LLHSC_FAULT=kill-worker@1" ] else [] in
          spawn ~env ~out:devnull
            [ "worker"; "--port-file"; port_file; "--max-reconnects"; "3" ])
    in
    wait_zero "dispatcher" dpid;
    let dt = Unix.gettimeofday () -. t0 in
    List.iter (fun pid -> ignore (Benchlib.Harness.reap ~within:5. pid)) wpids;
    (dt, read_file out_file)
  in
  let runs = 5 in
  let median_of f =
    let samples = List.init runs (fun _ -> f ()) in
    (1000. *. Benchlib.Stats.median (List.map fst samples), snd (List.hd samples))
  in
  let j1, base = median_of (fun () -> local_run 1) in
  let j4, j4_report = median_of (fun () -> local_run 4) in
  let f2, f2_report = median_of (fun () -> fleet_run 2) in
  let f3, f3_report = median_of (fun () -> fleet_run 3) in
  let fk, fk_report = median_of (fun () -> fleet_run ~kill:true 2) in
  Unix.close devnull;
  (* Setup-payload size: the spec this workload ships to each worker. *)
  let spec =
    { Fleet.Spec.core = { Fleet.Spec.file = "quad-rv64.dts"; text = Q.core_dts };
      deltas = { Fleet.Spec.file = "quad-rv64.deltas"; text = Q.deltas_src };
      model = Q.feature_model_src;
      schemas = Q.schemas_src;
      files = [];
      vms = [ Q.vm1_features; Q.vm2_features; Q.vm3_features ];
      exclusive = Q.exclusive;
      certify = false; retry = None; max_conflicts = None; solver_timeout = None;
      unsound = None; skip = [] }
  in
  let spec_bytes =
    String.length (Llhsc.Json.to_string (Fleet.Spec.to_wire spec))
  in
  let identical =
    j4_report = base && f2_report = base && f3_report = base && fk_report = base
  in
  let cpus = Llhsc.Shard.online_cpus () in
  Llhsc.Durable.with_file ~path (fun oc ->
  Printf.fprintf oc
    {|{
  "workload": "quad_rv64 pipeline (3 VMs + platform), dispatched over loopback TCP",
  "runs": %d,
  "online_cpus": %d,
  "jobs1_ms": %.3f,
  "jobs4_ms": %.3f,
  "fleet2_ms": %.3f,
  "fleet3_ms": %.3f,
  "fleet3_vs_jobs1_speedup": %.2f,
  "fleet3_vs_jobs4_overhead_pct": %.1f,
  "kill_recovery_fleet2_ms": %.3f,
  "kill_recovery_overhead_pct": %.1f,
  "spec_wire_bytes": %d,
  "reports_byte_identical": %b
}
|}
    runs cpus j1 j4 f2 f3 (j1 /. f3)
    (100. *. ((f3 /. j4) -. 1.))
    fk
    (100. *. ((fk /. f2) -. 1.))
    spec_bytes identical);
  Fmt.pr
    "wrote %s (%d cpus; j1 %.2f ms, j4 %.2f ms; fleet2 %.2f ms, fleet3 %.2f ms; kill-recovery %.2f ms; spec %d bytes; identical=%b)@."
    path cpus j1 j4 f2 f3 fk spec_bytes identical;
  if not identical then failwith "fleet bench: reports diverged from --jobs 1"

(* ------------------------------------------------------------------ *)
(* Durability measurement (BENCH_durability.json)                       *)
(* ------------------------------------------------------------------ *)

(* The storage column: what the fsync-per-record discipline costs against
   a buffered append of the same bytes, what the atomic
   write-temp/fsync/rename whole-file commit costs against a plain
   write, and how long [llhsc journal fsck]/[compact] take on a journal
   big enough to matter.  The big journal is built by replicating real
   fsync'd record lines (the shape of a long resumed run that appended
   the same products many times over), so compact's last-wins collapse
   is measured on genuine superseded records, not synthetic noise. *)

let write_durability_json path =
  let runs = 11 in
  let n_records = 256 in
  let inputs_hash = Llhsc.Journal.inputs_hash ~parts:[ "bench-durability" ] in
  let entry i =
    {
      Llhsc.Journal.kind = Llhsc.Journal.Product;
      name = Printf.sprintf "vm%03d" i;
      hash = Llhsc.Journal.product_hash ~inputs_hash ~name:(Printf.sprintf "vm%03d" i)
          ~features:[ "cpu"; "mem" ];
      features = [ "cpu"; "mem" ];
      order = [];
      findings = [];
      certified = false;
      cert_failures = 0;
    }
  in
  let scratch = Filename.temp_file "llhsc-bench-durability" ".jsonl" in
  let journal_ms =
    median_ms ~runs (fun () ->
        if Sys.file_exists scratch then Sys.remove scratch;
        let sink = Llhsc.Journal.open_ ~path:scratch ~inputs_hash in
        for i = 0 to n_records - 1 do
          Llhsc.Journal.record sink (entry i)
        done;
        Llhsc.Journal.close sink)
  in
  (* The same bytes through a buffered channel with no fsync: the
     baseline the durability premium is measured against. *)
  let lines =
    let ic = open_in scratch in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file -> List.rev acc
    in
    let ls = go [] in
    close_in ic;
    ls
  in
  let buffered_ms =
    median_ms ~runs (fun () ->
        let oc = open_out scratch in
        List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
        close_out oc)
  in
  (* Atomic whole-file commit vs plain write, report-sized payload. *)
  let blob = String.make (1 lsl 20) 'x' in
  let atomic_ms =
    median_ms ~runs (fun () -> Llhsc.Durable.write_file ~path:scratch blob)
  in
  let plain_ms =
    median_ms ~runs (fun () ->
        let oc = open_out_bin scratch in
        output_string oc blob;
        close_out oc)
  in
  (* fsck/compact at scale: replicate the real record lines (keeping the
     header first) until the journal holds ~50k lines. *)
  let header, records =
    match lines with h :: t -> (h, t) | [] -> failwith "durability bench: empty journal"
  in
  let big_lines = 50_000 in
  let big =
    let b = Buffer.create (big_lines * 128) in
    Buffer.add_string b header;
    Buffer.add_char b '\n';
    let rec fill n =
      if n < big_lines then begin
        List.iter
          (fun l ->
            Buffer.add_string b l;
            Buffer.add_char b '\n')
          records;
        fill (n + List.length records)
      end
    in
    fill 0;
    Buffer.contents b
  in
  Llhsc.Durable.write_file ~path:scratch big;
  let fsck_ms = median_ms ~runs (fun () -> Llhsc.Journal.fsck ~path:scratch) in
  let report =
    match Llhsc.Journal.fsck ~path:scratch with
    | Some r -> r
    | None -> failwith "durability bench: fsck could not read the big journal"
  in
  (* compact rewrites the file, so restore it outside the timed region. *)
  let compact_samples =
    List.init runs (fun _ ->
        Llhsc.Durable.write_file ~path:scratch big;
        let t0 = Unix.gettimeofday () in
        (match Llhsc.Journal.compact ~path:scratch with
        | Ok _ -> ()
        | Error e -> failwith ("durability bench: compact failed: " ^ e));
        (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let compact_ms = Benchlib.Stats.median compact_samples in
  let compacted =
    match Llhsc.Journal.fsck ~path:scratch with
    | Some r -> r.Llhsc.Journal.records
    | None -> -1
  in
  Sys.remove scratch;
  Llhsc.Durable.with_file ~path (fun oc ->
  Printf.fprintf oc
    {|{
  "workload": "journal record stream + atomic whole-file commit",
  "runs": %d,
  "journal_records": %d,
  "journal_fsync_ms": %.3f,
  "buffered_append_ms": %.3f,
  "fsync_premium_x": %.1f,
  "fsync_us_per_record": %.1f,
  "atomic_commit_1mib_ms": %.3f,
  "plain_write_1mib_ms": %.3f,
  "big_journal_lines": %d,
  "big_journal_records": %d,
  "big_journal_entries": %d,
  "big_journal_torn": %d,
  "big_journal_invalid": %d,
  "fsck_ms": %.3f,
  "compact_ms": %.3f,
  "compacted_records": %d
}
|}
    runs n_records journal_ms buffered_ms
    (journal_ms /. Float.max 0.001 buffered_ms)
    (1000. *. journal_ms /. float_of_int n_records)
    atomic_ms plain_ms
    (report.Llhsc.Journal.records + report.Llhsc.Journal.torn
   + report.Llhsc.Journal.invalid)
    report.Llhsc.Journal.records
    report.Llhsc.Journal.entries report.Llhsc.Journal.torn
    report.Llhsc.Journal.invalid fsck_ms compact_ms compacted);
  Fmt.pr
    "wrote %s (%d records: fsync'd %.2f ms vs buffered %.2f ms; fsck %.2f ms, compact %.2f ms over %d lines -> %d entries)@."
    path n_records journal_ms buffered_ms fsck_ms compact_ms
    report.Llhsc.Journal.records report.Llhsc.Journal.entries

(* A measurement mode that silently produces nothing poisons the
   committed BENCH_*.json trail, so every mode is checked for a
   non-empty output file and an unrecognised mode is an error instead of
   a silent fall-through to the default report. *)
let checked_output mode path write =
  write path;
  match Unix.stat path with
  | exception Unix.Unix_error _ ->
    Printf.eprintf "bench %s: expected output %s was never written\n" mode path;
    exit 1
  | { Unix.st_size = 0; _ } ->
    Printf.eprintf "bench %s: output %s is empty\n" mode path;
    exit 1
  | _ -> ()

let () =
  let arg = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  match arg with
  | "certify" -> checked_output arg "BENCH_certify.json" write_certify_json
  | "resilience" -> checked_output arg "BENCH_resilience.json" write_resilience_json
  | "parallel" -> checked_output arg "BENCH_parallel.json" write_parallel_json
  | "supervision" -> checked_output arg "BENCH_supervision.json" write_supervision_json
  | "serve" -> checked_output arg "BENCH_serve.json" write_serve_json
  | "fleet" -> checked_output arg "BENCH_fleet.json" write_fleet_json
  | "durability" -> checked_output arg "BENCH_durability.json" write_durability_json
  | "report" -> report ()
  | "" ->
    report ();
    run_benchmarks ()
  | other ->
    Printf.eprintf
      "bench: unknown mode %S (want certify|resilience|parallel|supervision|serve|fleet|durability|report)\n"
      other;
    exit 1
