(* llhsc experiment report and solver microbenchmarks.

   The paper (DSN'23) is a tool paper whose evaluation is the running
   example; its reproducible artifacts are figures/listings plus claims in
   the text.  This program has two parts:

   1. An *experiment report* (printed first): each experiment E1..E14 of
      EXPERIMENTS.md is executed and its measured outcome is printed next
      to the paper's claim.

   2. *Microbenchmarks* behind EXPERIMENTS.md's timing rows: the scaling
      sweeps E10/E11 and the ablations (E12 incremental-vs-scratch,
      CDCL-vs-DPLL) that characterise the solver substrate standing in
      for Z3.  Each sample times a batch of calls lasting at least 1 ms;
      each line prints the median and quartiles per call.

   The benchmark that judges a change is perfbench/ (BENCHMARK.json).

     dune exec bench/main.exe            # report + microbenchmarks
     dune exec bench/main.exe -- report  # experiment report only *)

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
  let alloc_sat, t =
    Benchlib.Harness.timed (fun () ->
        Featuremodel.Multi.is_allocatable
          (Featuremodel.Multi.encode ~exclusive:[ "g0" ] (synthetic_model ~groups:4 ~width:8)
             ~vms:4))
  in
  Fmt.pr "E10 (SIV-A)    alloc 4 VMs x 8 cpus:     sat=%b in %.1f ms@." alloc_sat (t *. 1000.);
  let overlaps, t =
    Benchlib.Harness.timed (fun () -> Llhsc.Semantic.check_memory (synthetic_tree 64))
  in
  Fmt.pr "E11 (frm 7)    overlap check, 64 regions: collisions=%d in %.1f ms@."
    (List.length overlaps) (t *. 1000.);
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
(* Part 2: microbenchmarks                                              *)
(* ------------------------------------------------------------------ *)

(* Seconds per call of [f], one sample per batch of [n] calls, where [n]
   doubles (the calls so far are the warm-up) until a batch lasts at
   least 1 ms. *)
let per_call ~samples f =
  let batch n =
    snd
      (Benchlib.Harness.timed (fun () ->
           for _ = 1 to n do
             ignore (Sys.opaque_identity (f ()))
           done))
  in
  let rec size n = if batch n >= 1e-3 then n else size (2 * n) in
  let n = size 1 in
  List.init samples (fun _ -> batch n /. float_of_int n)

let samples = 21

let bench name f =
  let q1, q2, q3 = Benchlib.Stats.quartiles (per_call ~samples f) in
  let unit, scale = if q2 >= 1e-3 then ("ms", 1e3) else ("us", 1e6) in
  Fmt.pr "  %-32s %10.3f %s/call  (quartiles %.3f-%.3f)@." name (q2 *. scale) unit
    (q1 *. scale) (q3 *. scale)

(* E10: allocation solving time vs problem size (n cpus x m VMs). *)
let e10 () =
  List.iter
    (fun (width, vms) ->
      let model = synthetic_model ~groups:2 ~width in
      bench (Printf.sprintf "E10-alloc-scaling-n%02d-m%d" width vms) (fun () ->
          Featuremodel.Multi.is_allocatable
            (Featuremodel.Multi.encode ~exclusive:[ "g0" ] model ~vms)))
    [ (4, 2); (8, 2); (8, 4); (16, 4); (32, 4); (32, 8) ]

(* E11: overlap checking time vs number of regions, in both the
   paper-faithful all-pairs formulation and with the sweep prefilter. *)
let e11 () =
  List.iter
    (fun n ->
      let tree = synthetic_tree n in
      bench (Printf.sprintf "E11-overlap-pairwise-%03d" n) (fun () ->
          Llhsc.Semantic.check_memory ~strategy:`Pairwise tree);
      bench (Printf.sprintf "E11-overlap-sweep-%03d" n) (fun () ->
          Llhsc.Semantic.check_memory ~strategy:`Sweep tree))
    [ 2; 8; 32 ]

(* E12: incremental (one solver, push/pop) vs from-scratch solving — the
   paper's §VI argument for adding constraints to the same Z3 instance.
   66 pair checks over 12 disjoint regions. *)
let e12 () =
  let regions =
    List.init 12 (fun i ->
        { Llhsc.Semantic.owner = Printf.sprintf "/dev%d" i;
          region = { Devicetree.Addresses.base = Int64.of_int (0x1000 * i); size = 0x800L };
          loc = Devicetree.Loc.dummy
        })
  in
  let rec pairs = function [] -> [] | r :: rest -> List.map (fun r' -> (r, r')) rest @ pairs rest in
  let all_pairs = pairs regions in
  let overlap solver (a, b) =
    ignore (Llhsc.Semantic.pair_overlap solver a b : [ `Overlap of int64 | `Disjoint | `Inconclusive ])
  in
  bench "E12-incremental-one-solver" (fun () ->
      let solver = Smt.Solver.create () in
      List.iter (overlap solver) all_pairs);
  bench "E12-scratch-solver-per-query" (fun () ->
      List.iter (fun pair -> overlap (Smt.Solver.create ()) pair) all_pairs)

(* Ablation: CDCL vs plain DPLL on the same Tseitin encoding of a
   feature-model formula.  Atoms are pre-numbered 0..n-1 so both solvers
   see identical CNF. *)
let ablation () =
  let model = synthetic_model ~groups:3 ~width:6 in
  let names = Featuremodel.Model.feature_names model in
  let nv = List.length names in
  let formula () =
    let vars = List.mapi (fun i n -> (n, i)) names in
    Featuremodel.Analysis.formula model (fun n -> List.assoc n vars)
  in
  bench "ablation-cdcl-fm-sat" (fun () ->
      let solver = Sat.Solver.create () in
      for _ = 1 to nv do
        ignore (Sat.Solver.new_var solver : int)
      done;
      ignore (Sat.Formula.assert_in solver (formula ()) : bool);
      Sat.Solver.solve solver);
  bench "ablation-dpll-fm-sat" (fun () ->
      Sat.Dpll.solve (Sat.Dpll.of_formula ~num_vars:nv (formula ())))

let microbenchmarks () =
  Fmt.pr "microbenchmarks (median time per call, quartiles over %d batches):@." samples;
  e10 ();
  e11 ();
  e12 ();
  ablation ()

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
    report ();
    microbenchmarks ()
  | [ _; "report" ] -> report ()
  | _ ->
    Printf.eprintf "usage: %s [report]\n" Sys.argv.(0);
    exit 2
