(* Tests for the llhsc core: the semantic checker (memory overlap formula
   (7), E5/E6; interrupts; truncation lint), the resource allocation checker
   (§IV-A), the syntactic checker wrapper, and the end-to-end pipeline of
   Fig. 2 (E3). *)

module T = Devicetree.Tree
module RE = Llhsc.Running_example
module Sem = Llhsc.Semantic
module Rep = Llhsc.Report

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let errors findings = Rep.errors findings

(* --- semantic: memory overlap (E5) -------------------------------------------------- *)

let test_clean_core_has_no_overlap () =
  let findings = Sem.check_memory (RE.core_tree ()) in
  check_int "no collisions" 0 (List.length findings)

let test_uart_memory_clash () =
  (* E5 (§I-A): the serial port's base address clashes with the second
     memory bank.  Syntactically valid; dtc and dt-schema accept it. *)
  let t = RE.core_tree () in
  let clashing =
    [ Devicetree.Ast.Cells
        { bits = 32;
          cells =
            List.map (fun v -> Devicetree.Ast.Cell_int v) [ 0x0L; 0x60000000L; 0x0L; 0x1000L ]
        }
    ]
  in
  let t = T.set_prop t ~path:"/uart@20000000" "reg" clashing in
  (* dt-schema (direct validation) still passes: the reg is structurally fine. *)
  let direct = Llhsc.Syntactic.check_direct ~schemas:(RE.schemas_for t) t in
  check_int "dt-schema baseline is blind to the clash" 0 (List.length (errors direct));
  (* The semantic checker finds it, with the clash address as witness. *)
  let findings = Sem.check_memory t in
  check_int "one collision" 1 (List.length findings);
  let f = List.hd findings in
  check_bool "names both nodes" true
    (Test_util.contains f.Rep.message "/memory@40000000"
    && Test_util.contains f.Rep.message "/uart@20000000");
  check_bool "witness is 0x60000000" true (Test_util.contains f.Rep.message "0x60000000")

let test_adjacent_regions_do_not_collide () =
  (* [0x40000000, 0x60000000) and [0x60000000, 0x80000000) touch but do not
     overlap — the strict bounds of formula (7). *)
  let t = RE.core_tree () in
  let findings = Sem.check_memory t in
  check_int "banks are adjacent, not colliding" 0 (List.length findings)

let test_cpu_ids_not_treated_as_addresses () =
  (* /cpus children have reg = <0>, <1>: CPU ids, not addresses.  They must
     not be reported as colliding with anything (e.g. a device at 0x0). *)
  let t = RE.core_tree () in
  let t = T.set_prop t ~path:"/cpus/cpu@0" "reg"
      [ Devicetree.Ast.Cells { bits = 32; cells = [ Devicetree.Ast.Cell_int 0L ] } ] in
  let findings = Sem.check_memory t in
  check_int "no findings" 0 (List.length findings)

(* --- semantic: truncation (E6) -------------------------------------------------------- *)

let generate_vm1 ~with_d4 =
  let deltas = RE.deltas () in
  let deltas =
    if with_d4 then deltas
    else List.filter (fun d -> d.Delta.Lang.name <> "d4") deltas
  in
  Delta.Apply.generate ~core:(RE.core_tree ()) ~deltas ~selected:RE.vm1_features

let test_omitting_d4_collides_at_zero () =
  (* E6 (§IV-C): without d4, the 64-bit reg is reinterpreted under the
     32-bit cells installed by d3 — four banks appear instead of two, and
     the checker reports a collision at address 0x0. *)
  let t = generate_vm1 ~with_d4:false in
  let memory = T.find_exn t "/memory@40000000" in
  let regions =
    Devicetree.Addresses.decode_reg ~address_cells:1 ~size_cells:1
      (Option.get (T.get_prop memory "reg"))
  in
  check_int "four banks found instead of two" 4 (List.length regions);
  let findings = Sem.check_memory t in
  check_bool "collisions reported" true (findings <> []);
  check_bool "collision at address 0x0" true
    (List.exists (fun f -> Test_util.contains f.Rep.message "at address 0x0") findings);
  (* dt-schema accepts the truncated reg: 8 cells is a multiple of 2. *)
  let direct = Llhsc.Syntactic.check_direct ~schemas:(RE.schemas_for t) t in
  check_bool "dt-schema baseline accepts the truncation" true
    (not
       (List.exists
          (fun f -> Test_util.contains f.Rep.message "multiple")
          (errors direct)))

let test_with_d4_is_clean () =
  let t = generate_vm1 ~with_d4:true in
  check_int "no collisions" 0 (List.length (Sem.check_memory t))

let test_truncation_lint () =
  let t = generate_vm1 ~with_d4:false in
  let warnings = Sem.check_truncation t in
  check_bool "zero-sized banks flagged" true
    (List.exists
       (fun f -> f.Rep.severity = Rep.Warning && f.Rep.node_path = "/memory@40000000")
       warnings)

(* --- semantic: interrupts --------------------------------------------------------------- *)

let test_interrupt_conflict () =
  let src =
    {|
/dts-v1/;
/ {
    #address-cells = <1>; #size-cells = <1>;
    a@1000 { reg = <0x1000 0x10>; interrupts = <7>; };
    b@2000 { reg = <0x2000 0x10>; interrupts = <7>; };
    c@3000 { reg = <0x3000 0x10>; interrupts = <9>; };
};
|}
  in
  let t = T.of_source ~file:"irq.dts" src in
  let findings = Sem.check_interrupts t in
  check_int "one conflict" 1 (List.length findings);
  let f = List.hd findings in
  check_bool "line 7 reported" true (Test_util.contains f.Rep.message "7");
  check_bool "both nodes mentioned" true
    (Test_util.contains f.Rep.message "/a@1000" && Test_util.contains f.Rep.message "/b@2000")

(* A multi-cell specifier is quoted on one line: message text holds no
   break hint, so a long finding is never wrapped into two report lines. *)
let test_interrupt_clash_one_line () =
  let src =
    {|
/dts-v1/;
/ {
    #address-cells = <1>; #size-cells = <1>;
    gic: interrupt-controller@8000000 {
        reg = <0x8000000 0x1000>;
        interrupt-controller;
        #interrupt-cells = <3>;
    };
    serial@9000000 { reg = <0x9000000 0x1000>; interrupt-parent = <&gic>; interrupts = <0 33 4>; };
    serial@9001000 { reg = <0x9001000 0x1000>; interrupt-parent = <&gic>; interrupts = <0 33 4>; };
};
|}
  in
  let t = T.resolve_phandles (T.of_source ~file:"gic3.dts" src) in
  let findings = Sem.check ~solver:(Smt.Solver.create ()) t in
  match
    List.filter (fun f -> Test_util.contains f.Rep.message "claimed by multiple") findings
  with
  | [ f ] ->
    check_bool "cells quoted with spaces" true
      (Test_util.contains f.Rep.message "interrupt 0 33 4 of controller");
    check_bool "one line" false (String.contains (Fmt.str "%a" Rep.pp f) '\n')
  | fs -> Alcotest.failf "want one clash, got %d findings" (List.length fs)

let test_interrupts_distinct_parents_ok () =
  let src =
    {|
/dts-v1/;
/ {
    #address-cells = <1>; #size-cells = <1>;
    gic0: intc@1000 { reg = <0x1000 0x10>; };
    gic1: intc@2000 { reg = <0x2000 0x10>; };
    a@3000 { reg = <0x3000 0x10>; interrupt-parent = <&gic0>; interrupts = <7>; };
    b@4000 { reg = <0x4000 0x10>; interrupt-parent = <&gic1>; interrupts = <7>; };
};
|}
  in
  let t = T.resolve_phandles (T.of_source ~file:"irq2.dts" src) in
  check_int "no conflict across parents" 0 (List.length (Sem.check_interrupts t))

(* --- alloc ------------------------------------------------------------------------------- *)

let test_alloc_auto_assignment () =
  (* CPUs are greyed out in Fig. 1: the checker assigns them automatically. *)
  let fm = RE.feature_model () in
  match
    Llhsc.Alloc.allocate ~exclusive:RE.exclusive fm ~vms:2
      ~requests:
        [ Llhsc.Alloc.request 1 [ "veth0"; "uart@20000000" ];
          Llhsc.Alloc.request 2 [ "veth1"; "uart@30000000" ]
        ]
  with
  | Llhsc.Alloc.Rejected fs ->
    Alcotest.failf "unexpected rejection: %a" Fmt.(list Rep.pp) fs
  | Llhsc.Alloc.Allocated { vms; platform } ->
    let vm1 = List.assoc 1 vms and vm2 = List.assoc 2 vms in
    check_bool "vm1 got cpu@0 (via veth0 => cpu@0)" true (List.mem "cpu@0" vm1);
    check_bool "vm2 got cpu@1" true (List.mem "cpu@1" vm2);
    check_bool "platform union has both" true
      (List.mem "cpu@0" platform && List.mem "cpu@1" platform)

let test_alloc_rejects_double_cpu () =
  let fm = RE.feature_model () in
  match
    Llhsc.Alloc.allocate ~exclusive:RE.exclusive fm ~vms:2
      ~requests:[ Llhsc.Alloc.request 1 [ "cpu@0" ]; Llhsc.Alloc.request 2 [ "cpu@0" ] ]
  with
  | Llhsc.Alloc.Rejected fs ->
    check_bool "platform-level rejection" true
      (List.exists (fun f -> f.Rep.node_path = "platform") fs)
  | Llhsc.Alloc.Allocated _ -> Alcotest.fail "expected rejection"

let test_alloc_rejects_invalid_selection () =
  let fm = RE.feature_model () in
  match
    Llhsc.Alloc.allocate ~exclusive:RE.exclusive fm ~vms:1
      ~requests:[ Llhsc.Alloc.request 1 [ "veth0"; "cpu@1" ] (* violates veth0 => cpu@0 *) ]
  with
  | Llhsc.Alloc.Rejected fs ->
    check_bool "vm1 blamed" true (List.exists (fun f -> f.Rep.node_path = "vm1") fs)
  | Llhsc.Alloc.Allocated _ -> Alcotest.fail "expected rejection"

let test_alloc_bad_vm_index () =
  let fm = RE.feature_model () in
  match
    Llhsc.Alloc.allocate fm ~vms:1 ~requests:[ Llhsc.Alloc.request 5 [ "memory" ] ]
  with
  | Llhsc.Alloc.Rejected _ -> ()
  | Llhsc.Alloc.Allocated _ -> Alcotest.fail "expected rejection"

(* --- pipeline (E3) ------------------------------------------------------------------------ *)

let run_pipeline () =
  Llhsc.Pipeline.run ~exclusive:RE.exclusive ~model:(RE.feature_model ())
    ~core:(RE.core_tree ()) ~deltas:(RE.deltas ()) ~schemas_for:RE.schemas_for
    ~vm_requests:[ RE.vm1_features; RE.vm2_features ] ()

let test_pipeline_end_to_end () =
  let outcome = run_pipeline () in
  check_bool "all checks green" true (Llhsc.Pipeline.ok outcome);
  check_int "three products (2 VMs + platform)" 3 (List.length outcome.Llhsc.Pipeline.products);
  let names = List.map (fun p -> p.Llhsc.Pipeline.name) outcome.Llhsc.Pipeline.products in
  Alcotest.(check (list string)) "product names" [ "vm1"; "vm2"; "platform" ] names;
  (* Delta orders recorded per product (E4). *)
  let vm1_order = List.assoc "vm1" outcome.Llhsc.Pipeline.delta_orders in
  check_bool "vm1 order starts with d3" true (List.hd vm1_order = "d3");
  (* The platform tree carries the union of devices. *)
  let platform =
    List.find (fun p -> p.Llhsc.Pipeline.name = "platform") outcome.Llhsc.Pipeline.products
  in
  check_bool "platform has both veths" true
    (T.find platform.Llhsc.Pipeline.tree "/vEthernet/veth0@80000000" <> None
    && T.find platform.Llhsc.Pipeline.tree "/vEthernet/veth1@90000000" <> None)

let test_pipeline_catches_broken_delta_set () =
  (* Drop d4 from the product line: every product with memory collides. *)
  let deltas = List.filter (fun d -> d.Delta.Lang.name <> "d4") (RE.deltas ()) in
  let outcome =
    Llhsc.Pipeline.run ~exclusive:RE.exclusive ~model:(RE.feature_model ())
      ~core:(RE.core_tree ()) ~deltas ~schemas_for:RE.schemas_for
      ~vm_requests:[ RE.vm1_features; RE.vm2_features ] ()
  in
  check_bool "pipeline not ok" false (Llhsc.Pipeline.ok outcome);
  let vm1 = List.find (fun p -> p.Llhsc.Pipeline.name = "vm1") outcome.Llhsc.Pipeline.products in
  check_bool "vm1 has semantic errors" true
    (List.exists (fun f -> f.Rep.checker = "semantic") (errors vm1.Llhsc.Pipeline.findings))

let test_pipeline_rejects_bad_allocation () =
  let outcome =
    Llhsc.Pipeline.run ~exclusive:RE.exclusive ~model:(RE.feature_model ())
      ~core:(RE.core_tree ()) ~deltas:(RE.deltas ()) ~schemas_for:RE.schemas_for
      ~vm_requests:[ [ "cpu@0"; "veth0" ]; [ "cpu@0" ] ] ()
  in
  check_bool "rejected" false (Llhsc.Pipeline.ok outcome);
  check_bool "no products built" true (outcome.Llhsc.Pipeline.products = [])

let test_pipeline_syntactic_failure_reported () =
  (* Corrupt the core so the memory schema const fails in every product. *)
  let core =
    T.set_prop (RE.core_tree ()) ~path:"/memory@40000000" "device_type"
      [ Devicetree.Ast.Str "ram" ]
  in
  let outcome =
    Llhsc.Pipeline.run ~exclusive:RE.exclusive ~model:(RE.feature_model ())
      ~core ~deltas:(RE.deltas ()) ~schemas_for:RE.schemas_for
      ~vm_requests:[ RE.vm1_features ] ()
  in
  check_bool "not ok" false (Llhsc.Pipeline.ok outcome);
  let vm1 = List.find (fun p -> p.Llhsc.Pipeline.name = "vm1") outcome.Llhsc.Pipeline.products in
  check_bool "syntactic finding with core" true
    (List.exists
       (fun f ->
         f.Rep.checker = "syntactic"
         && List.exists (fun r -> Test_util.contains r "const:device_type") f.Rep.core)
       vm1.Llhsc.Pipeline.findings)


(* --- pipeline resilience ------------------------------------------------------------ *)

let test_pipeline_isolates_corrupt_product () =
  (* The schema supplier blows up for vm1's tree only (it is the product
     with veth0 but not veth1); the other products must still be checked. *)
  let schemas_for tree =
    let has p = T.find tree p <> None in
    if has "/vEthernet/veth0@80000000" && not (has "/vEthernet/veth1@90000000") then
      raise (Schema.Binding.Error "simulated corrupt schema")
    else RE.schemas_for tree
  in
  let outcome =
    Llhsc.Pipeline.run ~exclusive:RE.exclusive ~model:(RE.feature_model ())
      ~core:(RE.core_tree ()) ~deltas:(RE.deltas ()) ~schemas_for
      ~vm_requests:[ RE.vm1_features; RE.vm2_features ] ()
  in
  check_int "still three products" 3 (List.length outcome.Llhsc.Pipeline.products);
  check_int "one isolated error" 1 (List.length outcome.Llhsc.Pipeline.errors);
  let d = List.hd outcome.Llhsc.Pipeline.errors in
  check_bool "error names product vm1" true (Test_util.contains d.Diag.message "product vm1");
  Alcotest.(check string) "schema error code" "SCHEMA-BINDING" d.Diag.code;
  check_bool "outcome not ok" false (Llhsc.Pipeline.ok outcome);
  (* vm2 and the platform were still fully checked and are clean. *)
  let vm2 = List.find (fun p -> p.Llhsc.Pipeline.name = "vm2") outcome.Llhsc.Pipeline.products in
  let platform =
    List.find (fun p -> p.Llhsc.Pipeline.name = "platform") outcome.Llhsc.Pipeline.products
  in
  check_bool "vm2 checked clean" true (vm2.Llhsc.Pipeline.findings = []);
  check_bool "platform checked clean" true (Rep.is_clean platform.Llhsc.Pipeline.findings)

let test_pipeline_budget_inconclusive () =
  (* A zero budget makes every solver query give up; the pipeline must
     terminate and degrade to "inconclusive" warnings, not hang or throw. *)
  let budget =
    Sat.Solver.budget ~max_conflicts:0 ~max_decisions:0 ~max_propagations:0 ()
  in
  let outcome =
    Llhsc.Pipeline.run ~exclusive:RE.exclusive ~budget ~model:(RE.feature_model ())
      ~core:(RE.core_tree ()) ~deltas:(RE.deltas ()) ~schemas_for:RE.schemas_for
      ~vm_requests:[ RE.vm1_features; RE.vm2_features ] ()
  in
  check_bool "no isolated errors" true (outcome.Llhsc.Pipeline.errors = []);
  check_int "three products" 3 (List.length outcome.Llhsc.Pipeline.products);
  let all_findings =
    outcome.Llhsc.Pipeline.partition_findings
    @ List.concat_map (fun p -> p.Llhsc.Pipeline.findings) outcome.Llhsc.Pipeline.products
  in
  check_bool "inconclusive warnings present" true
    (List.exists
       (fun f ->
         f.Rep.severity = Rep.Warning && Test_util.contains f.Rep.message "inconclusive")
       all_findings);
  (* Inconclusive is a warning, not a proof: no false "collision" errors. *)
  check_bool "no error findings under budget" true (errors all_findings = [])

(* --- product-line soundness: every product of the feature model generates
   and checks clean (the "correct by construction" claim). ------------------- *)

let test_all_products_check_clean () =
  let model = RE.feature_model () in
  let env = Featuremodel.Analysis.encode model in
  let products = Featuremodel.Analysis.enumerate_products env in
  check_int "12 products" 12 (List.length products);
  let solver = Smt.Solver.create () in
  List.iteri
    (fun i features ->
      let tree =
        Delta.Apply.generate ~core:(RE.core_tree ()) ~deltas:(RE.deltas ()) ~selected:features
      in
      let name = Printf.sprintf "p%d" i in
      let syntactic =
        Llhsc.Syntactic.check ~solver ~schemas:(RE.schemas_for tree) ~product:name tree
      in
      let semantic = Llhsc.Semantic.check ~solver tree in
      let errs = errors (syntactic @ semantic) in
      if errs <> [] then
        Alcotest.failf "product {%s} has findings: %a" (String.concat ", " features)
          Fmt.(list Rep.pp) errs)
    products


(* --- checking decoded DTBs (binary round trip into the checker) ------------- *)

let test_check_decoded_dtb () =
  (* Encode the clean core to a DTB, decode, and run the semantic checker on
     the untyped result: raw byte values must decode as 32-bit cells. *)
  let blob = Devicetree.Fdt.encode (RE.core_tree ()) in
  let decoded, _ = Devicetree.Fdt.decode blob in
  check_int "clean through DTB" 0 (List.length (errors (Sem.check_memory decoded)));
  (* And a clashing tree keeps its collision through the binary form. *)
  let t = RE.core_tree () in
  let t =
    T.set_prop t ~path:"/uart@20000000" "reg"
      [ Devicetree.Ast.Cells
          { bits = 32;
            cells = List.map (fun v -> Devicetree.Ast.Cell_int v) [ 0x0L; 0x60000000L; 0x0L; 0x1000L ]
          }
      ]
  in
  let decoded_clash, _ = Devicetree.Fdt.decode (Devicetree.Fdt.encode t) in
  check_int "clash survives DTB round trip" 1
    (List.length (errors (Sem.check_memory decoded_clash)))


(* --- cross-VM partitioning ---------------------------------------------------- *)

let run_with ~deltas ~vm_requests =
  Llhsc.Pipeline.run ~exclusive:RE.exclusive ~model:(RE.feature_model ())
    ~core:(RE.core_tree ()) ~deltas ~schemas_for:RE.schemas_for ~vm_requests ()

let test_partition_warnings_on_shared_ram () =
  (* The paper-faithful delta set gives both VMs both banks and both uarts:
     4 warnings (2 RAM overlaps + 2 shared devices), no errors. *)
  let outcome = run_with ~deltas:(RE.deltas ()) ~vm_requests:[ RE.vm1_features; RE.vm2_features ] in
  check_bool "still ok (warnings only)" true (Llhsc.Pipeline.ok outcome);
  let fs = outcome.Llhsc.Pipeline.partition_findings in
  check_int "four warnings" 4 (List.length fs);
  check_bool "all warnings" true (List.for_all (fun f -> f.Rep.severity = Rep.Warning) fs);
  check_bool "RAM not partitioned reported" true
    (List.exists (fun f -> Test_util.contains f.Rep.message "not partitioned") fs)

let test_partitioned_variant_is_clean () =
  (* d7/d8 + per-VM uarts: zero cross-VM findings. *)
  let outcome =
    run_with ~deltas:(RE.partitioned_deltas ())
      ~vm_requests:[ RE.vm1_partitioned_features; RE.vm2_partitioned_features ]
  in
  check_bool "ok" true (Llhsc.Pipeline.ok outcome);
  check_int "no cross-VM findings" 0 (List.length outcome.Llhsc.Pipeline.partition_findings);
  (* Each VM really has one bank. *)
  let vm1 = List.find (fun p -> p.Llhsc.Pipeline.name = "vm1") outcome.Llhsc.Pipeline.products in
  let vm2 = List.find (fun p -> p.Llhsc.Pipeline.name = "vm2") outcome.Llhsc.Pipeline.products in
  let bank p =
    Devicetree.Addresses.decode_reg ~address_cells:1 ~size_cells:1
      (Option.get (T.get_prop (T.find_exn p.Llhsc.Pipeline.tree "/memory@40000000") "reg"))
  in
  (match (bank vm1, bank vm2) with
   | [ b1 ], [ b2 ] ->
     Alcotest.(check int64) "vm1 bank" 0x40000000L b1.Devicetree.Addresses.base;
     Alcotest.(check int64) "vm2 bank" 0x60000000L b2.Devicetree.Addresses.base
   | _ -> Alcotest.fail "expected one bank per VM");
  (* The platform still carries both banks. *)
  let platform =
    List.find (fun p -> p.Llhsc.Pipeline.name = "platform") outcome.Llhsc.Pipeline.products
  in
  check_int "platform keeps two banks" 2 (List.length (bank platform))

let test_partition_cpu_sharing_is_error () =
  (* Hand two trees with the same cpu to the checker directly. *)
  let t = RE.core_tree () in
  let findings = Llhsc.Partition.check ~platform:t [ ("vm1", t); ("vm2", t) ] in
  check_bool "cpu error present" true
    (List.exists
       (fun f -> f.Rep.severity = Rep.Error && Test_util.contains f.Rep.message "CPU")
       findings)

let test_partition_containment () =
  (* A VM with a device at an address the platform does not have. *)
  let platform = RE.core_tree () in
  let vm =
    T.set_prop (RE.core_tree ()) ~path:"/uart@20000000" "reg"
      [ Devicetree.Ast.Cells
          { bits = 32;
            cells = List.map (fun v -> Devicetree.Ast.Cell_int v) [ 0x0L; 0x90000000L; 0x0L; 0x1000L ]
          }
      ]
  in
  let vm = T.remove_node vm ~path:"/cpus/cpu@1" in
  let findings = Llhsc.Partition.check ~platform [ ("vm1", vm) ] in
  check_bool "containment error" true
    (List.exists
       (fun f -> f.Rep.severity = Rep.Error && Test_util.contains f.Rep.message "not backed")
       findings);
  check_bool "witness address reported" true
    (List.exists (fun f -> Test_util.contains f.Rep.message "0x90000000") findings)


(* --- property: sweep prefilter agrees with the pairwise formulation --------- *)

let prop_sweep_equals_pairwise =
  QCheck.Test.make ~count:100 ~name:"sweep strategy = pairwise strategy"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 10)
           (pair (int_bound 0xFFFF) (int_range 1 0x200))))
    (fun raw ->
      (* Build a synthetic tree from the random (base, size) pairs. *)
      let buf = Buffer.create 256 in
      Buffer.add_string buf "/dts-v1/;\n/ { #address-cells = <1>; #size-cells = <1>;\n";
      List.iteri
        (fun i (base, size) ->
          Buffer.add_string buf
            (Printf.sprintf "dev%d@%x { reg = <0x%x 0x%x>; };\n" i base base size))
        raw;
      Buffer.add_string buf "};\n";
      let tree = T.of_source ~file:"rand.dts" (Buffer.contents buf) in
      let summarize findings =
        List.sort_uniq compare (List.map (fun f -> f.Rep.message) findings)
      in
      summarize (Sem.check_memory ~strategy:`Sweep tree)
      = summarize (Sem.check_memory ~strategy:`Pairwise tree))


(* --- unit-address lints ------------------------------------------------------ *)

let test_unit_address_mismatch () =
  let t =
    T.of_source ~file:"ua.dts"
      "/dts-v1/;\n/ { #address-cells = <1>; #size-cells = <1>; dev@1000 { reg = <0x2000 0x10>; }; };"
  in
  let warnings = Sem.check_unit_addresses t in
  check_int "one warning" 1 (List.length warnings);
  check_bool "mentions mismatch" true
    (Test_util.contains (List.hd warnings).Rep.message "does not match")

let test_unit_address_duplicate () =
  let t =
    T.of_source ~file:"ud.dts"
      "/dts-v1/;\n/ { #address-cells = <1>; #size-cells = <1>; a@1000 { reg = <0x1000 0x10>; }; b@1000 { reg = <0x1000 0x10>; }; };"
  in
  let warnings = Sem.check_unit_addresses t in
  check_bool "duplicate reported" true
    (List.exists (fun f -> Test_util.contains f.Rep.message "duplicated") warnings)

let test_unit_address_clean () =
  check_int "running example clean" 0
    (List.length (Sem.check_unit_addresses (RE.core_tree ())))


(* --- quad-core RV64 case study (three VMs, full partitioning) ---------------- *)

module Q = Llhsc.Quad_rv64

let test_quad_pipeline_green () =
  let outcome = Q.run_pipeline () in
  check_bool "ok" true (Llhsc.Pipeline.ok outcome);
  check_int "four products" 4 (List.length outcome.Llhsc.Pipeline.products);
  (* Fully partitioned: no cross-VM findings at all (the shared PLIC is
     hypervisor-virtualised and excluded by design). *)
  check_int "no cross-VM findings" 0 (List.length outcome.Llhsc.Pipeline.partition_findings);
  (* Every product individually clean. *)
  List.iter
    (fun p -> check_bool (p.Llhsc.Pipeline.name ^ " clean") true (p.Llhsc.Pipeline.findings = []))
    outcome.Llhsc.Pipeline.products

let test_quad_pipeline_certified () =
  (* The full case-study pipeline under --certify: every solver verdict of
     the run must carry a validated certificate, and the outcome stays ok. *)
  let outcome = Q.run_pipeline ~certify:true () in
  check_bool "ok" true (Llhsc.Pipeline.ok outcome);
  (match outcome.Llhsc.Pipeline.cert with
   | None -> Alcotest.fail "certified run must expose a cert report"
   | Some r ->
     check_bool "enabled" true r.Smt.Solver.enabled;
     check_bool "certified queries" true (r.Smt.Solver.certs <> []);
     check_bool "no failures" true (r.Smt.Solver.failures = []);
     check_bool "every cert ok" true
       (List.for_all (fun c -> c.Smt.Solver.ok) r.Smt.Solver.certs));
  (* The report prints each query's cumulative trace-step count, which
     moves if a single clause of the blasted CNF moves; the benchmark's
     known answer for this run is the reference, byte for byte. *)
  let ic = open_in_bin "../perfbench/expected/pipeline-quad-certify.txt" in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "certified report" want
    (Fmt.str "%a" Llhsc.Pipeline.pp_outcome outcome)

let test_quad_products () =
  let outcome = Q.run_pipeline () in
  let product name =
    List.find (fun p -> p.Llhsc.Pipeline.name = name) outcome.Llhsc.Pipeline.products
  in
  let vm1 = (product "vm1").Llhsc.Pipeline.tree in
  check_bool "vm1 has cluster0 cpus" true
    (T.find vm1 "/cpus/cluster0/cpu@0" <> None && T.find vm1 "/cpus/cluster0/cpu@1" <> None);
  check_bool "vm1 lacks cluster1 cpus" true
    (T.find vm1 "/cpus/cluster1/cpu@2" = None && T.find vm1 "/cpus/cluster1/cpu@3" = None);
  check_bool "vm1 vnet0" true (T.find vm1 "/vEthernet/vnet0@c0000000" <> None);
  let vm3 = (product "vm3").Llhsc.Pipeline.tree in
  check_bool "vm3 headless" true (T.find vm3 "/soc/uart@10000000" = None);
  check_bool "vm3 virtio1" true (T.find vm3 "/soc/virtio@10003000" <> None);
  check_bool "vm3 no vEthernet" true (T.find vm3 "/vEthernet" = None)

let test_quad_bao_clusters () =
  let outcome = Q.run_pipeline () in
  let platform =
    (List.find (fun p -> p.Llhsc.Pipeline.name = "platform") outcome.Llhsc.Pipeline.products)
      .Llhsc.Pipeline.tree
  in
  let p = Bao.Platform.of_tree platform in
  check_int "4 cpus" 4 p.Bao.Platform.cpu_num;
  Alcotest.(check (list int)) "two clusters of 2" [ 2; 2 ] p.Bao.Platform.core_nums;
  check_int "4 memory regions" 4 (List.length p.Bao.Platform.regions);
  (* Per-VM configs carry the pass-through interrupts. *)
  let vm1 =
    Bao.Config.vm_of_tree ~name:"vm1"
      (List.find (fun p -> p.Llhsc.Pipeline.name = "vm1") outcome.Llhsc.Pipeline.products)
        .Llhsc.Pipeline.tree
  in
  check_int "vm1 cpus" 2 vm1.Bao.Config.cpu_num;
  check_bool "vm1 irqs include uart 10 and gpio 3" true
    (List.mem 10L vm1.Bao.Config.interrupts && List.mem 3L vm1.Bao.Config.interrupts)

let test_quad_feature_model_size () =
  let env = Featuremodel.Analysis.encode (Q.feature_model ()) in
  (* (2^4-1 banks) x (2^4-1 cpus) x (uarts: 1+3) x (virtio: 1+3) x vnet(3)
     minus the gpio => uart cross constraint carve-outs; just pin the
     exact number as a regression anchor. *)
  check_int "product count" 16200 (Featuremodel.Analysis.count_products env)


(* --- fail-operational: journal round-trips, resume, escalation ---------------- *)

module J = Llhsc.Journal

let outcome_string o = Fmt.str "%a" Llhsc.Pipeline.pp_outcome o

let with_temp_journal f =
  let path = Filename.temp_file "llhsc-journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let quad_inputs_hash = J.inputs_hash ~parts:[ "test-quad"; Llhsc.Quad_rv64.core_dts ]

let sample_entries ~inputs_hash =
  (* The first finding deliberately stresses the JSON layer: quotes,
     backslashes, control characters and multi-byte UTF-8 in every string
     field that reaches the journal. *)
  let weird =
    Rep.finding ~severity:Rep.Warning
      ~core:[ "excl:uart"; "mem[0]" ]
      ~loc:(Devicetree.Loc.make ~file:"odd \"name\"\\dir.dts" ~line:3 ~col:7)
      ~checker:"semantic" ~node_path:"/soc/uart@10000000" "%s"
      "quote \" backslash \\ newline \n tab \t e-acute \xc3\xa9 ctrl \x01 end"
  in
  let plain = Rep.finding ~checker:"alloc" ~node_path:"/memory@80000000" "%s" "plain error" in
  [ { J.kind = J.Product;
      name = "vm1";
      hash = J.product_hash ~inputs_hash ~name:"vm1" ~features:[ "cpu@0"; "uart0" ];
      features = [ "cpu@0"; "uart0" ];
      order = [ "d1"; "d2" ];
      findings = [ weird; plain ];
      certified = true;
      cert_failures = 0
    };
    { J.kind = J.Partition;
      name = "partition";
      hash = J.partition_hash ~inputs_hash ~products:[ ("vm1", [ "cpu@0" ]) ];
      features = [];
      order = [];
      findings = [];
      certified = false;
      cert_failures = 2
    }
  ]

let test_journal_roundtrip () =
  with_temp_journal @@ fun path ->
  let inputs_hash = quad_inputs_hash in
  let entries = sample_entries ~inputs_hash in
  let sink = J.open_ ~path ~inputs_hash in
  List.iter (J.record sink) entries;
  J.close sink;
  let loaded = J.load ~path ~inputs_hash in
  check_int "two entries" 2 (List.length loaded);
  List.iter2
    (fun (written : J.entry) (got : J.entry) ->
      check_bool ("entry " ^ written.J.name ^ " round-trips") true (written = got))
    entries loaded

let test_journal_tolerates_torn_tail () =
  with_temp_journal @@ fun path ->
  let inputs_hash = quad_inputs_hash in
  let sink = J.open_ ~path ~inputs_hash in
  List.iter (J.record sink) (sample_entries ~inputs_hash);
  J.close sink;
  (* Simulate a crash mid-write: half a record, no trailing newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc {|{"kind":"product","name":"vm2","ha|};
  close_out oc;
  let loaded = J.load ~path ~inputs_hash in
  check_int "torn tail skipped" 2 (List.length loaded);
  check_bool "torn record absent" true (J.find loaded J.Product "vm2" = None)

let test_journal_last_record_wins () =
  with_temp_journal @@ fun path ->
  let inputs_hash = quad_inputs_hash in
  let entries = sample_entries ~inputs_hash in
  let first = List.hd entries in
  let updated = { first with J.findings = []; cert_failures = 7 } in
  let sink = J.open_ ~path ~inputs_hash in
  J.record sink first;
  J.record sink (List.nth entries 1);
  J.record sink updated;
  J.close sink;
  let check_latest what =
    let loaded = J.load ~path ~inputs_hash in
    check_int (what ^ ": still two entries") 2 (List.length loaded);
    match J.find loaded J.Product "vm1" with
    | Some e ->
      check_int (what ^ ": latest record wins") 7 e.J.cert_failures;
      check_bool (what ^ ": latest findings win") true (e.J.findings = [])
    | None -> Alcotest.fail (what ^ ": vm1 entry missing")
  in
  check_latest "appended";
  (* Compaction collapses the superseded vm1 record and keeps the
     latest one. *)
  (match J.compact ~path with
   | Ok counts -> check_bool "compact: 3 records in, 2 entries out" true (counts = (3, 2))
   | Error e -> Alcotest.fail e);
  (match J.fsck ~path with
   | Some r ->
     check_int "compacted records" 2 r.J.records;
     check_int "no torn line" 0 r.J.torn;
     check_int "no invalid line" 0 r.J.invalid
   | None -> Alcotest.fail "compacted journal unreadable");
  check_latest "compacted"

let test_journal_stale_inputs_hash () =
  with_temp_journal @@ fun path ->
  let inputs_hash = quad_inputs_hash in
  let sink = J.open_ ~path ~inputs_hash in
  List.iter (J.record sink) (sample_entries ~inputs_hash);
  J.close sink;
  (* Different run inputs: the whole journal is stale, nothing loads. *)
  check_bool "whole journal stale" true
    (J.load ~path ~inputs_hash:(J.inputs_hash ~parts:[ "different" ]) = []);
  check_bool "matching hash still loads" true (J.load ~path ~inputs_hash <> [])

(* --- the fault schedule ------------------------------------------------------- *)

module D = Llhsc.Durable
module F = Llhsc.Fault

(* The LLHSC_FAULT schedule is read on every injection point, so setting
   it with putenv works (forked workers inherit it); the event counters
   are process-global and must be rewound around every use or a later
   test inherits a half-spent schedule. *)
let with_fault schedule f =
  Unix.putenv "LLHSC_FAULT" schedule;
  F.reset ();
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "LLHSC_FAULT" "";
      F.reset ())
    f

(* Every kind parses under its table name; each malformed form is
   rejected with the bad token named, never silently dropped. *)
let test_fault_schedule_parse () =
  check_int "sixteen kinds" 16 (List.length F.kinds);
  List.iter
    (fun (name, kind) ->
      check_bool (name ^ "@3 parses") true (F.parse (name ^ "@3") = Ok [ (kind, 3) ]))
    F.kinds;
  check_bool "comma-joined tokens" true
    (F.parse "enospc@2, short@5,kill-worker@0"
    = Ok [ (F.Enospc, 2); (F.Short, 5); (F.Kill_worker, 0) ]);
  check_bool "empty means no faults" true (F.parse "" = Ok []);
  List.iter
    (fun (raw, token) ->
      match F.parse raw with
      | Ok _ -> Alcotest.failf "%S accepted" raw
      | Error msg ->
        check_bool (Printf.sprintf "%S names %S" raw token) true
          (Test_util.contains msg (Printf.sprintf "%S" token)))
    [ ("enopsc@2", "enopsc@2"); (* unknown kind *)
      ("KILL_WORKER@1", "KILL_WORKER@1"); (* old spelling *)
      ("kill-worker", "kill-worker"); (* missing @n *)
      ("kill-worker@", "kill-worker@");
      ("kill-worker@-1", "kill-worker@-1"); (* negative *)
      ("kill-worker@x", "kill-worker@x"); (* not an integer *)
      ("kill-worker@0x10", "kill-worker@0x10");
      ("kill-worker@1.5", "kill-worker@1.5");
      ("enospc@2,,short@5", ""); (* empty token *)
      ("enospc@2,enopsc@3", "enopsc@3") ];
  with_fault "kill-worker@3,enospc@1" (fun () ->
      check_bool "check accepts" true (F.check () = Ok ());
      check_bool "fires at n" true (F.fires F.Kill_worker 3);
      check_bool "not at another n" false (F.fires F.Kill_worker 2);
      check_bool "not for another kind" false (F.fires F.Hang_worker 3));
  with_fault "enopsc@2" (fun () ->
      check_bool "check rejects" true (Result.is_error (F.check ()));
      match F.fires F.Enospc 2 with
      | _ -> Alcotest.fail "fires read a malformed schedule"
      | exception Invalid_argument _ -> ());
  check_bool "cleared: check accepts" true (F.check () = Ok ());
  check_bool "cleared: nothing fires" false (F.fires F.Kill_worker 3)

(* --- storage faults: Durable fault hooks, journal degradation, fsck ------------ *)

let with_temp_file f =
  let path = Filename.temp_file "llhsc-durable" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let slurp path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_durable_atomic_write () =
  with_temp_file @@ fun path ->
  D.write_file ~path "first";
  D.write_file ~path "second";
  Alcotest.(check string) "last commit wins" "second" (slurp path);
  check_bool "no temp file left behind" true
    (Sys.readdir (Filename.dirname path)
    |> Array.for_all (fun f ->
           not (String.length f > String.length (Filename.basename path)
               && String.sub f 0 (String.length (Filename.basename path))
                  = Filename.basename path)))

(* Every injected failure mode must leave the previous contents intact:
   the commit is the rename, and the rename never happens. *)
let check_old_contents_survive name schedule expect_exn =
  with_temp_file @@ fun path ->
  D.write_file ~path "before";
  with_fault schedule @@ fun () ->
  (match D.write_file ~path "after" with
  | () -> Alcotest.fail (name ^ ": injected fault did not fire")
  | exception e ->
    check_bool (name ^ ": expected exception") true (expect_exn e));
  Alcotest.(check string) (name ^ ": old contents intact") "before" (slurp path)

let test_durable_enospc () =
  check_old_contents_survive "enospc" "enospc@1" (function
    | Unix.Unix_error (Unix.ENOSPC, _, _) -> true
    | _ -> false)

let test_durable_short_write () =
  check_old_contents_survive "short" "short@1" (function
    | Unix.Unix_error (Unix.ENOSPC, _, _) -> true
    | _ -> false)

let test_durable_eio_fsync () =
  check_old_contents_survive "eio-fsync" "eio-fsync@1" (function
    | Unix.Unix_error (Unix.EIO, _, _) -> true
    | _ -> false)

let test_durable_erofs () =
  check_old_contents_survive "erofs" "erofs@1" (function
    | Sys_error msg ->
      let sub = "Read-only file system" in
      let n = String.length msg and k = String.length sub in
      let rec scan i = i + k <= n && (String.sub msg i k = sub || scan (i + 1)) in
      scan 0
    | _ -> false)

(* Every event counter lives in Fault, so one reset rewinds them all: a
   served job child, a fork of the daemon, counts its schedule from the
   first event, as an exec'd process would. *)
let test_fault_reset () =
  let c = F.counter () in
  c := 7;
  F.reset ();
  check_int "a counter reads 0 after reset" 0 !c;
  with_temp_file @@ fun path ->
  with_fault "enospc@1" @@ fun () ->
  let fails () =
    match D.write_file ~path "x" with
    | () -> false
    | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> true
  in
  check_bool "the first write fails" true (fails ());
  check_bool "the second write is past the schedule" false (fails ());
  F.reset ();
  check_bool "after a reset the first write fails again" true (fails ())

let test_durable_crash_between_write_and_rename () =
  with_temp_file @@ fun path ->
  D.write_file ~path "before";
  match Unix.fork () with
  | 0 ->
    (* Child: the hook SIGKILLs the process after the temp file is
       written and fsync'd but before the rename publishes it. *)
    Unix.putenv "LLHSC_FAULT" "crash-rename@1";
    F.reset ();
    (try D.write_file ~path "after" with _ -> ());
    Unix._exit 0 (* only reached if the hook failed to fire *)
  | pid ->
    let _, status = Unix.waitpid [] pid in
    check_bool "child died of SIGKILL before the rename" true
      (status = Unix.WSIGNALED Sys.sigkill);
    Alcotest.(check string) "old contents intact" "before" (slurp path)

let test_journal_degrades_on_enospc () =
  with_temp_journal @@ fun path ->
  let inputs_hash = quad_inputs_hash in
  let entries = sample_entries ~inputs_hash in
  let sink = J.open_ ~path ~inputs_hash in
  J.record sink (List.hd entries);
  check_bool "healthy before the fault" true (J.degradation sink = None);
  (* The next record's write hits ENOSPC: the sink degrades instead of
     raising, and later records are dropped without touching the disk. *)
  with_fault "enospc@1" (fun () -> J.record sink (List.nth entries 1));
  (match J.degradation sink with
  | Some _ -> ()
  | None -> Alcotest.fail "sink did not degrade on ENOSPC");
  J.record sink (List.nth entries 1);
  J.close sink;
  check_bool "degraded journal refused by load" true (J.load ~path ~inputs_hash = []);
  (match J.fsck ~path with
  | Some r ->
    check_bool "fsck sees the degradation marker" true (r.J.degraded_reason <> None);
    check_bool "fsck flags issues" true (J.fsck_issues r);
    check_int "the pre-fault record survived" 1 r.J.entries
  | None -> Alcotest.fail "fsck could not read the journal");
  (* compact is the explicit operator act that re-blesses the survivors. *)
  (match J.compact ~path with
  | Ok (_, entries_after) -> check_int "compact keeps the survivor" 1 entries_after
  | Error e -> Alcotest.fail ("compact failed: " ^ e));
  let reloaded = J.load ~path ~inputs_hash in
  check_int "compacted journal loads again" 1 (List.length reloaded);
  check_bool "surviving entry intact" true (List.hd reloaded = List.hd entries)

let test_journal_degrades_on_fsync_eio () =
  with_temp_journal @@ fun path ->
  let inputs_hash = quad_inputs_hash in
  let entries = sample_entries ~inputs_hash in
  let sink = J.open_ ~path ~inputs_hash in
  (* The record's write lands but its fsync reports EIO: the record may
     not be durable, so the sink must degrade — never pretend-durable. *)
  with_fault "eio-fsync@1" (fun () -> J.record sink (List.hd entries));
  check_bool "sink degraded on fsync failure" true (J.degradation sink <> None);
  J.close sink;
  check_bool "load refuses the degraded journal" true (J.load ~path ~inputs_hash = [])

(* --- the open policy: append, start over, or refuse --------------------------- *)

let write_journal path ~inputs_hash entries =
  let sink = J.open_ ~path ~inputs_hash in
  List.iter (J.record sink) entries;
  J.close sink

let loaded_names path =
  List.map (fun (e : J.entry) -> e.J.name) (J.load ~path ~inputs_hash:quad_inputs_hash)

(* Records appended under another run's header could never be replayed:
   reusing the path starts the journal over. *)
let test_journal_other_binding_restarts () =
  with_temp_journal @@ fun path ->
  let entries = sample_entries ~inputs_hash:quad_inputs_hash in
  let other = J.inputs_hash ~parts:[ "another run" ] in
  write_journal path ~inputs_hash:other entries;
  write_journal path ~inputs_hash:quad_inputs_hash [ List.hd entries ];
  Alcotest.(check (list string)) "this run's record loads" [ "vm1" ] (loaded_names path);
  check_bool "the other run's records are gone" true (J.load ~path ~inputs_hash:other = [])

let test_journal_degraded_restarts () =
  with_temp_journal @@ fun path ->
  let entries = sample_entries ~inputs_hash:quad_inputs_hash in
  let sink = J.open_ ~path ~inputs_hash:quad_inputs_hash in
  with_fault "enospc@1" (fun () -> J.record sink (List.hd entries));
  J.close sink;
  write_journal path ~inputs_hash:quad_inputs_hash entries;
  Alcotest.(check (list string)) "the new records load" [ "vm1"; "partition" ]
    (loaded_names path)

(* A crash mid-record leaves a fragment with no newline; the next run's
   first record must not be glued onto it. *)
let test_journal_append_after_torn_tail () =
  with_temp_journal @@ fun path ->
  let entries = sample_entries ~inputs_hash:quad_inputs_hash in
  write_journal path ~inputs_hash:quad_inputs_hash [ List.hd entries ];
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc {|{"kind":"product","name":"vm2","ha|};
  close_out oc;
  write_journal path ~inputs_hash:quad_inputs_hash [ List.nth entries 1 ];
  Alcotest.(check (list string)) "the appended record loads" [ "vm1"; "partition" ]
    (loaded_names path);
  match J.fsck ~path with
  | Some r -> check_int "only the fragment is lost" 1 (r.J.torn + r.J.invalid)
  | None -> Alcotest.fail "fsck could not read the journal"

(* ENOSPC on the header write leaves a marker line and no header: still
   a journal (of a degraded run), so it is started over. *)
let test_journal_failed_header_restarts () =
  with_temp_journal @@ fun path ->
  let sink =
    with_fault "enospc@1" (fun () -> J.open_ ~path ~inputs_hash:quad_inputs_hash)
  in
  check_bool "opened degraded" true (J.degradation sink <> None);
  J.close sink;
  (match J.fsck ~path with
   | Some r ->
     check_bool "no header" true (r.J.header = `Bad);
     check_bool "marker present" true (r.J.degraded_reason <> None)
   | None -> Alcotest.fail "fsck could not read the journal");
  write_journal path ~inputs_hash:quad_inputs_hash
    (sample_entries ~inputs_hash:quad_inputs_hash);
  Alcotest.(check (list string)) "started over" [ "vm1"; "partition" ] (loaded_names path)

let test_journal_foreign_file_refused () =
  with_temp_journal @@ fun path ->
  let notes = "my notes\nnot a journal\n" in
  let oc = open_out_bin path in
  output_string oc notes;
  close_out oc;
  (match J.open_ ~path ~inputs_hash:quad_inputs_hash with
   | _ -> Alcotest.fail "a non-journal file was opened"
   | exception Sys_error _ -> ());
  Alcotest.(check string) "bytes unchanged" notes (slurp path)

(* The fsck/load tolerance property: whatever a disk does to a journal —
   truncation at any byte, arbitrary byte flips, appended garbage —
   [load] never raises and never yields an entry that was not written
   (the per-line CRC catches corrupt-but-parseable lines), and [fsck]
   never raises either. *)
let prop_journal_corruption_safe =
  QCheck.Test.make ~count:100 ~name:"corrupted journal: load never raises or fabricates"
    QCheck.(
      triple (int_range 0 8192)
        (list_of_size Gen.(int_range 0 12) (pair small_nat small_nat))
        (option (string_of_size Gen.(int_range 0 64))))
    (fun (cut, flips, garbage) ->
      with_temp_journal @@ fun path ->
      let inputs_hash = quad_inputs_hash in
      let entries = sample_entries ~inputs_hash in
      let sink = J.open_ ~path ~inputs_hash in
      List.iter (J.record sink) entries;
      J.close sink;
      let original = Bytes.of_string (slurp path) in
      let cut = cut mod (Bytes.length original + 1) in
      let corrupted = Bytes.sub original 0 cut in
      List.iter
        (fun (pos, v) ->
          if Bytes.length corrupted > 0 then
            Bytes.set corrupted (pos mod Bytes.length corrupted) (Char.chr (v land 0xff)))
        flips;
      let oc = open_out_bin path in
      output_bytes oc corrupted;
      (match garbage with Some g -> output_string oc g | None -> ());
      close_out oc;
      let fsck_safe = match J.fsck ~path with Some _ | None -> true in
      let load_safe =
        match J.load ~path ~inputs_hash with
        | loaded -> List.for_all (fun e -> List.mem e entries) loaded
        | exception _ -> false
      in
      fsck_safe && load_safe)

let all_quad_record_names = [ "partition"; "platform"; "vm1"; "vm2"; "vm3" ]

let quad_journal_entries path =
  let inputs_hash = quad_inputs_hash in
  let sink = J.open_ ~path ~inputs_hash in
  let baseline = Q.run_pipeline ~inputs_hash ~journal:sink () in
  J.close sink;
  (baseline, J.load ~path ~inputs_hash)

let test_resume_replays_byte_identical () =
  with_temp_journal @@ fun path ->
  let baseline, entries = quad_journal_entries path in
  check_int "four products + partition journaled" 5 (List.length entries);
  let resumed = Q.run_pipeline ~inputs_hash:quad_inputs_hash ~resume:entries () in
  check_bool "everything replayed" true
    (List.sort compare resumed.Llhsc.Pipeline.replayed = all_quad_record_names);
  check_bool "ok" true (Llhsc.Pipeline.ok resumed);
  Alcotest.(check string) "byte-identical report" (outcome_string baseline)
    (outcome_string resumed)

let test_resume_stale_entry_rechecked () =
  with_temp_journal @@ fun path ->
  let baseline, entries = quad_journal_entries path in
  (* A hash mismatch marks vm2's entry stale: vm2 must be re-checked while
     the rest still replays, and the report must not change. *)
  let tampered =
    List.map
      (fun (e : J.entry) -> if e.J.name = "vm2" then { e with J.hash = "stale" } else e)
      entries
  in
  let resumed = Q.run_pipeline ~inputs_hash:quad_inputs_hash ~resume:tampered () in
  check_bool "vm2 re-checked" true
    (not (List.mem "vm2" resumed.Llhsc.Pipeline.replayed));
  check_bool "others replayed" true
    (List.sort compare ("vm2" :: resumed.Llhsc.Pipeline.replayed) = all_quad_record_names);
  Alcotest.(check string) "report unchanged" (outcome_string baseline)
    (outcome_string resumed)

let test_resume_never_fabricates_certificates () =
  with_temp_journal @@ fun path ->
  let _, entries = quad_journal_entries path in
  (* The journal was written by a non-certifying run; a certifying resume
     must not trust it — every verdict is re-derived and certified. *)
  let certified =
    Q.run_pipeline ~certify:true ~inputs_hash:quad_inputs_hash ~resume:entries ()
  in
  check_bool "uncertified entries not trusted" true
    (certified.Llhsc.Pipeline.replayed = []);
  check_bool "ok" true (Llhsc.Pipeline.ok certified);
  match certified.Llhsc.Pipeline.cert with
  | Some c -> check_bool "fresh certificates" true (c.Smt.Solver.certs <> [])
  | None -> Alcotest.fail "certifying resume must expose a cert report"

(* Satellite (c): --resume is idempotent, and corrupt/stale journal entries
   are re-checked rather than replayed — under random per-entry staleness. *)
let prop_resume_idempotent =
  QCheck.Test.make ~count:6 ~name:"resume idempotent; stale entries re-checked"
    QCheck.(list_of_size Gen.(int_range 0 5) bool)
    (fun mask ->
      with_temp_journal @@ fun path ->
      let baseline, entries = quad_journal_entries path in
      let stale i = List.nth_opt mask i = Some true in
      let tampered =
        List.mapi
          (fun i (e : J.entry) -> if stale i then { e with J.hash = "stale" } else e)
          entries
      in
      let stale_names =
        List.filteri (fun i _ -> stale i) (List.map (fun (e : J.entry) -> e.J.name) entries)
      in
      let r1 = Q.run_pipeline ~inputs_hash:quad_inputs_hash ~resume:tampered () in
      let r2 = Q.run_pipeline ~inputs_hash:quad_inputs_hash ~resume:tampered () in
      outcome_string r1 = outcome_string baseline
      && outcome_string r2 = outcome_string r1
      && List.for_all
           (fun n -> not (List.mem n r1.Llhsc.Pipeline.replayed))
           stale_names)

(* Tight enough that several of the per-task (fresh-solver) queries
   exhaust it, loose enough that the x4-per-rung escalation ladder
   recovers every one of them. *)
let tight_budget () = Sat.Solver.budget ~max_propagations:500 ()

let inconclusive_count (outcome : Llhsc.Pipeline.outcome) =
  let count fs =
    List.length
      (List.filter
         (fun (f : Rep.finding) -> Test_util.contains f.Rep.message "inconclusive")
         fs)
  in
  List.fold_left
    (fun acc (p : Llhsc.Pipeline.product) -> acc + count p.Llhsc.Pipeline.findings)
    (count outcome.Llhsc.Pipeline.partition_findings)
    outcome.Llhsc.Pipeline.products

let test_quad_escalation_recovers_tight_budget () =
  (* Acceptance criterion: a budget that leaves the plain pipeline with
     inconclusive verdicts is fully recovered by the escalation ladder,
     and the recovered verdicts certify. *)
  let plain = Q.run_pipeline ~budget:(tight_budget ()) () in
  check_bool "tight budget leaves inconclusive findings" true (inconclusive_count plain >= 1);
  let escalated =
    Q.run_pipeline ~budget:(tight_budget ())
      ~retry:(Smt.Escalation.ladder ~attempts:3 ())
      ~certify:true ()
  in
  check_int "escalation resolves every query" 0 (inconclusive_count escalated);
  check_bool "ok" true (Llhsc.Pipeline.ok escalated);
  (match escalated.Llhsc.Pipeline.retry with
  | None -> Alcotest.fail "retry report expected"
  | Some r ->
    check_bool "some queries escalated" true (r.Smt.Solver.retried <> []);
    check_bool "all recovered" true
      (List.for_all
         (fun (e : Smt.Solver.retry_entry) -> e.Smt.Solver.recovered)
         r.Smt.Solver.retried);
    List.iter
      (fun (e : Smt.Solver.retry_entry) ->
        match e.Smt.Solver.attempts with
        | (a1 : Smt.Solver.attempt) :: rest ->
          check_int "first attempt at base budget" 1 a1.Smt.Solver.scale;
          check_bool "retries scale the budget" true
            (rest <> []
            && List.for_all (fun (a : Smt.Solver.attempt) -> a.Smt.Solver.scale > 1) rest)
        | [] -> Alcotest.fail "retry entry without attempts")
      r.Smt.Solver.retried);
  match escalated.Llhsc.Pipeline.cert with
  | Some c -> check_bool "no certification failures" true (c.Smt.Solver.failures = [])
  | None -> Alcotest.fail "cert report expected"


(* --- json: \u escapes, surrogate pairs, astral code points -------------------- *)

module Js = Llhsc.Json

let parse_str s =
  match Js.parse s with
  | Ok (Js.Str v) -> v
  | Ok _ -> Alcotest.failf "parsed %s to a non-string" s
  | Error e -> Alcotest.failf "parse of %s failed: %s" s e

let test_json_surrogate_pair_decodes () =
  (* Regression: 😀 is ONE code point (U+1F600) escaped as a
     UTF-16 surrogate pair; it must decode to a single 4-byte UTF-8
     sequence.  The old decoder emitted each half as a separate 3-byte
     sequence (CESU-8 mojibake). *)
  Alcotest.(check string) "astral pair" "\xf0\x9f\x98\x80" (parse_str {|"\ud83d\ude00"|});
  Alcotest.(check string) "uppercase hex too" "\xf0\x9f\x98\x80" (parse_str {|"\uD83D\uDE00"|});
  (* Boundary pairs: U+10000 (lowest astral) and U+10FFFF (highest). *)
  Alcotest.(check string) "U+10000" "\xf0\x90\x80\x80" (parse_str {|"\ud800\udc00"|});
  Alcotest.(check string) "U+10FFFF" "\xf4\x8f\xbf\xbf" (parse_str {|"\udbff\udfff"|});
  (* BMP escapes are unaffected: 2-byte and 3-byte sequences. *)
  Alcotest.(check string) "U+00E9" "\xc3\xa9" (parse_str {|"\u00e9"|});
  Alcotest.(check string) "U+20AC" "\xe2\x82\xac" (parse_str {|"\u20ac"|});
  (* Writer round-trip: raw astral UTF-8 passes through to_string/parse. *)
  Alcotest.(check string) "writer round-trip" "\xf0\x9f\x98\x80"
    (parse_str (Js.to_string (Js.Str "\xf0\x9f\x98\x80")))

let test_json_lone_surrogates_rejected () =
  (* A surrogate half on its own is not a code point; decoding it would
     produce invalid UTF-8 in journal records.  Structured parse error,
     not mojibake and not a crash. *)
  let rejected s = match Js.parse s with Error _ -> true | Ok _ -> false in
  check_bool "lone high at end" true (rejected {|"\ud83d"|});
  check_bool "lone high before text" true (rejected {|"\ud83d x"|});
  check_bool "lone high before non-u escape" true (rejected {|"\ud83d\n"|});
  check_bool "high followed by high" true (rejected {|"\ud83d\ud83d"|});
  check_bool "lone low" true (rejected {|"\ude00"|});
  check_bool "truncated second escape" true (rejected {|"\ud83d\ude0|})

(* --- property: the report does not depend on the job count --------------------- *)

(* Acceptance criterion of the --jobs work, under randomly generated
   feature selections (valid or not — rejection reports must match too):
   sharding the check phase across 4 forked workers yields a report
   byte-identical to the single-process run. *)
let prop_parallel_report_identical =
  QCheck.Test.make ~count:8 ~name:"--jobs 4 report = --jobs 1 report"
    QCheck.(
      pair (list_of_size (Gen.return 7) bool) (list_of_size (Gen.return 7) bool))
    (fun (m1, m2) ->
      let feats =
        [ "memory"; "cpu@0"; "cpu@1"; "uart@20000000"; "uart@30000000"; "veth0"; "veth1" ]
      in
      let pick mask = List.filteri (fun i _ -> List.nth mask i) feats in
      let run jobs =
        Llhsc.Pipeline.run ~exclusive:RE.exclusive ~jobs ~model:(RE.feature_model ())
          ~core:(RE.core_tree ()) ~deltas:(RE.deltas ()) ~schemas_for:RE.schemas_for
          ~vm_requests:[ pick m1; pick m2 ] ()
      in
      outcome_string (run 1) = outcome_string (run 4))

(* --- property: supervision does not change the report --------------------------- *)

(* Acceptance criterion of the self-healing pool: with a seeded worker
   fault (SIGKILL or hang) on a random task, the supervised run —
   reassignment, quarantine, in-process retry and all — merges to a
   report byte-identical to the undisturbed single-process run.  The
   fault hooks are read only in forked workers, so the jobs-1 baseline
   is undisturbed by construction. *)
let prop_supervised_crash_report_identical =
  QCheck.Test.make ~count:4
    ~name:"supervised pool with kills/hangs = --jobs 1 report"
    QCheck.(pair (int_range 0 3) bool)
    (fun (victim, hang) ->
      let vm_requests =
        [ [ "memory"; "cpu@0"; "uart@20000000"; "veth0" ]; [ "memory"; "cpu@1" ] ]
      in
      let run ?task_deadline jobs =
        Llhsc.Pipeline.run ~exclusive:RE.exclusive ~jobs ?task_deadline
          ~model:(RE.feature_model ()) ~core:(RE.core_tree ())
          ~deltas:(RE.deltas ()) ~schemas_for:RE.schemas_for ~vm_requests ()
      in
      let baseline = outcome_string (run 1) in
      let kind = if hang then "hang-worker" else "kill-worker" in
      let disturbed =
        with_fault (Printf.sprintf "%s@%d" kind victim) (fun () ->
            outcome_string (run ~task_deadline:1.0 2))
      in
      disturbed = baseline)

(* --- supervision unit tests ----------------------------------------------------- *)

let test_resource_limit_diagnostics () =
  (match Diag.of_exn (Diag.Resource_limit "cpu time limit exceeded") with
   | Some d ->
     Alcotest.(check string) "code" "RESOURCE" d.Diag.code;
     check_bool "is error" true (Diag.is_error d)
   | None -> Alcotest.fail "Resource_limit not converted");
  match Diag.of_exn Out_of_memory with
  | Some d -> Alcotest.(check string) "oom code" "RESOURCE" d.Diag.code
  | None -> Alcotest.fail "Out_of_memory not converted"

let test_online_cpus_positive () =
  check_bool "at least one core" true (Llhsc.Shard.online_cpus () >= 1)

let test_jobs_zero_auto_detects () =
  (* jobs <= 0 resolves to the online core count; the report must still
     be byte-identical to the sequential run. *)
  let run jobs =
    Llhsc.Pipeline.run ~exclusive:RE.exclusive ~jobs ~model:(RE.feature_model ())
      ~core:(RE.core_tree ()) ~deltas:(RE.deltas ()) ~schemas_for:RE.schemas_for
      ~vm_requests:[ [ "memory"; "cpu@0" ]; [ "memory"; "cpu@1" ] ] ()
  in
  Alcotest.(check string) "auto-detected report" (outcome_string (run 1))
    (outcome_string (run 0))

(* --- disabled devices claim no resources --------------------------------------- *)

let test_disabled_devices_claim_nothing () =
  (* Two muxed peripherals share a register window and an IRQ; only one is
     enabled at a time — a perfectly legal DTS that must check clean. *)
  let src = {|
/dts-v1/;
/ {
    #address-cells = <1>; #size-cells = <1>;
    spi@10000000 { compatible = "acme,spi"; reg = <0x10000000 0x1000>; interrupts = <5>; status = "okay"; };
    i2c@10000000 { compatible = "acme,i2c"; reg = <0x10000000 0x1000>; interrupts = <5>; status = "disabled"; };
};
|} in
  let t = T.of_source ~file:"mux.dts" src in
  check_int "no collisions" 0 (List.length (errors (Sem.check_memory t)));
  check_int "no irq conflicts" 0 (List.length (errors (Sem.check_interrupts t)));
  (* Enabling both brings the conflicts back. *)
  let t2 = T.set_prop t ~path:"/i2c@10000000" "status" [ Devicetree.Ast.Str "okay" ] in
  check_bool "overlap when both enabled" true (errors (Sem.check_memory t2) <> []);
  check_bool "irq conflict when both enabled" true (errors (Sem.check_interrupts t2) <> [])

let () =
  Alcotest.run "llhsc"
    [
      ( "semantic-memory",
        [
          Alcotest.test_case "clean core" `Quick test_clean_core_has_no_overlap;
          Alcotest.test_case "uart/memory clash (E5)" `Quick test_uart_memory_clash;
          Alcotest.test_case "adjacent regions ok" `Quick test_adjacent_regions_do_not_collide;
          Alcotest.test_case "cpu ids excluded" `Quick test_cpu_ids_not_treated_as_addresses;
        ] );
      ( "semantic-truncation",
        [
          Alcotest.test_case "omitting d4 collides at 0x0 (E6)" `Quick
            test_omitting_d4_collides_at_zero;
          Alcotest.test_case "with d4 clean" `Quick test_with_d4_is_clean;
          Alcotest.test_case "truncation lint" `Quick test_truncation_lint;
        ] );
      ( "semantic-interrupts",
        [
          Alcotest.test_case "conflict" `Quick test_interrupt_conflict;
          Alcotest.test_case "distinct parents" `Quick test_interrupts_distinct_parents_ok;
          Alcotest.test_case "3-cell clash on one line" `Quick test_interrupt_clash_one_line;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "auto assignment" `Quick test_alloc_auto_assignment;
          Alcotest.test_case "double cpu rejected" `Quick test_alloc_rejects_double_cpu;
          Alcotest.test_case "invalid selection rejected" `Quick test_alloc_rejects_invalid_selection;
          Alcotest.test_case "bad vm index" `Quick test_alloc_bad_vm_index;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "end to end (E3)" `Quick test_pipeline_end_to_end;
          Alcotest.test_case "broken delta set" `Quick test_pipeline_catches_broken_delta_set;
          Alcotest.test_case "bad allocation" `Quick test_pipeline_rejects_bad_allocation;
          Alcotest.test_case "syntactic failure" `Quick test_pipeline_syntactic_failure_reported;
          Alcotest.test_case "corrupt product isolated" `Quick
            test_pipeline_isolates_corrupt_product;
          Alcotest.test_case "budget inconclusive" `Quick test_pipeline_budget_inconclusive;
        ] );
      ( "partition",
        [
          Alcotest.test_case "shared RAM warned" `Quick test_partition_warnings_on_shared_ram;
          Alcotest.test_case "partitioned variant clean" `Quick test_partitioned_variant_is_clean;
          Alcotest.test_case "cpu sharing error" `Quick test_partition_cpu_sharing_is_error;
          Alcotest.test_case "containment" `Quick test_partition_containment;
        ] );
      ( "dtb",
        [ Alcotest.test_case "check decoded DTB" `Quick test_check_decoded_dtb ] );
      ( "quad-rv64",
        [
          Alcotest.test_case "pipeline green" `Quick test_quad_pipeline_green;
          Alcotest.test_case "pipeline certified" `Quick test_quad_pipeline_certified;
          Alcotest.test_case "products" `Quick test_quad_products;
          Alcotest.test_case "bao clusters" `Quick test_quad_bao_clusters;
          Alcotest.test_case "feature model size" `Quick test_quad_feature_model_size;
        ] );
      ( "journal",
        [
          Alcotest.test_case "round-trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail tolerated" `Quick test_journal_tolerates_torn_tail;
          Alcotest.test_case "last record wins" `Quick test_journal_last_record_wins;
          Alcotest.test_case "stale inputs hash" `Quick test_journal_stale_inputs_hash;
          Alcotest.test_case "another binding is started over" `Quick
            test_journal_other_binding_restarts;
          Alcotest.test_case "a degraded journal is started over" `Quick
            test_journal_degraded_restarts;
          Alcotest.test_case "append after a torn tail starts a new line" `Quick
            test_journal_append_after_torn_tail;
          Alcotest.test_case "a failed header write is started over" `Quick
            test_journal_failed_header_restarts;
          Alcotest.test_case "a foreign file is refused untouched" `Quick
            test_journal_foreign_file_refused;
        ] );
      ( "fault-schedule",
        [
          Alcotest.test_case "parse accepts every kind, rejects malformed" `Quick
            test_fault_schedule_parse;
          Alcotest.test_case "reset rewinds every event counter" `Quick test_fault_reset;
        ] );
      ( "storage-faults",
        [
          Alcotest.test_case "atomic write commits last" `Quick test_durable_atomic_write;
          Alcotest.test_case "ENOSPC leaves old contents" `Quick test_durable_enospc;
          Alcotest.test_case "short write leaves old contents" `Quick
            test_durable_short_write;
          Alcotest.test_case "fsync EIO leaves old contents" `Quick test_durable_eio_fsync;
          Alcotest.test_case "read-only dir rejected" `Quick test_durable_erofs;
          Alcotest.test_case "crash before rename leaves old contents" `Quick
            test_durable_crash_between_write_and_rename;
          Alcotest.test_case "journal degrades on ENOSPC" `Quick
            test_journal_degrades_on_enospc;
          Alcotest.test_case "journal degrades on fsync EIO" `Quick
            test_journal_degrades_on_fsync_eio;
        ] );
      ( "resume",
        [
          Alcotest.test_case "replays byte-identical" `Quick test_resume_replays_byte_identical;
          Alcotest.test_case "stale entry re-checked" `Quick test_resume_stale_entry_rechecked;
          Alcotest.test_case "never fabricates certificates" `Quick
            test_resume_never_fabricates_certificates;
        ] );
      ( "escalation",
        [
          Alcotest.test_case "recovers tight budget" `Quick
            test_quad_escalation_recovers_tight_budget;
        ] );
      ( "disabled-devices",
        [ Alcotest.test_case "muxed peripherals" `Quick test_disabled_devices_claim_nothing ] );
      ( "unit-addresses",
        [
          Alcotest.test_case "mismatch" `Quick test_unit_address_mismatch;
          Alcotest.test_case "duplicate" `Quick test_unit_address_duplicate;
          Alcotest.test_case "clean" `Quick test_unit_address_clean;
        ] );
      ( "json",
        [
          Alcotest.test_case "surrogate pair decodes" `Quick test_json_surrogate_pair_decodes;
          Alcotest.test_case "lone surrogates rejected" `Quick
            test_json_lone_surrogates_rejected;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_sweep_equals_pairwise;
          QCheck_alcotest.to_alcotest prop_journal_corruption_safe;
          QCheck_alcotest.to_alcotest prop_resume_idempotent;
          QCheck_alcotest.to_alcotest prop_parallel_report_identical;
          QCheck_alcotest.to_alcotest prop_supervised_crash_report_identical;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "resource-limit diagnostics" `Quick
            test_resource_limit_diagnostics;
          Alcotest.test_case "online cpus" `Quick test_online_cpus_positive;
          Alcotest.test_case "jobs 0 auto-detects" `Quick test_jobs_zero_auto_detects;
        ] );
      ( "product-line",
        [
          Alcotest.test_case "all 12 products check clean" `Quick test_all_products_check_clean;
        ] );
    ]
