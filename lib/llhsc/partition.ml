(* Inter-VM partitioning checks — the safety requirement behind static
   partitioning ("one processor is exclusively assigned to a single VM,
   while the main memory is partitioned between the two VMs", §I-A), checked
   across the *set* of generated VM DTSs rather than inside one tree:

   - cpu-exclusive: the same CPU id must not appear in two VMs (error;
     the alloc checker enforces this at the feature level, this check
     re-verifies it on the generated artifacts);
   - memory-disjoint: RAM regions of different VMs must not overlap
     (warning by default: the paper's own running example gives both VMs
     both banks, cf. Listing 6 "without partitioning");
   - device-shared: the same pass-through MMIO region mapped into several
     VMs (warning: sometimes intentional, never silent);
   - containment: every VM region must lie inside some platform region of
     the same kind (error) — the VM cannot be given hardware the platform
     does not have.

   Overlap and containment questions are discharged on the bit-vector
   solver, reusing the semantic checker's region machinery. *)

module T = Devicetree.Tree
module Addr = Devicetree.Addresses
module Term = Smt.Term
module Solver = Smt.Solver

type vm_regions = {
  vm : string;
  memory : Semantic.region_at list;
  devices : Semantic.region_at list;
  cpu_ids : int64 list;
}

let cpu_ids tree =
  match T.find tree "/cpus" with
  | None -> []
  | Some cpus ->
    List.filter_map
      (fun (c : T.t) ->
        let is_cpu =
          match T.get_prop c "device_type" with
          | Some p -> T.prop_string p = Some "cpu"
          | None -> Devicetree.Ast.base_name c.T.name = "cpu"
        in
        if not is_cpu then None
        else
          match T.get_prop c "reg" with
          | Some p -> (match T.prop_u32s p with id :: _ -> Some id | [] -> None)
          | None -> None)
      cpus.T.children

let is_memory_path tree path =
  match T.find tree path with
  | Some node ->
    (match T.get_prop node "device_type" with
     | Some p -> T.prop_string p = Some "memory"
     | None -> false)
  | None -> false

let is_interrupt_controller tree path =
  match T.find tree path with
  | Some node -> Devicetree.Interrupts.is_controller node
  | None -> false

let classify ~vm tree =
  let memory, devices =
    List.partition (fun (r : Semantic.region_at) -> is_memory_path tree r.Semantic.owner)
      (Semantic.collect_regions tree)
  in
  (* Interrupt controllers are virtualised by the hypervisor, not
     passed through; sharing them across VMs is the normal case and is
     excluded from the device-sharing warning. *)
  let devices =
    List.filter
      (fun (r : Semantic.region_at) -> not (is_interrupt_controller tree r.Semantic.owner))
      devices
  in
  { vm; memory; devices; cpu_ids = cpu_ids tree }

(* [r] fully inside the union of [banks]?  Checked by refutation: an address
   of [r] outside every bank is sought; UNSAT proves containment.  (For the
   interval regions at hand, SAT yields a witness address.) *)
let contained_in solver (r : Semantic.region_at) banks =
  Solver.push solver;
  let x = Term.bv_var "containment-witness" ~width:64 in
  Solver.assert_ solver (Semantic.contains ~x r.Semantic.region);
  List.iter
    (fun (b : Semantic.region_at) ->
      Solver.assert_ solver (Term.not_ (Semantic.contains ~x b.Semantic.region)))
    banks;
  let result =
    match Solver.check solver with
    | Solver.Sat -> `Witness (Solver.get_bv solver x) (* witness outside all banks *)
    | Solver.Unsat _ -> `Contained
    | Solver.Unknown -> `Inconclusive
  in
  Solver.pop solver;
  result

let rec pairs = function [] -> [] | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest

(* Cross-VM checks over the generated products. *)
let check ?(solver = Solver.create ()) ~platform vms =
  let platform_r = classify ~vm:"platform" platform in
  let vm_rs = List.map (fun (name, tree) -> classify ~vm:name tree) vms in
  let findings = ref [] in
  let push f = findings := f :: !findings in

  (* CPU exclusivity. *)
  List.iter
    (fun (a, b) ->
      let shared = List.filter (fun id -> List.mem id b.cpu_ids) a.cpu_ids in
      List.iter
        (fun id ->
          push
            (Report.finding ~checker:"partition" ~node_path:"/cpus"
               "CPU %Ld assigned to both %s and %s" id a.vm b.vm))
        shared)
    (pairs vm_rs);

  (* Memory disjointness across VMs. *)
  List.iter
    (fun (a, b) ->
      List.iter
        (fun (ra : Semantic.region_at) ->
          List.iter
            (fun (rb : Semantic.region_at) ->
              match Semantic.pair_overlap solver ra rb with
              | `Disjoint -> ()
              | `Overlap witness ->
                push
                  (Report.finding ~severity:Report.Warning ~checker:"partition"
                     ~node_path:ra.Semantic.owner ~loc:ra.Semantic.loc
                     "memory of %s %a overlaps memory of %s %a (at 0x%Lx); RAM is not partitioned"
                     a.vm Addr.pp_region ra.Semantic.region b.vm Addr.pp_region
                     rb.Semantic.region witness)
              | `Inconclusive ->
                push
                  (Report.finding ~severity:Report.Warning ~checker:"partition"
                     ~node_path:ra.Semantic.owner ~loc:ra.Semantic.loc
                     "inconclusive: solver budget exhausted while checking memory of %s %a against %s %a"
                     a.vm Addr.pp_region ra.Semantic.region b.vm Addr.pp_region
                     rb.Semantic.region))
            b.memory)
        a.memory)
    (pairs vm_rs);

  (* Device sharing across VMs (same region in both). *)
  List.iter
    (fun (a, b) ->
      List.iter
        (fun (ra : Semantic.region_at) ->
          List.iter
            (fun (rb : Semantic.region_at) ->
              if ra.Semantic.region = rb.Semantic.region then
                push
                  (Report.finding ~severity:Report.Warning ~checker:"partition"
                     ~node_path:ra.Semantic.owner ~loc:ra.Semantic.loc
                     "device %a mapped into both %s and %s" Addr.pp_region
                     ra.Semantic.region a.vm b.vm))
            b.devices)
        a.devices)
    (pairs vm_rs);

  (* Containment in the platform. *)
  List.iter
    (fun vm_r ->
      let check_contained kind regions banks =
        List.iter
          (fun (r : Semantic.region_at) ->
            if banks = [] then
              push
                (Report.finding ~checker:"partition" ~node_path:r.Semantic.owner
                   ~loc:r.Semantic.loc "%s: platform has no %s regions to contain %a" vm_r.vm
                   kind Addr.pp_region r.Semantic.region)
            else
              match contained_in solver r banks with
              | `Contained -> ()
              | `Witness witness ->
                push
                  (Report.finding ~checker:"partition" ~node_path:r.Semantic.owner
                     ~loc:r.Semantic.loc
                     "%s: %s region %a is not backed by the platform (address 0x%Lx is outside every platform region)"
                     vm_r.vm kind Addr.pp_region r.Semantic.region witness)
              | `Inconclusive ->
                push
                  (Report.finding ~severity:Report.Warning ~checker:"partition"
                     ~node_path:r.Semantic.owner ~loc:r.Semantic.loc
                     "inconclusive: solver budget exhausted while checking %s: %s region %a containment"
                     vm_r.vm kind Addr.pp_region r.Semantic.region))
          regions
      in
      check_contained "memory" vm_r.memory platform_r.memory;
      check_contained "device" vm_r.devices (platform_r.devices @ platform_r.memory);
      (* CPUs must exist on the platform. *)
      List.iter
        (fun id ->
          if not (List.mem id platform_r.cpu_ids) then
            push
              (Report.finding ~checker:"partition" ~node_path:"/cpus"
                 "%s: CPU %Ld does not exist on the platform" vm_r.vm id))
        vm_r.cpu_ids)
    vm_rs;

  List.rev !findings
