(* The semantic checker (§IV-C): properties that no purely syntactic tool —
   dtc or dt-schema — can express, discharged on the bit-vector solver.

   Main check: memory consistency, formula (7) of the paper.  For every pair
   of memory-mapped regions (decoded from [reg] under the tree's
   #address-cells/#size-cells context and translated to the root address
   space through [ranges]), the regions must not intersect.  The check is
   phrased existentially, exactly as in the paper: a shared address
   x \in [b_i, b_i+s_i) \cap [b_j, b_j+s_j) is sought; a SAT answer is the
   collision witness (the "counter example of consistency" Z3 would
   produce), an UNSAT answer proves consistency.

   Additional checks: interrupt-line uniqueness per interrupt parent, and a
   truncation lint for the 64->32-bit address-cells pitfall of §IV-C. *)

module T = Devicetree.Tree
module Addr = Devicetree.Addresses
module Term = Smt.Term
module Solver = Smt.Solver

type region_at = {
  owner : string; (* node path *)
  region : Addr.region;
  loc : Devicetree.Loc.t;
}

(* A node is enabled unless it carries status with a value other than
   "okay"/"ok" — the standard DT convention; disabled devices (e.g. muxed
   peripherals) claim no resources. *)
let is_enabled tree path =
  match T.find tree path with
  | None -> true
  | Some node ->
    (match Option.bind (T.get_prop node "status") T.prop_string with
     | Some ("okay" | "ok") | None -> true
     | Some _ -> false)

(* Memory-mapped regions participating in the overlap check: only regions
   actually translated into the root address space (e.g. /cpus children,
   whose reg cells are CPU ids, are excluded by their missing ranges), and
   only from enabled nodes. *)
let collect_regions tree =
  List.concat_map
    (fun (nr : Addr.node_regions) ->
      if (not nr.Addr.translated) || not (is_enabled tree nr.Addr.path) then []
      else
        List.filter_map
          (fun (r : Addr.region) ->
            if Int64.equal r.Addr.size 0L then None
            else Some { owner = nr.Addr.path; region = r; loc = nr.Addr.reg_loc })
          nr.Addr.regions)
    (Addr.regions_in_root_space tree)

(* x \in [base, base+size).  Bases and sizes are constants, so the region
   end is computed here with explicit wrap handling: an end of exactly 2^64
   (wrap to 0 with a non-zero size) means "up to the top of the address
   space" and drops the upper bound; any other wrap is an invalid region
   caught by [Addr.region_end] at decode time. *)
let contains ~x (r : Addr.region) =
  let base = Term.bv ~width:64 r.Addr.base in
  let end_ = Int64.add r.Addr.base r.Addr.size in
  let lower = Term.uge x base in
  if Int64.equal end_ 0L && not (Int64.equal r.Addr.size 0L) then lower
  else Term.and_ [ lower; Term.ult x (Term.bv ~width:64 end_) ]

(* Check one pair of regions for intersection; returns the witness address
   when they do intersect.  This is one disjunct of formula (7). *)
let pair_overlap solver a b =
  Solver.push solver;
  let x = Term.bv_var "collision-witness" ~width:64 in
  Solver.assert_ solver (contains ~x a.region);
  Solver.assert_ solver (contains ~x b.region);
  (* Pin the witness to the larger base: it lies in the intersection
     whenever one exists, so satisfiability is unchanged and the reported
     address is canonical (0x0 in the paper's truncation example). *)
  let pin =
    if Int64.unsigned_compare a.region.Addr.base b.region.Addr.base >= 0 then
      a.region.Addr.base
    else b.region.Addr.base
  in
  Solver.assert_ solver (Term.eq x (Term.bv ~width:64 pin));
  let result =
    match Solver.check solver with
    | Solver.Sat -> `Overlap (Solver.get_bv solver x)
    | Solver.Unsat _ -> `Disjoint
    | Solver.Unknown -> `Inconclusive
  in
  Solver.pop solver;
  result

(* Memory consistency (formula (7)): every ordered pair of distinct regions
   must be disjoint.

   Two strategies share the SMT confirmation step:
   - [`Pairwise]: all n(n-1)/2 pairs go to the solver — the paper-faithful
     formulation of (7);
   - [`Sweep] (default): regions sorted by base address; only pairs whose
     intervals can intersect under the sort order are confirmed by the
     solver.  For k collisions this does O(n log n + k) solver calls
     instead of O(n^2).  Both run incrementally on one solver instance and
     agree on their verdicts (asserted by the test suite and benched as an
     ablation). *)
let candidate_pairs regions =
    let arr = Array.of_list regions in
    Array.sort
      (fun a b -> Int64.unsigned_compare a.region.Addr.base b.region.Addr.base)
      arr;
    let n = Array.length arr in
    let out = ref [] in
    for i = 0 to n - 1 do
      let a = arr.(i) in
      let a_end = Int64.add a.region.Addr.base a.region.Addr.size in
      let a_wraps =
        Int64.unsigned_compare a_end a.region.Addr.base < 0 || Int64.equal a_end 0L
      in
      let j = ref (i + 1) in
      let continue = ref true in
      while !continue && !j < n do
        let b = arr.(!j) in
        (* Sorted by base: once b.base >= a_end, no later region can
           intersect a (unless a wraps to the top of the address space). *)
        if (not a_wraps) && Int64.unsigned_compare b.region.Addr.base a_end >= 0 then
          continue := false
        else begin
          out := (a, b) :: !out;
          incr j
        end
      done
    done;
    List.rev !out

let all_pairs regions =
  let rec pairs = function
    | [] -> []
    | r :: rest -> List.map (fun r' -> (r, r')) rest @ pairs rest
  in
  pairs regions

let check_memory ?solver ?(strategy = `Sweep) tree =
  let solver = match solver with Some s -> s | None -> Solver.create () in
  let regions = collect_regions tree in
  let pairs =
    match strategy with `Sweep -> candidate_pairs regions | `Pairwise -> all_pairs regions
  in
  List.filter_map
    (fun (a, b) ->
      (* Canonical pair order, so both strategies report identically. *)
      let a, b =
        if
          Int64.unsigned_compare a.region.Addr.base b.region.Addr.base < 0
          || (Int64.equal a.region.Addr.base b.region.Addr.base
             && String.compare a.owner b.owner <= 0)
        then (a, b)
        else (b, a)
      in
      match pair_overlap solver a b with
      | `Disjoint -> None
      | `Overlap witness ->
        Some
          (Report.finding ~checker:"semantic" ~node_path:a.owner ~loc:a.loc
             "memory regions collide: %s %a overlaps %s %a at address 0x%Lx" a.owner
             Addr.pp_region a.region b.owner Addr.pp_region b.region witness)
      | `Inconclusive ->
        Some
          (Report.finding ~severity:Report.Warning ~checker:"semantic"
             ~node_path:a.owner ~loc:a.loc
             "inconclusive: solver budget exhausted while checking %s %a against %s %a"
             a.owner Addr.pp_region a.region b.owner Addr.pp_region b.region))
    pairs

(* --- interrupts ----------------------------------------------------------------- *)

(* Interrupt-line uniqueness: two devices whose specifiers resolve to the
   same interrupt parent may not claim the same specifier.  Resolution
   (interrupt-parent inheritance, #interrupt-cells, interrupts-extended) is
   [Devicetree.Interrupts]; uniqueness is discharged as a Distinct
   constraint, so the solver (not ad-hoc code) rejects double-booked
   lines. *)
let check_interrupts ?solver tree =
  let solver = match solver with Some s -> s | None -> Solver.create () in
  match Devicetree.Interrupts.specs (T.resolve_phandles tree) with
  | exception Devicetree.Interrupts.Error (msg, loc) ->
    [ Report.finding ~checker:"semantic" ~node_path:"/" ~loc "interrupt topology: %s" msg ]
  | all_specs ->
    (* Disabled devices claim no interrupt lines. *)
    let specs =
      List.filter
        (fun s -> is_enabled tree s.Devicetree.Interrupts.device)
        all_specs
    in
    let controllers =
      List.sort_uniq String.compare
        (List.map (fun s -> s.Devicetree.Interrupts.controller) specs)
    in
    List.concat_map
      (fun controller ->
        let claims =
          List.filter (fun s -> String.equal s.Devicetree.Interrupts.controller controller) specs
        in
        if List.length claims < 2 then []
        else begin
          Solver.push solver;
          (* Each device's specifier is fixed by an obligation; Distinct is
             the rule.  Devices may raise several interrupts; key each. *)
          let keyed =
            List.mapi
              (fun i s ->
                (Printf.sprintf "%s#%d" s.Devicetree.Interrupts.device i, s))
              claims
          in
          List.iter
            (fun (key, s) ->
              Solver.assert_named solver ("irq@" ^ key)
                (Term.eq
                   (Term.bv_var ("irq|" ^ key) ~width:64)
                   (Term.bv ~width:64 (Devicetree.Interrupts.spec_key s))))
            keyed;
          Solver.assert_named solver "irq-distinct"
            (Term.distinct
               (List.map (fun (key, _) -> Term.bv_var ("irq|" ^ key) ~width:64) keyed));
          let findings =
            match Solver.check solver with
            | Solver.Sat -> []
            | Solver.Unknown ->
              let s = snd (List.hd keyed) in
              [ Report.finding ~severity:Report.Warning ~checker:"semantic"
                  ~node_path:s.Devicetree.Interrupts.device
                  ~loc:s.Devicetree.Interrupts.loc
                  "inconclusive: solver budget exhausted while checking interrupt \
                   uniqueness on controller %s"
                  controller
              ]
            | Solver.Unsat core ->
              let offenders =
                List.filter_map
                  (fun name ->
                    if String.length name > 4 && String.sub name 0 4 = "irq@" then
                      Some (String.sub name 4 (String.length name - 4))
                    else None)
                  core
              in
              let colliding = List.filter (fun (key, _) -> List.mem key offenders) keyed in
              (match colliding with
               | (_, s) :: _ ->
                 let device_names =
                   List.sort_uniq String.compare
                     (List.map (fun (_, s) -> s.Devicetree.Interrupts.device) colliding)
                 in
                 [ Report.finding ~checker:"semantic" ~node_path:s.Devicetree.Interrupts.device
                     ~loc:s.Devicetree.Interrupts.loc ~core
                     "interrupt %a of controller %s claimed by multiple devices: %s"
                     Fmt.(list ~sep:(any " ") (fmt "%Ld"))
                     s.Devicetree.Interrupts.cells controller
                     (String.concat ", " device_names)
                 ]
               | [] -> [])
          in
          Solver.pop solver;
          findings
        end)
      controllers

(* --- truncation lint (§IV-C) ------------------------------------------------------- *)

(* When a 64-bit reg (written under #address-cells = #size-cells = 2) is
   reinterpreted under 32-bit cells, the high half of every value becomes a
   separate (base, size) entry; typical symptoms are zero-sized banks or a
   doubled bank count with zero high cells.  dt-schema cannot see this (any
   multiple of the cell sum validates); we flag it as a warning. *)
let check_truncation tree =
  List.concat_map
    (fun (nr : Addr.node_regions) ->
      if not nr.Addr.translated then [] (* cpu ids and bus-private regs are not addresses *)
      else
      let zero_sized = List.filter (fun r -> Int64.equal r.Addr.size 0L) nr.Addr.regions in
      let duplicated_bases =
        let bases = List.map (fun r -> r.Addr.base) nr.Addr.regions in
        List.sort_uniq Int64.compare
          (List.filter
             (fun b -> List.length (List.filter (Int64.equal b) bases) > 1)
             bases)
      in
      let warn fmt =
        Report.finding ~severity:Report.Warning ~checker:"semantic" ~node_path:nr.Addr.path
          ~loc:nr.Addr.reg_loc fmt
      in
      (if zero_sized = [] then []
       else
         [ warn
             "%d zero-sized memory region(s); reg may have been written for a wider #address-cells/#size-cells context (64->32-bit truncation)"
             (List.length zero_sized)
         ])
      @
      if duplicated_bases = [] then []
      else
        [ warn
            "multiple regions share base address 0x%Lx; the high halves of 64-bit values read as separate entries under 32-bit cells (64->32-bit truncation)"
            (List.hd duplicated_bases)
        ])
    (Addr.regions_in_root_space tree)

(* --- unit-address lints -------------------------------------------------------- *)

(* dtc-style lints relating a node's unit address to its reg: siblings with
   the same unit address, and a unit address disagreeing with the first reg
   base (both warnings; both syntactically fine, both routinely wrong). *)
let check_unit_addresses tree =
  let rec walk node path acc =
    let acc =
      (* Duplicate unit addresses among siblings. *)
      let addrs =
        List.filter_map
          (fun (c : T.t) ->
            Option.map (fun a -> (a, c.T.name)) (Devicetree.Ast.unit_address c.T.name))
          node.T.children
      in
      List.fold_left
        (fun acc (addr, name) ->
          let dups = List.filter (fun (a, n) -> a = addr && n <> name) addrs in
          if dups = [] then acc
          else
            let other = snd (List.hd dups) in
            if String.compare name other < 0 then
              Report.finding ~severity:Report.Warning ~checker:"semantic"
                ~node_path:(T.join_path path name) ~loc:node.T.loc
                "unit address @%s duplicated by sibling %s" addr other
              :: acc
            else acc)
        acc addrs
    in
    let ac = Addr.address_cells node and sc = Addr.size_cells node in
    let acc =
      List.fold_left
        (fun acc (c : T.t) ->
          match (Devicetree.Ast.unit_address c.T.name, T.get_prop c "reg") with
          | Some addr, Some reg -> begin
            match
              (Int64.of_string_opt ("0x" ^ addr),
               Addr.decode_reg ~address_cells:ac ~size_cells:sc reg)
            with
            | Some unit_addr, { Addr.base; _ } :: _ when not (Int64.equal unit_addr base) ->
              Report.finding ~severity:Report.Warning ~checker:"semantic"
                ~node_path:(T.join_path path c.T.name) ~loc:reg.T.p_loc
                "unit address @%s does not match the first reg base 0x%Lx" addr base
              :: acc
            | _ -> acc
            | exception Addr.Error _ -> acc
          end
          | _ -> acc)
        acc node.T.children
    in
    List.fold_left
      (fun acc c -> walk c (T.join_path path c.T.name) acc)
      acc node.T.children
  in
  List.rev (walk tree "/" [])

(* All semantic checks on one incremental solver instance.  When we own the
   solver, [certify] certifies every verdict and appends an error finding
   per uncertified query (see Report.cert_findings). *)
let check ?solver ?(certify = false) tree =
  let owned = solver = None in
  let solver =
    match solver with Some s -> s | None -> Solver.create ~certify ()
  in
  let findings =
    check_memory ~solver tree @ check_interrupts ~solver tree
    @ check_truncation tree @ check_unit_addresses tree
  in
  if owned && certify then
    findings @ Report.cert_findings (Solver.cert_report solver)
  else findings
