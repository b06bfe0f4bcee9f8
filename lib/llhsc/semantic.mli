(** The semantic checker (§IV-C): properties no purely syntactic tool can
    express, discharged on the bit-vector solver.

    - memory consistency (formula (7)): no two memory-mapped regions of the
      tree intersect; a SAT answer yields the collision witness address;
    - interrupt-line uniqueness per interrupt parent (Distinct constraint);
    - a 64->32-bit #address-cells truncation lint. *)

type region_at = {
  owner : string; (** node path *)
  region : Devicetree.Addresses.region;
  loc : Devicetree.Loc.t;
}

(** Is this node enabled (no [status] property, or "okay"/"ok")?  Disabled
    devices claim no resources. *)
val is_enabled : Devicetree.Tree.t -> string -> bool

(** Regions participating in the overlap check: decoded under the correct
    cell context, translated to the root address space; bus-private regs
    (e.g. cpu ids), zero-sized regions and disabled nodes are excluded. *)
val collect_regions : Devicetree.Tree.t -> region_at list

(** [contains ~x r] — the term "address x lies in [base, base+size)".
    Region ends are computed on constants with explicit wrap handling. *)
val contains : x:Smt.Term.t -> Devicetree.Addresses.region -> Smt.Term.t

(** Does this pair of regions intersect?  [`Overlap w] carries the witness
    address (pinned to [max base_a base_b]); [`Inconclusive] means the
    solver's resource budget ran out before a verdict.  Runs in its own
    solver scope, so one incremental solver serves many queries. *)
val pair_overlap :
  Smt.Solver.t ->
  region_at ->
  region_at ->
  [ `Overlap of int64 | `Disjoint | `Inconclusive ]

(** Memory consistency of a whole tree (formula (7)); one finding per
    colliding pair.  [solver] defaults to a fresh instance.  [strategy]
    selects the paper-faithful all-pairs formulation ([`Pairwise]) or the
    sweep-line prefilter ([`Sweep], default) that only sends candidate
    pairs to the solver; both give identical verdicts. *)
val check_memory :
  ?solver:Smt.Solver.t ->
  ?strategy:[ `Sweep | `Pairwise ] ->
  Devicetree.Tree.t ->
  Report.finding list

(** Interrupt-line uniqueness per interrupt parent. *)
val check_interrupts : ?solver:Smt.Solver.t -> Devicetree.Tree.t -> Report.finding list

(** Truncation lint: zero-sized regions and duplicated bases, the symptoms
    of reading 64-bit reg values under 32-bit cells (warnings). *)
val check_truncation : Devicetree.Tree.t -> Report.finding list

(** dtc-style unit-address lints: duplicate unit addresses among siblings,
    and a unit address disagreeing with the node's first reg base
    (warnings). *)
val check_unit_addresses : Devicetree.Tree.t -> Report.finding list

(** All semantic checks on one incremental solver instance, a fresh one
    unless [solver] is given. *)
val check : ?solver:Smt.Solver.t -> Devicetree.Tree.t -> Report.finding list
