(** Inter-VM partitioning checks across the generated products: CPU
    exclusivity (error), RAM disjointness across VMs (warning — the
    paper's running example shares both banks), pass-through device
    sharing (warning), and containment of every VM region in the platform
    (error).  Overlap/containment are discharged on the bit-vector
    solver. *)

(** [check ?solver ~platform vms] with [vms] the named per-VM trees, on a
    fresh solver unless [solver] is given. *)
val check :
  ?solver:Smt.Solver.t ->
  platform:Devicetree.Tree.t ->
  (string * Devicetree.Tree.t) list ->
  Report.finding list
