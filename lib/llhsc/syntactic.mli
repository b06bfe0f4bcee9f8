(** The syntactic checker (§IV-B): dt-schema-style constraints discharged on
    the SMT solver ({!check}), and the procedural dt-schema baseline
    ({!check_direct}).  Both agree on pass/fail per node; the SMT route
    additionally yields unsat cores naming the conflicting rules. *)

(** Keep the actionable (schema-rule) entries of a core, dropping the
    obligations stating facts about the binding. *)
val summarize_core : string list -> string list

(** One unit of syntactic checking: a (node path, node, schema) pair whose
    verdict is independent of every other obligation — the property the
    pipeline's worker pool relies on to shard a product's check. *)
type obligation = string * Devicetree.Tree.t * Schema.Binding.t

(** All applicable node/schema pairs of a tree, in preorder (the order
    {!check} discharges them). *)
val obligations :
  schemas:Schema.Binding.t list -> Devicetree.Tree.t -> obligation list

(** Check an explicit slice of obligations; findings come back in slice
    order.  Same solver-ownership contract as {!check}. *)
val check_obligations :
  ?solver:Smt.Solver.t ->
  ?product:string ->
  obligation list ->
  Report.finding list

(** [check ?solver ~schemas ?product tree] checks every applicable
    node/schema pair, on a fresh solver unless one is given.  [product]
    prefixes solver symbols so several products can share one incremental
    solver.  A caller that certifies passes a certifying [solver] and reads
    its {!Smt.Solver.cert_report}. *)
val check :
  ?solver:Smt.Solver.t ->
  schemas:Schema.Binding.t list ->
  ?product:string ->
  Devicetree.Tree.t ->
  Report.finding list

(** The dt-schema baseline: same judgements, no solver, no cores. *)
val check_direct :
  schemas:Schema.Binding.t list -> Devicetree.Tree.t -> Report.finding list
