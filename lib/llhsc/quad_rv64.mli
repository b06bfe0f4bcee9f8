(** A second, larger case study: a quad-core RV64 SBC (two CPU clusters,
    four memory banks, two UARTs, virtio devices, GPIO, virtual network
    channels) partitioned into three VMs.  Exercises cluster extraction,
    PLIC interrupt topology, per-bank RAM partitioning and three-way
    exclusive allocation. *)

val core_dts : string
val core_tree : unit -> Devicetree.Tree.t
val feature_model_src : string
val feature_model : unit -> Featuremodel.Model.t
val deltas_src : string
val deltas : unit -> Delta.Lang.t list

(** Raw YAML sources of the binding schemas (one string per schema), for
    tooling that needs to materialise the fixture on disk. *)
val schemas_src : string list

val schemas_for : Devicetree.Tree.t -> Schema.Binding.t list

(** Three fully partitioned VM feature selections. *)
val vm1_features : string list

val vm2_features : string list
val vm3_features : string list

(** Exclusive resource groups: memory banks, CPUs, UARTs, virtio. *)
val exclusive : string list

(** The full Fig.-2 pipeline on this case study, in process;
    [~certify:true] certifies every solver verdict of the run.
    [?budget]/[?retry] bound and escalate solver work, and
    [?journal]/[?resume]/[?inputs_hash] thread crash-safe journaling
    through (see {!Pipeline.run}). *)
val run_pipeline :
  ?budget:Sat.Solver.budget ->
  ?certify:bool ->
  ?retry:Smt.Escalation.t ->
  ?inputs_hash:string ->
  ?journal:Journal.sink ->
  ?resume:Journal.entry list ->
  unit ->
  Pipeline.outcome
