(** The one description of a pipeline run.

    A spec holds the raw bytes of every file the run's parser read
    (core DTS, every [/include/]d file, deltas, feature model, schemas)
    plus its verdict-affecting flags, as one JSON value.  [pipeline] and
    [dispatch] both build it with {!load}; {!hash} keys the product
    journal (with [skip = []]) and stamps every fleet protocol message.
    Closures cannot cross a socket, so fleet mode ships this spec: a
    worker parses the shipped texts exactly as the CLI parsed the files
    (keeping the original file-name strings, so diagnostic locations
    match byte-for-byte) and replans with [Pipeline.plan_tasks] —
    deterministic in these inputs — to obtain a task array identical to
    the dispatcher's. *)

type input = { file : string; text : string }

type t = {
  core : input;
  deltas : input;
  model : string;  (** feature model source text *)
  schemas : string list;  (** schema texts, pre-sorted by file name *)
  files : (string * string) list;
      (** every [/include/]d file, nested ones too, under its literal
          include name, in the order the parser first read it *)
  vms : string list list;
  exclusive : string list;
  certify : bool;
  retry : int option;
  max_conflicts : int option;
  solver_timeout : float option;
  unsound : string option;
  skip : string list;
      (** products the dispatcher replayed from its resume journal;
          workers plan them as no-work products (see
          [Pipeline.plan_tasks]) *)
}

(** Wire encoding: the canonical JSON rendering. *)
val to_wire : t -> Llhsc.Json.t

(** [None] on a structurally invalid encoding. *)
val of_wire : Llhsc.Json.t -> t option

(** Digest of the canonical JSON rendering: the run's identity. *)
val hash : t -> string

(** The arguments [Pipeline.run] and [Pipeline.plan_tasks] share. *)
type 'a pipeline =
  ?exclusive:string list ->
  ?budget:Sat.Solver.budget ->
  ?certify:bool ->
  ?retry:Smt.Escalation.t ->
  ?unsound:Sat.Solver.unsound_mutation ->
  model:Featuremodel.Model.t ->
  core:Devicetree.Tree.t ->
  deltas:Delta.Lang.t list ->
  schemas_for:(Devicetree.Tree.t -> Schema.Binding.t list) ->
  vm_requests:string list list ->
  unit ->
  'a

(** [load ~core ~deltas ~model ~schemas ...] — the spec of a run on these
    files ([skip = []]) and the function that applies its [Pipeline]
    arguments.

    Reads the core, deltas, feature model and each schema file once, in
    that order, then parses them in the same order.  An [/include/]
    resolves against the core's directory and the spec records the file
    under its literal include name, so {!hash} covers every byte the
    verdict depends on and nothing else.  The flags ([--retry],
    [--unsound], the budget) are decoded when the returned function is
    applied, after anything the caller does between the two calls.

    Raises [Sys_error] on an unreadable file, {!Diag.Errors} with every
    parse error of a core that does not parse, and the parsers' own
    exceptions for a bad deltas, model or schema file. *)
val load :
  core:string ->
  deltas:string ->
  model:string ->
  schemas:string list ->
  vms:string list list ->
  exclusive:string list ->
  certify:bool ->
  retry:int option ->
  max_conflicts:int option ->
  solver_timeout:float option ->
  unsound:string option ->
  t * ('a pipeline -> 'a)

(** Parse the shipped inputs (the same parse as {!load}, with
    [/include/]s looked up in [files]) and rebuild the dispatcher's task
    array.  [Error msg] when the texts do not parse or a flag is
    malformed — version skew or corruption, since the dispatcher parsed
    the same bytes successfully. *)
val build : t -> (Llhsc.Shard.task array, string) result
