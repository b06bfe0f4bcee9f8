(** The one description of a pipeline run.

    A spec holds the raw bytes of every file the run's parser reads
    (core DTS, every [/include/]d file, deltas, feature model, schemas)
    plus its verdict-affecting flags, as one JSON value.  Every front
    door builds one: [pipeline] and [dispatch] with {!load}, [build]
    with {!of_project}, a served [/v1/pipeline] job with {!of_request}.
    {!hash} keys the product journal (with [skip = []]) and stamps every
    fleet protocol message.  Closures cannot cross a socket, so fleet
    mode ships this spec: a worker parses the shipped texts exactly as
    the CLI parsed the files (keeping the original file-name strings, so
    diagnostic locations match byte-for-byte) and replans with
    [Pipeline.plan_tasks] — deterministic in these inputs — to obtain a
    task array identical to the dispatcher's. *)

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

(** How a run executes beside what it checks: the local worker pool's
    [Pipeline.run] settings.  None of them changes a report byte.
    [task_deadline] is the explicit per-task lease; the runner derives
    one from [solver_timeout] when it is [None]. *)
type pool = {
  jobs : int;
  task_deadline : float option;
  max_respawns : int;
  mem_limit : int option;
  cpu_limit : int option;
}

(** One job, no deadline, 8 respawns, no resource guards. *)
val default_pool : pool

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

(** [parse_tree ~loader ~file text] builds the tree of a DTS source,
    raising {!Diag.Errors} with every syntax and merge error it has;
    [loader] resolves its [/include/]s. *)
val parse_tree :
  loader:(string -> string option) -> file:string -> string -> Devicetree.Tree.t

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

(** The [.yaml]/[.yml] files of a [--schemas] directory, in name order. *)
val schema_files : string option -> string list

(** [of_project path] loads the run a project file describes, as
    {!load} does, plus its pool ([jobs:]) and its [output:] directory.
    Paths resolve against the project file's directory.  The core and
    the output keep the resolved path as their name, each delta file the
    name written in the project.  [deltas:] may list several files:
    each parses under its own name, and the spec's one delta input holds
    their texts joined by newlines under the first one's name.  Such a
    spec no longer describes its run, so it must not be shipped,
    journaled or rebuilt: {!pipeline} and {!build} would parse the
    joined text under the first name, and two splits of the same bytes
    share a {!hash}.  Only the returned function runs it.  Raises
    [Failure] on a missing or malformed key, and as {!load} does. *)
val of_project : string -> t * pool * string option * ('a pipeline -> 'a)

(** The [Pipeline] arguments of a shipped spec: its texts parsed as
    {!load} parses them, with [/include/]s looked up by name in [files]
    and nowhere else.  Raises as {!load} does on inputs that do not
    parse. *)
val pipeline : t -> 'a pipeline -> 'a

(** A name a served request may give a file: 1-64 characters of
    [A-Za-z0-9._-], not starting with a dot. *)
val safe_name : string -> bool

(** [of_request ~max_jobs body] decodes a [POST /v1/pipeline] body: the
    inputs ([core], [deltas], [model], the [schemas] and [files]
    objects of name -> contents), [vms], [exclusive], [certify] and the
    positive integers [retry], [max_conflicts], [solver_timeout]; and
    the pool's [jobs] (clamped to [max_jobs]), [mem_limit] and
    [cpu_limit].  The job sees the names a served job always saw:
    [core.dts], [board.deltas] and each [files] entry's name.
    [Error reason] refuses the body. *)
val of_request : max_jobs:int -> string -> (t * pool, string) result

(** Parse the shipped inputs (as {!pipeline} does) and rebuild the
    dispatcher's task array.  [Error msg] when the texts do not parse or
    a flag is malformed — version skew or corruption, since the
    dispatcher parsed the same bytes successfully. *)
val build : t -> (Llhsc.Shard.task array, string) result
