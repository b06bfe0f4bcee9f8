(** The shippable description of one pipeline run.

    Closures cannot cross a socket, so fleet mode ships {e inputs}: the
    raw bytes of every file the run depends on plus its verdict-affecting
    flags, as one JSON value.  A worker feeds the shipped texts through
    the same parsers the CLI uses on the original files (keeping the
    original file-name strings, so diagnostic locations match
    byte-for-byte) and replans with [Pipeline.plan_tasks] — deterministic
    in these inputs — to obtain a task array identical to the
    dispatcher's.  {!hash} digests the canonical JSON rendering and rides
    on every protocol message as proof both sides planned the same run. *)

type input = { file : string; text : string }

type t = {
  core : input;
  deltas : input;
  model : string;  (** feature model source text *)
  schemas : string list;  (** schema texts, pre-sorted by file name *)
  files : (string * string) list;  (** /include/ name -> contents *)
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

val to_json : t -> Llhsc.Json.t

(** [None] on a structurally invalid encoding. *)
val of_json : Llhsc.Json.t -> t option

(** Digest of the canonical JSON rendering; the protocol's spec identity. *)
val hash : t -> string

(** Wire encoding: the canonical JSON ({!to_json}). *)
val to_wire : t -> Llhsc.Json.t

(** {!of_json}: [None] on a structurally invalid encoding. *)
val of_wire : Llhsc.Json.t -> t option

(** Parse the shipped inputs and rebuild the dispatcher's task array.
    [Error msg] when the texts do not parse or a flag is malformed —
    version skew or corruption, since the dispatcher parsed the same
    bytes successfully. *)
val build : t -> (Llhsc.Shard.task array, string) result
