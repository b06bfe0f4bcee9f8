(** Structured diagnostics: the single error currency of the llhsc
    pipeline.

    Every layer of the checker historically defined its own [exception
    Error of ...]; a missed branch in the CLI's handler crashed the whole
    run with a raw backtrace.  This module gives each failure a severity, a
    stable machine-readable code, an optional source location and a
    human-readable message — and, crucially, one place ({!of_exn}) where
    the whole zoo of per-module exceptions is converted, so the conversion
    list cannot drift out of sync with the modules again. *)

type severity = Error | Warning | Info

(** Raised when an installed resource guard trips (e.g. the worker pool's
    [RLIMIT_CPU] SIGXCPU handler).  Converted by {!of_exn} into an
    [error[RESOURCE]] diagnostic at every isolation boundary. *)
exception Resource_limit of string

type t = {
  severity : severity;
  code : string;  (** stable, e.g. ["DT-PARSE"], ["SMT-SORT"], ["IO"] *)
  message : string;
  loc : Devicetree.Loc.t option;
}

(** Every diagnostic of one bad input, such as a DTS whose parse
    recovered past several errors.  The CLI prints them all; {!of_exn}
    keeps the first. *)
exception Errors of t list

(** Build a diagnostic with a formatted message (default severity
    [Error]). *)
val make :
  ?severity:severity ->
  ?loc:Devicetree.Loc.t ->
  code:string ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

(** A DTS parse error as reported by the recovering parser. *)
val parse_error : string * Devicetree.Loc.t -> t

(** [error[CODE]: file:line:col: message] (location omitted when absent). *)
val pp : Format.formatter -> t -> unit

val is_error : t -> bool

(** Convert any known llhsc exception into a diagnostic; [None] for
    exceptions the pipeline does not own, which should keep propagating.
    This is the exhaustive catalogue of every [exception Error] in the
    libraries plus the runtime escape hatches ([Sys_error], [Failure],
    [Invalid_argument], [Not_found], [Stack_overflow]) that would
    otherwise crash the CLI.  {!Resource_limit} and [Out_of_memory] map
    to [error[RESOURCE]]: a tripped rlimit guard degrades to a per-task
    diagnostic instead of killing the checker. *)
val of_exn : exn -> t option
