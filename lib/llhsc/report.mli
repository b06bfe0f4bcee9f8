(** Unified findings produced by the llhsc checkers, with enough context to
    trace each back to the DTS node (and, through the pipeline, to the delta
    module) that caused it. *)

type severity = Error | Warning | Info

type finding = {
  severity : severity;
  checker : string; (** "alloc" | "syntactic" | "semantic" | "delta" *)
  node_path : string;
  message : string;
  loc : Devicetree.Loc.t;
  core : string list; (** unsat-core rule names for SMT-based checkers *)
}

(** Build a finding with a formatted message (default severity [Error]). *)
val finding :
  ?severity:severity ->
  ?core:string list ->
  ?loc:Devicetree.Loc.t ->
  checker:string ->
  node_path:string ->
  ('a, Format.formatter, unit, finding) format4 ->
  'a

val pp_severity : Format.formatter -> severity -> unit
val pp : Format.formatter -> finding -> unit

(** Only the [Error]-severity findings. *)
val errors : finding list -> finding list

(** No errors (warnings allowed)? *)
val is_clean : finding list -> bool

(** Per-query certificate stats (verdict, trace length, check time) plus a
    one-line summary. *)
val pp_cert : Format.formatter -> Smt.Solver.cert_report -> unit

(** Escalation-ladder statistics: one summary line plus, per retried
    query, its full attempt log (scale, seed, polarity, result,
    conflicts, time). *)
val pp_retry : Format.formatter -> Smt.Solver.retry_report -> unit
