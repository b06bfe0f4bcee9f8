(* Structured diagnostics and the one exhaustive exception-to-diagnostic
   conversion for the whole pipeline.  When a library gains a new
   [exception Error], add it to [of_exn] here; the CLI and the pipeline
   isolation both route through this function, so one addition covers every
   boundary. *)

type severity = Error | Warning | Info

(* Raised when an installed resource guard trips (a worker's RLIMIT_CPU
   SIGXCPU handler, an explicit quota check).  Owned here rather than by
   the pool so every isolation boundary that already routes through
   [of_exn] converts it to an [error[RESOURCE]] diagnostic for free. *)
exception Resource_limit of string

type t = {
  severity : severity;
  code : string;
  message : string;
  loc : Devicetree.Loc.t option;
}

exception Errors of t list

let make ?(severity = Error) ?loc ~code fmt =
  Fmt.kstr (fun message -> { severity; code; message; loc }) fmt

let parse_error (msg, loc) = make ~code:"DT-PARSE" ~loc "%s" msg

let pp_severity ppf = function
  | Error -> Fmt.string ppf "error"
  | Warning -> Fmt.string ppf "warning"
  | Info -> Fmt.string ppf "info"

let pp ppf d =
  match d.loc with
  | Some loc ->
    Fmt.pf ppf "%a[%s]: %a: %s" pp_severity d.severity d.code Devicetree.Loc.pp loc
      d.message
  | None -> Fmt.pf ppf "%a[%s]: %s" pp_severity d.severity d.code d.message

let is_error d = d.severity = Error

let of_exn exn =
  let at ?loc code fmt = Fmt.kstr (fun m -> Some (make ?loc ~code "%s" m)) fmt in
  match exn with
  | Errors (d :: _) -> Some d
  (* devicetree *)
  | Devicetree.Lexer.Error (msg, loc) -> at ~loc "DT-LEX" "%s" msg
  | Devicetree.Parser.Error (msg, loc) -> at ~loc "DT-PARSE" "%s" msg
  | Devicetree.Tree.Error (msg, loc) -> at ~loc "DT-TREE" "%s" msg
  | Devicetree.Addresses.Error (msg, loc) -> at ~loc "DT-ADDR" "%s" msg
  | Devicetree.Interrupts.Error (msg, loc) -> at ~loc "DT-IRQ" "%s" msg
  | Devicetree.Overlay.Error (msg, loc) -> at ~loc "DT-OVERLAY" "%s" msg
  | Devicetree.Fdt.Error msg -> at "DT-FDT" "%s" msg
  (* delta language *)
  | Delta.Parse.Error (msg, loc) -> at ~loc "DELTA-PARSE" "%s" msg
  | Delta.Apply.Error e ->
    at ~loc:e.Delta.Apply.loc "DELTA-APPLY" "%s%s" e.Delta.Apply.message
      (match e.Delta.Apply.delta with
       | Some d -> Printf.sprintf " (delta %s)" d
       | None -> "")
  (* schemas *)
  | Schema.Binding.Error msg -> at "SCHEMA-BINDING" "%s" msg
  | Schema.Yaml_lite.Error (msg, line) -> at "YAML" "%s (line %d)" msg line
  (* feature models *)
  | Featuremodel.Parse.Error (msg, line) -> at "FM-PARSE" "%s (line %d)" msg line
  | Featuremodel.Model.Error msg -> at "FM-MODEL" "%s" msg
  | Featuremodel.Analysis.Error msg -> at "FM-ANALYSIS" "%s" msg
  | Featuremodel.Multi.Error msg -> at "FM-ALLOC" "%s" msg
  | Featuremodel.Configurator.Error msg -> at "FM-CONFIG" "%s" msg
  (* solvers *)
  | Sat.Dimacs.Error msg -> at "PARSE" "dimacs: %s" msg
  | Smt.Solver.Error msg -> at "SMT" "%s" msg
  | Smt.Interp.Eval_error msg -> at "SMT-EVAL" "%s" msg
  | Smt.Term.Sort_error msg -> at "SMT-SORT" "%s" msg
  (* hypervisor back end *)
  | Bao.Platform.Error msg -> at "BAO-PLATFORM" "%s" msg
  | Bao.Config.Error msg -> at "BAO-CONFIG" "%s" msg
  | Bao.Qemu.Error msg -> at "BAO-QEMU" "%s" msg
  | Bao.Cparse.Error msg -> at "BAO-CPARSE" "%s" msg
  (* runtime escape hatches: these indicate an internal bug, but the
     checker must degrade to a diagnostic, not a backtrace *)
  | Sys_error msg -> at "IO" "%s" msg
  (* disk errors that escape the fail-operational journal path (e.g. an
     atomic report write hitting ENOSPC) are input-environment errors *)
  | Unix.Unix_error (e, op, arg) ->
    at "IO" "%s%s: %s" op
      (if arg = "" then "" else " " ^ arg)
      (Unix.error_message e)
  | Failure msg -> at "FAIL" "%s" msg
  | Invalid_argument msg -> at "INTERNAL" "invalid argument: %s" msg
  | Not_found -> at "INTERNAL" "internal lookup failed (Not_found)"
  | Stack_overflow -> at "INTERNAL" "stack overflow (input too deeply nested?)"
  (* resource exhaustion: a tripped rlimit guard (or a genuine OOM) must
     degrade to a per-task diagnostic, not take the whole checker down *)
  | Resource_limit msg -> at "RESOURCE" "%s" msg
  | Out_of_memory -> at "RESOURCE" "out of memory (memory limit exceeded?)"
  | _ -> None
