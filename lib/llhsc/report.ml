(* Unified findings produced by the llhsc checkers.  Every finding carries
   enough context to trace it back to the DTS node (and, through the
   pipeline, to the delta module) that caused it. *)

type severity = Error | Warning | Info

type finding = {
  severity : severity;
  checker : string; (* "alloc" | "syntactic" | "semantic" *)
  node_path : string;
  message : string;
  loc : Devicetree.Loc.t;
  core : string list; (* unsat-core rule names, when the checker is SMT-based *)
}

let finding ?(severity = Error) ?(core = []) ?(loc = Devicetree.Loc.dummy) ~checker ~node_path
    fmt =
  Fmt.kstr (fun message -> { severity; checker; node_path; message; loc; core }) fmt

let pp_severity ppf = function
  | Error -> Fmt.string ppf "error"
  | Warning -> Fmt.string ppf "warning"
  | Info -> Fmt.string ppf "info"

let pp ppf f =
  Fmt.pf ppf "[%a] %s: %s: %s" pp_severity f.severity f.checker f.node_path f.message;
  if f.core <> [] then Fmt.pf ppf " (core: %s)" (String.concat "; " f.core)

let errors findings = List.filter (fun f -> f.severity = Error) findings
let is_clean findings = errors findings = []

(* --- certification ------------------------------------------------------- *)

let pp_retry ppf (r : Smt.Solver.retry_report) =
  let recovered =
    List.filter (fun (e : Smt.Solver.retry_entry) -> e.recovered) r.retried
  in
  Fmt.pf ppf "escalation: %d/%d queries retried, %d recovered"
    (List.length r.Smt.Solver.retried)
    r.Smt.Solver.total_queries (List.length recovered);
  List.iter
    (fun (e : Smt.Solver.retry_entry) ->
      Fmt.pf ppf "@.  query %d:%s" e.rquery
        (if e.recovered then "" else " (exhausted ladder)");
      (* Per-attempt wall-clock is deliberately not printed: the rendered
         report must be byte-identical across runs (and across [--jobs]
         counts); timings stay available in the data record. *)
      List.iter
        (fun (a : Smt.Solver.attempt) ->
          Fmt.pf ppf "@.    attempt %d (x%d%s, polarity %a): %s, %d conflicts"
            a.attempt a.scale
            (match a.seed with
             | Some s -> Fmt.str ", seed %#x" s
             | None -> "")
            Smt.Escalation.pp_polarity a.polarity
            (match a.result with
             | `Sat -> "sat"
             | `Unsat -> "unsat"
             | `Unknown -> "unknown")
            a.conflicts)
        e.attempts)
    r.Smt.Solver.retried

(* Like [pp_retry], wall-clock stays out of the rendered report so it is
   byte-stable; [cert.time] remains in the record for tooling. *)
let pp_cert ppf (r : Smt.Solver.cert_report) =
  let certs = r.Smt.Solver.certs in
  let failures = List.length r.Smt.Solver.failures in
  Fmt.pf ppf "certification: %d queries certified, %d failures"
    (List.length certs) failures;
  List.iter
    (fun (c : Smt.Solver.cert) ->
      Fmt.pf ppf "@.  query %d: %s, trace %d steps%s" c.Smt.Solver.query
        (match c.Smt.Solver.verdict with `Sat -> "sat" | `Unsat -> "unsat")
        c.Smt.Solver.steps
        (if c.Smt.Solver.ok then "" else " [FAILED]"))
    certs
