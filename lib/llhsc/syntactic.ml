(* The syntactic checker (§IV-B): dt-schema-style constraints discharged on
   the SMT solver, reported as findings with their unsat cores.

   [check] runs the constraint-based checker; [check_direct] runs the
   procedural dt-schema baseline.  The two agree on pass/fail per node (a
   property exercised by the test suite); the SMT route additionally yields
   cores that name the conflicting rules, and extends to the cross-cutting
   checks dt-schema cannot express. *)

module T = Devicetree.Tree

(* Human-readable message for a failing node given its unsat core. *)
let summarize_core core =
  let interesting =
    List.filter
      (fun rule ->
        (* Obligations ("value", "count", "covered", ...) state facts about
           the binding; the schema rules are the actionable part. *)
        not
          (List.exists
             (fun k -> Util.contains rule (":" ^ k ^ ":"))
             [ "value"; "count"; "cell-count"; "covered"; "closure"; "node"; "node-presence"; "value-cell"; "value-cell0" ]))
      core
  in
  match interesting with [] -> core | _ -> interesting

type obligation = string * T.t * Schema.Binding.t

let obligations ~schemas tree =
  List.concat_map
    (fun (path, node, applicable) ->
      List.map (fun schema -> (path, node, schema)) applicable)
    (Schema.Binding.applicable schemas tree)

let check_obligations ?(solver = Smt.Solver.create ()) ?(product = "") obls =
  (* Scope all symbols by the product name so several products can share one
     incremental solver instance. *)
  let prefix path = if product = "" then path else product ^ ":" ^ path in
  List.concat_map
    (fun (path, node, schema) ->
      match Schema.Compile.check_node solver ~schema ~path:(prefix path) node with
      | `Valid -> []
      | `Invalid core ->
        [ Report.finding ~checker:"syntactic" ~node_path:path ~loc:node.T.loc ~core
            "node violates schema %s: %s" schema.Schema.Binding.id
            (String.concat "; " (summarize_core core))
        ]
      | `Inconclusive ->
        [ Report.finding ~severity:Report.Warning ~checker:"syntactic"
            ~node_path:path ~loc:node.T.loc
            "inconclusive: solver budget exhausted while checking schema %s"
            schema.Schema.Binding.id
        ])
    obls

let check ?solver ~schemas ?product tree =
  check_obligations ?solver ?product (obligations ~schemas tree)

(* The dt-schema baseline: same judgements, no solver, no cores. *)
let check_direct ~schemas tree =
  List.map
    (fun (v : Schema.Validate.violation) ->
      Report.finding ~checker:"syntactic" ~node_path:v.Schema.Validate.node_path
        ~loc:v.Schema.Validate.loc "%s [%s]" v.Schema.Validate.message v.Schema.Validate.rule)
    (Schema.Validate.check schemas tree)
