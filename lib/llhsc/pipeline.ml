(* The end-to-end llhsc workflow (Fig. 2):

      feature model + per-VM requests
        └─ alloc checker (§IV-A) ─ completed products, platform product
      core DTS + delta modules
        └─ delta application per product (§III-B)
      generated DTSs
        └─ syntactic checker (§IV-B) + semantic checker (§IV-C)
      artifacts: checked VM DTSs + platform DTS (+ hypervisor configs,
      rendered by lib/bao from these trees)

   The check phase is sliced into independent tasks — fixed-size chunks of
   a product's syntactic obligations plus one semantic task per product —
   and every task starts from a fresh solver's state (its SAT tables may
   be a released solver's, cleared).  [?jobs] dispatches the
   task list across a supervised pool of forked workers (see {!Shard}:
   leases, deadlines, reassignment, respawn, rlimit guards); because the
   slicing, the per-task solvers and the canonical merge order are all
   independent of the job count AND of the crash/reassignment schedule, a
   [--jobs N] report is byte-identical to a sequential one even when
   workers are killed or hang mid-run.  The parent keeps everything
   stateful: allocation, delta
   application, the journal, and the cross-VM partition check (which needs
   every product's tree and runs after the merge barrier).

   Each phase runs under an isolation guard: an error while building or
   checking one product is converted to a diagnostic so the remaining
   products are still checked. *)

module T = Devicetree.Tree

type product = {
  name : string;            (* "vm1", "vm2", ..., "platform" *)
  features : string list;   (* the product's concrete features *)
  tree : T.t;
  findings : Report.finding list;
}

type outcome = {
  products : product list;
  alloc_findings : Report.finding list;
  partition_findings : Report.finding list; (* cross-VM checks *)
  delta_orders : (string * string list) list; (* product -> application order *)
  errors : Diag.t list; (* per-phase failures that did not abort the run *)
  cert : Smt.Solver.cert_report option; (* Some iff the run certified *)
  retry : Smt.Solver.retry_report option; (* Some iff a retry policy ran *)
  replayed : string list; (* products whose verdicts came from the journal *)
  journal_fault : string option; (* journal degraded mid-run: reason *)
}

let ok outcome =
  outcome.errors = []
  && Report.is_clean outcome.alloc_findings
  && Report.is_clean outcome.partition_findings
  && List.for_all (fun p -> Report.is_clean p.findings) outcome.products
  && (match outcome.cert with
     | Some r -> r.Smt.Solver.failures = []
     | None -> true)

(* Run [f] with per-phase isolation: a known error becomes a diagnostic
   prefixed with [what], the solver's scope stack (when one is involved)
   is rebalanced — a failing phase may die between push and pop — and
   [fallback] stands in for the result.  Unknown exceptions still
   propagate. *)
let guarded ?solver ~errors ~what ~fallback f =
  let depth =
    match solver with Some s -> Smt.Solver.num_scopes s | None -> 0
  in
  try f ()
  with e -> (
    match Diag.of_exn e with
    | None -> raise e
    | Some d ->
      (match solver with
       | Some s ->
         while Smt.Solver.num_scopes s > depth do
           Smt.Solver.pop s
         done
       | None -> ());
      errors := { d with Diag.message = what ^ ": " ^ d.Diag.message } :: !errors;
      fallback)

(* Syntactic obligations per task.  Fixed — independent of the job count —
   so the task list (and with it every solver-local query numbering) is
   the same whether the run is sequential or sharded.  Small enough that
   the dominant product's obligations spread across all workers; large
   enough that per-task solver setup stays in the noise. *)
let syn_chunk_size = 8

let chunks size l =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n = size then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 l

(* What the parent decided about one product before the task phase. *)
type plan =
  | Done of { p : product; journal_hash : string option }
      (* no solver work: replayed, degraded, or failed in delta
         application ([journal_hash] set iff the record should still be
         journaled) *)
  | Sharded of {
      name : string;
      features : string list;
      hash : string;
      tree : T.t;
      first : int; (* index of the product's first task *)
      count : int; (* its number of tasks (syntactic chunks + semantic) *)
    }

let budget_of ~max_conflicts ~timeout =
  match (max_conflicts, timeout) with
  | None, None -> None
  | _ -> Some (Sat.Solver.budget ?max_conflicts ?time_limit:timeout ())

let retry_of = function
  | None -> None
  | Some n when n >= 2 -> Some (Smt.Escalation.ladder ~attempts:n ())
  | Some n -> failwith (Printf.sprintf "--retry wants at least 2 attempts, got %d" n)

(* One checking task's body, for the product tasks and the partition
   check alike: [f] runs on a fresh solver under local isolation, and the
   result is assembled from that solver's own reports.  The solver is
   then released, so the next task's solver reuses its tables. *)
let checked ~certify ~budget ~retry ~unsound ~owner ~what f =
  let solver = Smt.Solver.create ~certify () in
  Smt.Solver.set_budget solver budget;
  Smt.Solver.set_escalation solver retry;
  Option.iter (Smt.Solver.inject_unsoundness solver) unsound;
  let errors = ref [] in
  let findings = guarded ~solver ~errors ~what ~fallback:[] (fun () -> f solver) in
  let rr = Smt.Solver.retry_report solver in
  let cr = Smt.Solver.cert_report solver in
  Smt.Solver.release solver;
  { Shard.product = owner;
    findings;
    errors = List.rev !errors;
    queries = rr.Smt.Solver.total_queries;
    certs = (if certify then cr.Smt.Solver.certs else []);
    cert_failures = (if certify then cr.Smt.Solver.failures else []);
    retried = rr.Smt.Solver.retried }

(* A journal entry is only worth replaying if the current run's
   certification demands are no stricter than the run that wrote it. *)
let trusted ~certify (e : Journal.entry) =
  (not certify) || (e.Journal.certified && e.Journal.cert_failures = 0)

type planned =
  | Plan_rejected of Report.finding list (* allocation said no *)
  | Planned of { plans : plan list; tasks : Shard.task array }

(* The planning phase, shared between [run] (local, journal-aware) and
   [plan_tasks] (a remote fleet worker rebuilding the dispatcher's task
   array from shipped inputs).  Everything here is a deterministic
   function of the run inputs plus [skip]/[resume]: allocation, delta
   application, obligation slicing and the per-task solver construction
   never look at the clock, the host, or the job count — which is what
   lets a worker on another machine produce tasks (and so results)
   identical to the dispatcher's own.

   Journal replay is the only plan decision that depends on private
   parent state (the resume entries); [skip] is its transport: the
   dispatcher ships the names of the products it replayed and the worker
   plans them as [Done] without needing the journal itself. *)
let plan_all ~exclusive ~budget ~certify ~retry ~unsound ~inputs_hash ~resume
    ~skip ~errors ~replayed ~model ~core ~deltas ~schemas_for ~vm_requests =
  let replay_findings name hash =
    if List.mem name skip then Some []
    else
      match Journal.find resume Journal.Product name with
      | Some e when e.Journal.hash = hash && trusted ~certify e ->
        Some e.Journal.findings
      | _ -> None
  in
  let vms = List.length vm_requests in
  let requests =
    List.mapi (fun i selected -> Alloc.request (i + 1) selected) vm_requests
  in
  match
    guarded ~errors ~what:"allocation" ~fallback:(Alloc.Rejected []) (fun () ->
        Alloc.allocate ~exclusive model ~vms ~requests)
  with
  | Alloc.Rejected findings -> Plan_rejected findings
  | Alloc.Allocated { vms = completed; platform } ->
    let specs =
      List.map
        (fun (vm, features) -> (Printf.sprintf "vm%d" vm, features))
        completed
      @ [ ("platform", platform) ]
    in
    let tasks = ref [] (* reversed *) in
    let n_tasks = ref 0 in
    let add_task f =
      tasks := f :: !tasks;
      incr n_tasks
    in
    let checking_task ~name f =
      add_task
        { Shard.owner = name;
          run =
            (fun () ->
              checked ~certify ~budget ~retry ~unsound ~owner:name
                ~what:("product " ^ name) f) }
    in
    let degraded ~name ~features =
      Done { p = { name; features; tree = core; findings = [] };
             journal_hash = None }
    in
    let plan_product (name, features) =
      let hash = Journal.product_hash ~inputs_hash ~name ~features in
      match replay_findings name hash with
      | Some findings ->
        (* Replay: regenerate the tree (needed downstream by the partition
           check and artifact rendering) but skip all solver work and take
           the recorded findings verbatim. *)
        replayed := name :: !replayed;
        let tree =
          guarded ~errors ~what:("product " ^ name) ~fallback:core
            (fun () ->
              match Delta.Apply.generate ~core ~deltas ~selected:features with
              | tree -> tree
              | exception Delta.Apply.Error _ -> core)
        in
        Done { p = { name; features; tree; findings }; journal_hash = None }
      | None -> (
        match Delta.Apply.generate ~core ~deltas ~selected:features with
        | exception Delta.Apply.Error e ->
          let finding =
            Report.finding ~checker:"delta"
              ~node_path:(Option.value ~default:"?" e.Delta.Apply.delta)
              ~loc:e.Delta.Apply.loc "product %s: %s" name e.Delta.Apply.message
          in
          (* The delta failure IS the product's complete verdict: journal
             it like any checked product. *)
          Done { p = { name; features; tree = core; findings = [ finding ] };
                 journal_hash = Some hash }
        | exception e -> (
          match Diag.of_exn e with
          | None -> raise e
          | Some d ->
            errors :=
              { d with Diag.message = "product " ^ name ^ ": " ^ d.Diag.message }
              :: !errors;
            degraded ~name ~features)
        | tree -> (
          match
            guarded ~errors ~what:("product " ^ name) ~fallback:None (fun () ->
                Some (Syntactic.obligations ~schemas:(schemas_for tree) tree))
          with
          | None -> degraded ~name ~features
          | Some obls ->
            let first = !n_tasks in
            List.iter
              (fun slice ->
                checking_task ~name (fun solver ->
                    Syntactic.check_obligations ~solver ~product:name slice))
              (chunks syn_chunk_size obls);
            checking_task ~name (fun solver -> Semantic.check ~solver tree);
            Sharded { name; features; hash; tree; first;
                      count = !n_tasks - first }))
    in
    let plans = List.map plan_product specs in
    Planned { plans; tasks = Array.of_list (List.rev !tasks) }

(* Rebuild the dispatcher's task array on a fleet worker: same inputs,
   same [skip] list (the products the dispatcher replayed from its
   journal), same deterministic planning — so task index [i] here runs
   exactly the closure the dispatcher's own pool would have run.
   Returns [[||]] when allocation rejects the product line (the
   dispatcher's plan holds no tasks either). *)
let plan_tasks ?(exclusive = []) ?budget ?(certify = false) ?retry ?unsound
    ?(skip = []) ~model ~core ~deltas ~schemas_for ~vm_requests () =
  let errors = ref [] and replayed = ref [] in
  match
    plan_all ~exclusive ~budget ~certify ~retry ~unsound ~inputs_hash:""
      ~resume:[] ~skip ~errors ~replayed ~model ~core ~deltas ~schemas_for
      ~vm_requests
  with
  | Plan_rejected _ -> [||]
  | Planned { tasks; _ } -> tasks

(* Run the full workflow.

   [vm_requests]: per-VM feature selections (possibly partial; the alloc
   checker completes them).  The platform product is the union of the
   completed VM products, matching §III-A: "the platform DTS is the union of
   selected features in both products".

   [budget] installs a solver resource budget for every check in the run;
   exhausted queries degrade to "inconclusive" warnings instead of
   hanging.  [retry] installs an escalation ladder: inconclusive queries
   are re-run with scaled budgets and diversified restarts.

   Crash safety: with [journal] each completed product (and the partition
   check) is appended to the journal, as it finishes, as one fsync'd
   record keyed by a content hash of its inputs.  [resume] is a previously loaded journal;
   products whose hash matches a trusted journal entry are replayed —
   trees regenerated (cheap and deterministic) but findings taken from the
   journal, no solver work — and everything else is re-checked.  A
   certifying run only trusts entries that were themselves written by a
   certifying run with zero failures: resumption never fabricates a
   certificate.  Replay is decided in the parent before any task is
   sharded, and only the parent ever writes the journal. *)
let run ?(exclusive = []) ?budget ?(certify = false) ?retry ?unsound
    ?(inputs_hash = "") ?journal ?(resume = []) ?(jobs = 1) ?task_deadline
    ?max_respawns ?mem_limit ?cpu_limit ?runner ~model ~core ~deltas
    ~schemas_for ~vm_requests () =
  let jobs = if jobs <= 0 then Shard.online_cpus () else jobs in
  let errors = ref [] in
  let replayed = ref [] in
  let journal_entry ~kind ~name ~hash ~features ~order ~findings
      ~cert_failures =
    match journal with
    | None -> ()
    | Some sink ->
      Journal.record sink
        { Journal.kind; name; hash; features; order; findings;
          certified = certify; cert_failures }
  in
  (* Canonical-order accumulation of the per-task solver statistics.
     Every task numbers its queries from 0; [absorb] renumbers them into
     one run-wide sequence (products in order, each product's syntactic
     chunks then its semantic task, the partition check last). *)
  let offset = ref 0 in
  let stat_certs = ref [] (* reversed *) in
  let stat_failures = ref [] in
  let stat_retried = ref [] in
  let absorb (r : Shard.result) =
    let r = Shard.renumber ~offset:!offset r in
    offset := !offset + r.Shard.queries;
    stat_certs := List.rev_append r.Shard.certs !stat_certs;
    stat_failures := List.rev_append r.Shard.cert_failures !stat_failures;
    stat_retried := List.rev_append r.Shard.retried !stat_retried;
    r
  in
  let finish ~products ~alloc_findings ~partition_findings ~delta_orders =
    { products; alloc_findings; partition_findings; delta_orders;
      errors = List.rev !errors;
      cert =
        (if certify then
           Some
             { Smt.Solver.enabled = true;
               certs = List.rev !stat_certs;
               failures = List.rev !stat_failures }
         else None);
      retry =
        (match retry with
         | None -> None
         | Some _ ->
           Some
             { Smt.Solver.retry_enabled = !offset > 0;
               total_queries = !offset;
               retried = List.rev !stat_retried });
      replayed = List.rev !replayed;
      (* Read at finish time: the sink degrades at the failing record and
         stays degraded, so this is the run's final durability verdict. *)
      journal_fault =
        (match journal with
         | Some sink -> Journal.degradation sink
         | None -> None) }
  in
  match
    plan_all ~exclusive ~budget ~certify ~retry ~unsound ~inputs_hash ~resume
      ~skip:[] ~errors ~replayed ~model ~core ~deltas ~schemas_for ~vm_requests
  with
  | Plan_rejected findings ->
    finish ~products:[] ~alloc_findings:findings ~partition_findings:[] ~delta_orders:[]
  | Planned { plans; tasks } ->
    (* A delta failure needs no solver work: it is the product's complete
       verdict, journaled like any checked product. *)
    List.iter
      (function
        | Done { p; journal_hash = Some hash } ->
          journal_entry ~kind:Journal.Product ~name:p.name ~hash
            ~features:p.features
            ~order:(Delta.Apply.order ~selected:p.features deltas)
            ~findings:p.findings ~cert_failures:0
        | Done _ | Sharded _ -> ())
      plans;
    (* A checked product is journaled the moment its last task returns,
       in whatever order the runner finishes them, so a killed run keeps
       every product that finished before it.  Only a product whose every
       task completed without an isolated error is journaled: anything
       less and the recorded findings would not reflect a full check. *)
    let arrived = Array.make (Array.length tasks) None in
    let fresh i r =
      arrived.(i) <- Some r;
      List.iter
        (function
          | Sharded { name; features; hash; first; count; _ }
            when first <= i && i < first + count ->
            let rs =
              List.filter_map Fun.id (Array.to_list (Array.sub arrived first count))
            in
            if List.length rs = count && List.for_all (fun r -> r.Shard.errors = []) rs
            then
              journal_entry ~kind:Journal.Product ~name ~hash ~features
                ~order:(Delta.Apply.order ~selected:features deltas)
                ~findings:(List.concat_map (fun r -> r.Shard.findings) rs)
                ~cert_failures:
                  (List.length (List.concat_map (fun r -> r.Shard.cert_failures) rs))
          | Done _ | Sharded _ -> ())
        plans
    in
    let results =
      (* [runner] (the fleet dispatcher) takes the place of the local
         pool when supplied; it receives the replayed product names so
         remote workers can rebuild the identical task array via
         [plan_tasks ~skip].  Everything downstream — merge, journal,
         partition check — is runner-agnostic. *)
      match runner with
      | Some f -> f ~skip:(List.rev !replayed) ~fresh tasks
      | None ->
        Shard.run_tasks ~jobs ?deadline:task_deadline ?max_respawns ?mem_limit
          ?cpu_limit ~fresh tasks
    in
    (* Canonical merge: task order == plan order, so absorbing the results
       array front to back renumbers queries identically for every job
       count.  Results of a degraded product's completed tasks still count
       (their queries ran and their certificates are real). *)
    let absorbed = Array.map (Option.map absorb) results in
    let merge = function
      | Done { p; _ } -> p
      | Sharded { name; features; tree; first; count; _ } ->
        let rs = Array.to_list (Array.sub absorbed first count) in
        if List.exists Option.is_none rs then begin
          (* Last resort: the supervised pool reassigns a dead worker's
             task and retries quarantined poison tasks in-process, so a
             [None] here means the task failed every avenue.  Degrade to
             an isolated diagnostic, exactly like an in-process phase
             failure. *)
          errors :=
            Diag.make ~code:"WORKER"
              "product %s: task failed in workers and in-process retry; \
               product not checked"
              name
            :: !errors;
          { name; features; tree = core; findings = [] }
        end
        else begin
          let rs = List.filter_map Fun.id rs in
          let task_errors = List.concat_map (fun r -> r.Shard.errors) rs in
          if task_errors <> [] then begin
            List.iter (fun d -> errors := d :: !errors) task_errors;
            { name; features; tree = core; findings = [] }
          end
          else
            { name; features; tree;
              findings = List.concat_map (fun r -> r.Shard.findings) rs }
        end
    in
    let all_products = List.map merge plans in
    let delta_orders =
      List.map
        (fun p -> (p.name, Delta.Apply.order ~selected:p.features deltas))
        all_products
    in
    (* The cross-VM partition check needs every product's tree, so it runs
       in the parent after the merge barrier, on its own fresh solver —
       its queries extend the same canonical numbering. *)
    let partition_findings =
      let hash =
        Journal.partition_hash ~inputs_hash
          ~products:(List.map (fun p -> (p.name, p.features)) all_products)
      in
      match Journal.find resume Journal.Partition "partition" with
      | Some e when e.Journal.hash = hash && trusted ~certify e ->
        replayed := "partition" :: !replayed;
        e.Journal.findings
      | _ ->
        let vm_products =
          List.filter (fun p -> p.name <> "platform") all_products
        in
        let platform_tree =
          match List.find_opt (fun p -> p.name = "platform") all_products with
          | Some p -> p.tree
          | None -> core
        in
        let r =
          absorb
            (checked ~certify ~budget ~retry ~unsound ~owner:"partition"
               ~what:"partition check" (fun solver ->
                 Partition.check ~solver ~platform:platform_tree
                   (List.map (fun p -> (p.name, p.tree)) vm_products)))
        in
        if r.Shard.errors = [] then
          journal_entry ~kind:Journal.Partition ~name:"partition" ~hash
            ~features:[] ~order:[] ~findings:r.Shard.findings
            ~cert_failures:(List.length r.Shard.cert_failures)
        else List.iter (fun d -> errors := d :: !errors) r.Shard.errors;
        r.Shard.findings
    in
    finish ~products:all_products ~alloc_findings:[] ~partition_findings
      ~delta_orders

let pp_outcome ppf outcome =
  List.iter
    (fun p ->
      Fmt.pf ppf "product %s: features {%s}@." p.name (String.concat ", " p.features);
      (match List.assoc_opt p.name outcome.delta_orders with
       | Some order when order <> [] ->
         Fmt.pf ppf "  delta order: %s@." (String.concat " < " order)
       | _ -> ());
      match p.findings with
      | [] -> Fmt.pf ppf "  all checks passed@."
      | fs -> List.iter (fun f -> Fmt.pf ppf "  %a@." Report.pp f) fs)
    outcome.products;
  List.iter (fun f -> Fmt.pf ppf "%a@." Report.pp f) outcome.alloc_findings;
  (match outcome.partition_findings with
   | [] -> ()
   | fs ->
     Fmt.pf ppf "cross-VM partitioning:@.";
     List.iter (fun f -> Fmt.pf ppf "  %a@." Report.pp f) fs);
  List.iter (fun d -> Fmt.pf ppf "%a@." Diag.pp d) outcome.errors;
  (* Fail-operational disk errors degrade loudly: a run that lost its
     journal must say so in the report, not just on stderr. *)
  (match outcome.journal_fault with
   | None -> ()
   | Some reason ->
     Fmt.pf ppf "%a@." Diag.pp
       (Diag.make ~severity:Diag.Warning ~code:"JOURNAL"
          "journal degraded (%s): journaling disabled for the rest of the \
           run; the journal cannot be resumed from"
          reason));
  (* Resume/replay status deliberately does NOT appear here: a resumed
     run's report must be byte-identical to an uninterrupted one.  The CLI
     reports replays on stderr. *)
  (match outcome.retry with
   | Some r when r.Smt.Solver.retried <> [] ->
     Fmt.pf ppf "%a@." Report.pp_retry r
   | _ -> ());
  match outcome.cert with
  | None -> ()
  | Some r ->
    Fmt.pf ppf "%a@." Report.pp_cert r;
    (* An uncertified verdict is never a silent pass: each failure is a
       structured CERT diagnostic. *)
    List.iter
      (fun msg -> Fmt.pf ppf "%a@." Diag.pp (Diag.make ~code:"CERT" "%s" msg))
      r.Smt.Solver.failures
