(* The fleet dispatcher: the check phase's tasks served to remote
   socket workers by {!Llhsc.Shard.supervise} — the same loop, leases,
   crash/quarantine path and in-process sweep as the local pool.  This
   module adds only what is the fleet's:

   - the listen socket;
   - the handshake a new connection goes through before it may hold a
     lease (hello -> [challenge -> auth] -> setup -> ready, with the
     spec hash and task count checked so a worker that planned a
     different run is rejected before it can contribute a result);
   - replacing a lost worker means waiting for a reconnect, down to the
     worker floor: when the live fleet falls below [min_workers] after
     the registration grace, the loop gives up and the in-process sweep
     finishes the run — a run that loses ALL its workers still merges to
     the same bytes;
   - the fsync'd task journal, appended for every fresh result. *)

module Json = Llhsc.Json
module Shard = Llhsc.Shard
module Supervise = Llhsc.Supervise
module Hmac = Llhsc.Hmac

type config = {
  host : string;
  port : int; (* 0 picks an ephemeral port *)
  min_workers : int; (* degrade to in-process below this floor *)
  wait_workers : float; (* registration grace before the floor applies *)
  deadline : float; (* per-task lease, seconds *)
  port_file : string option; (* write the bound port here (for tests) *)
  secret : string option; (* require the HMAC handshake (--secret-file) *)
  task_journal : string option; (* journal per-task results here *)
  resume : bool; (* replay a matching task journal before dispatching *)
}

let notice fmt =
  Format.kfprintf
    (fun f -> Format.pp_print_newline f (); Format.pp_print_flush f ())
    Format.err_formatter
    ("llhsc dispatch: " ^^ fmt)

let env_int name =
  match Sys.getenv_opt name with None -> None | Some v -> int_of_string_opt v

let addr_of host port =
  let ip =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> failwith (Printf.sprintf "cannot resolve host %S" host))
  in
  Unix.ADDR_INET (ip, port)

(* --- protocol messages ------------------------------------------------------ *)

let msg_setup spec hash =
  Json.to_string (Json.Obj [ ("setup", Spec.to_wire spec); ("hash", Json.Str hash) ])

(* Bandwidth-aware setup: a worker whose hello advertised this spec hash
   already holds the built task array from an earlier session, so the
   setup carries only the hash — no spec body.  A worker that lost its
   cache replies with an error and the dispatcher falls back to shipping
   in full. *)
let msg_setup_cached hash =
  Json.to_string
    (Json.Obj
       [ ("setup", Json.Obj [ ("cached", Json.Bool true) ]);
         ("hash", Json.Str hash) ])

let setup_choice ~cached ~spec_hash =
  if List.mem spec_hash cached then `Cached else `Ship

(* --- task journal -----------------------------------------------------------

   Crash recovery for the dispatcher itself: every task result that wins
   the first-wins merge is appended — one CRC-checksummed JSON line, the
   same per-line framing as the pipeline journal — and fsync'd before
   the next frame is processed.  The header binds the journal to the
   spec hash and task count, so a journal from a different run (or from
   a resumed run whose product-journal skip set changed the task array)
   is ignored wholesale rather than replaying results onto the wrong
   indices.  [dispatch --resume] preloads matching records through
   {!Supervise.resolve}, which removes those tasks from the pending
   queue; a reconnecting worker that completes the same task later
   merges as a harmless duplicate. *)

let task_journal_header ~spec_hash ~n =
  Json.to_string
    (Json.Obj
       [ ("llhsc-tasks", Json.Int 1);
         ("spec", Json.Str spec_hash);
         ("count", Json.Int n) ])

(* Appended (best-effort) when a task-journal write or fsync fails: the
   dispatcher carried on without journaling, so the file is incomplete
   from an unknowable point and a resumed run must not trust it. *)
let task_degraded_json reason =
  Json.to_string (Json.Obj [ ("llhsc-tasks-degraded", Json.Str reason) ])

(* (header_matches, entries) — entries only from a matching header.  A
   journal carrying a degradation marker is refused wholesale (header
   reported as non-matching, so the caller rewrites it fresh). *)
let load_task_journal path ~spec_hash ~(tasks : Shard.task array) =
  let n = Array.length tasks in
  match open_in path with
  | exception Sys_error _ -> (false, [])
  | ic ->
    let ok_header =
      match input_line ic with
      | exception End_of_file -> false
      | line -> (
        match Json.parse line with
        | Error _ -> false
        | Ok j ->
          Json.member "llhsc-tasks" j = Some (Json.Int 1)
          && Option.bind (Json.member "spec" j) Json.to_str = Some spec_hash
          && Option.bind (Json.member "count" j) Json.to_int = Some n)
    in
    let out = ref [] in
    let degraded = ref false in
    if ok_header then begin
      try
        while true do
          let line = input_line ic in
          match Llhsc.Journal.verify_line line with
          | None -> () (* torn or corrupt record: skip *)
          | Some body -> (
            match Json.parse body with
            | Error _ -> ()
            | Ok j ->
              if Json.member "llhsc-tasks-degraded" j <> None then degraded := true
              else (
                match
                  ( Option.bind (Json.member "task" j) Json.to_int,
                    Option.bind (Json.member "r" j) Shard.result_of_json )
                with
                | Some i, Some r
                  when i >= 0 && i < n && r.Shard.product = tasks.(i).Shard.owner
                  ->
                  out := (i, r) :: !out
                | _ -> ()))
        done
      with End_of_file -> ()
    end;
    close_in ic;
    if !degraded then (false, []) else (ok_header, List.rev !out)

(* --- run -------------------------------------------------------------------- *)

let run cfg ~spec (tasks : Shard.task array) =
  let n = Array.length tasks in
  let st : Shard.result Supervise.t = Supervise.create n in
  let spec_hash = Spec.hash spec in
  let setup_payload = msg_setup spec spec_hash in
  (* Auth bookkeeping: hello nonces seen this run (replay rejection) and
     the rejected-connection count surfaced in the final stats line. *)
  let seen_nonces : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let auth_rejected = ref 0 in
  (* Spec transfers skipped because the worker's hello advertised a warm
     cache of this spec hash (bandwidth-aware scheduling). *)
  let spec_skips = ref 0 in

  (* Task journal: preload completed results on --resume, then append
     every fresh result.  Preloaded tasks leave the pending queue before
     any worker connects, so they are never dispatched again. *)
  let header_ok, preloaded =
    match cfg.task_journal with
    | Some path when cfg.resume -> load_task_journal path ~spec_hash ~tasks
    | _ -> (false, [])
  in
  List.iter (fun (i, r) -> ignore (Supervise.resolve st i r)) preloaded;
  if preloaded <> [] then
    notice "resume: replayed %d task result(s) from %s" (List.length preloaded)
      (Option.get cfg.task_journal);
  (* Fail-operational task journaling, mirroring the pipeline journal: a
     write/fsync failure stops journaling (loud notice, best-effort
     degradation marker so --resume refuses the file) but never stops the
     dispatch — the merge and the report do not depend on the journal. *)
  let tj_degraded = ref None in
  let tj_degrade oc e =
    let reason =
      match e with
      | Unix.Unix_error (err, op, _) ->
        Printf.sprintf "%s: %s" op (Unix.error_message err)
      | Sys_error m -> m
      | e -> Printexc.to_string e
    in
    tj_degraded := Some reason;
    notice
      "warning[JOURNAL] task journal %s: %s; journaling disabled for the rest \
       of the run"
      (Option.value ~default:"?" cfg.task_journal)
      reason;
    try
      output_char oc '\n';
      output_string oc (Llhsc.Journal.checksummed (task_degraded_json reason));
      output_char oc '\n';
      flush oc
    with Sys_error _ -> ()
  in
  let tj_oc =
    match cfg.task_journal with
    | None -> None
    | Some path ->
      let oc =
        if header_ok then
          open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
        else begin
          (* New run, or a stale/degraded journal (different spec/skip
             set, or a marker): start over rather than appending under a
             wrong header. *)
          let oc =
            open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path
          in
          (try
             Llhsc.Durable.out_string oc (task_journal_header ~spec_hash ~n ^ "\n")
           with (Unix.Unix_error _ | Sys_error _) as e -> tj_degrade oc e);
          oc
        end
      in
      Some oc
  in
  let tasks_recorded = ref 0 in
  let term_after = env_int "LLHSC_FAULT_TERM_AFTER_TASKS" in
  let record_task i r =
    match tj_oc with
    | None -> ()
    | Some _ when !tj_degraded <> None -> ()
    | Some oc ->
      (match
         Llhsc.Durable.out_string oc
           (Llhsc.Journal.checksummed
              (Json.to_string
                 (Json.Obj
                    [ ("task", Json.Int i); ("r", Shard.result_to_json r) ]))
           ^ "\n");
         Llhsc.Durable.sync oc
       with
       | () -> ()
       | exception ((Unix.Unix_error _ | Sys_error _) as e) -> tj_degrade oc e);
      if !tj_degraded = None then begin
        incr tasks_recorded;
        (* Test hook: raise SIGTERM in-process after the n-th record,
           exercising the CLI's graceful-interrupt + --resume path. *)
        if term_after = Some !tasks_recorded then
          Unix.kill (Unix.getpid ()) Sys.sigterm
      end
  in

  (* The handshake a fresh connection must complete before it may hold
     a lease.  Authentication failures are counted and surfaced
     distinctly — they are a property of the fleet's environment, not of
     any task — but the remedy is the usual one: the connection dies, and
     an unauthenticated peer never holds leases, never sees the spec, and
     never contributes a result. *)
  let handshake c =
    let state = ref `Hello in
    let nonces = ref ("", "") in
    let cached = ref [] in
    let sent_cached = ref false in
    let reject reason =
      incr auth_rejected;
      notice "notice[AUTH] %s: %s" (Shard.peer c) reason;
      Shard.drop c "failed authentication"
    in
    (* Ship the spec, or just its hash when the worker's hello advertised
       a warm cache for it — the worker rebuilds its task array from the
       cache and replies ready exactly as if the spec had been shipped. *)
    let send_setup () =
      state := `Setup;
      match setup_choice ~cached:!cached ~spec_hash with
      | `Cached ->
        sent_cached := true;
        incr spec_skips;
        notice "worker %s has spec %s cached; skipping spec transfer"
          (Shard.peer c) spec_hash;
        Shard.post c (msg_setup_cached spec_hash)
      | `Ship ->
        sent_cached := false;
        Shard.post c setup_payload
    in
    fun j ->
      match !state with
      | `Hello -> (
        match Json.member "hello" j with
        | Some hello -> (
          cached :=
            Option.value ~default:[]
              (Option.bind (Json.member "cached" hello) Json.to_str_list);
          match cfg.secret with
          | None -> send_setup ()
          | Some secret -> (
            (* Challenge–response: never ship the spec to a peer that
               has not proven knowledge of the shared secret. *)
            match Option.bind (Json.member "nonce" hello) Json.to_str with
            | None -> reject "unauthenticated hello (no nonce)"
            | Some nw when Hashtbl.mem seen_nonces nw -> reject "replayed hello nonce"
            | Some nw ->
              Hashtbl.add seen_nonces nw ();
              let nd = Hmac.nonce () in
              nonces := (nw, nd);
              state := `Auth;
              let mac =
                Hmac.to_hex (Hmac.hmac ~key:secret ("llhsc-disp:" ^ nw ^ ":" ^ nd))
              in
              Shard.post c
                (Json.to_string
                   (Json.Obj
                      [ ( "challenge",
                          Json.Obj
                            [ ("nonce", Json.Str nd); ("mac", Json.Str mac) ] ) ]))))
        | None -> Shard.drop c "spoke before hello")
      | `Auth -> (
        match (Json.member "auth" j, cfg.secret) with
        | Some aj, Some secret -> (
          let nw, nd = !nonces in
          match Option.bind (Json.member "mac" aj) Json.to_str with
          | None -> reject "auth without mac"
          | Some mac_w ->
            let expect =
              Hmac.to_hex (Hmac.hmac ~key:secret ("llhsc-work:" ^ nd ^ ":" ^ nw))
            in
            if Hmac.equal expect mac_w then begin
              Shard.set_key c (Hmac.hmac ~key:secret ("llhsc-sess:" ^ nw ^ ":" ^ nd));
              send_setup ()
            end
            else reject "bad auth mac")
        | _ -> reject "spoke before authenticating")
      | `Setup -> (
        match Json.member "ready" j with
        | Some r ->
          let h = Option.bind (Json.member "spec" r) Json.to_str in
          let k = Option.bind (Json.member "tasks" r) Json.to_int in
          if h = Some spec_hash && k = Some n then begin
            notice "worker %s ready" (Shard.peer c);
            Shard.ready c
          end
          else
            (* The worker planned a different run (version skew, wrong
               inputs): none of its results would be trustworthy. *)
            Shard.drop c
              (Printf.sprintf "planned a different run (spec %s, %s tasks)"
                 (Option.value ~default:"?" h)
                 (match k with Some k -> string_of_int k | None -> "?"))
        | None -> (
          match Option.bind (Json.member "error" j) Json.to_str with
          | Some msg when !sent_cached ->
            (* The worker advertised this spec but lost its cache (e.g. a
               restart between hello and setup): fall back to shipping in
               full rather than dropping a healthy worker. *)
            notice "worker %s lost its cached spec (%s); shipping in full"
              (Shard.peer c) msg;
            sent_cached := false;
            decr spec_skips;
            Shard.post c setup_payload
          | Some msg -> Shard.drop c (Printf.sprintf "failed to plan: %s" msg)
          | None -> Shard.drop c "spoke before ready"))
  in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* A dispatcher that cannot listen (port stolen, host misresolved)
     still completes the run: degrade straight to the in-process sweep
     instead of erroring — the serve daemon relies on this when it races
     other jobs for fleet listen addresses. *)
  let listening =
    match
      Unix.setsockopt lfd Unix.SO_REUSEADDR true;
      Unix.bind lfd (addr_of cfg.host cfg.port);
      Unix.listen lfd 64;
      Unix.set_nonblock lfd
    with
    | () ->
      let bound_port =
        match Unix.getsockname lfd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> cfg.port
      in
      notice "listening on %s:%d (fleet floor %d, grace %.1fs)" cfg.host
        bound_port cfg.min_workers cfg.wait_workers;
      (* Atomic: a polling reader sees the old port file or the complete
         new one, never a partially-written port number. *)
      Option.iter
        (fun path ->
          Llhsc.Durable.write_file ~path (Printf.sprintf "%d\n" bound_port))
        cfg.port_file;
      true
    | exception (Unix.Unix_error _ | Failure _) ->
      notice "cannot listen on %s:%d; finishing %d task(s) in-process"
        cfg.host cfg.port
        (List.length (Supervise.unresolved st));
      false
  in
  (* A lost worker is replaced by waiting for it (or another) to
     connect, until the live fleet stays below the floor past the
     registration grace. *)
  let t0 = Unix.gettimeofday () in
  let replace pool _lost =
    listening
    &&
    let live = Shard.live pool in
    if Unix.gettimeofday () -. t0 >= cfg.wait_workers && live < cfg.min_workers
    then begin
      notice "fleet below %d worker(s) (%d connected); finishing %d task(s) in-process"
        cfg.min_workers live
        (List.length (Supervise.unresolved st));
      false
    end
    else true
  in
  let finish () =
    (try Unix.close lfd with Unix.Unix_error _ -> ());
    (* Flush-and-fsync the task journal even on SIGTERM/SIGINT — the
       interrupt arrives as an exception, and a resumed run replays
       exactly what reached the disk. *)
    Option.iter
      (fun oc ->
        try
          flush oc;
          (try Unix.fsync (Unix.descr_of_out_channel oc)
           with Unix.Unix_error _ -> ());
          close_out oc
        with Sys_error _ -> ())
      tj_oc
  in
  let results =
    Fun.protect ~finally:finish (fun () ->
        Shard.supervise ~deadline:cfg.deadline ~listen:lfd ~spec:spec_hash
          ~admit:(fun c -> Some (handshake c))
          ~replace ~fresh:record_task st tasks)
  in
  if !auth_rejected > 0 then
    notice "auth: rejected %d connection attempt(s)" !auth_rejected;
  if !spec_skips > 0 then
    notice "spec cache: skipped %d spec transfer(s) to worker(s) with a warm \
            cache" !spec_skips;
  results
