(* The serve daemon event loop.  See the .mli for the robustness
   contract.  Shape: one nonblocking select loop owns the listen socket,
   every client connection, a signal self-pipe, and the stdout/stderr
   pipes of every running job child.  Admission decodes a request into a
   typed job in memory; all checking work happens in job children (fork
   + setsid + a call of the CLI's job runner), so the loop never blocks
   on a check and a hung or crashed one can never stall the front door.

   Supervision mirrors the Shard pool's lease machinery one level up:
   a running job holds a lease (started now, expiring at now +
   request_deadline); an expired lease SIGKILLs the job's whole process
   group (the child is a session leader, so a pipeline job's shard
   workers die with it) and the client gets a 504.  Every accepted
   request is answered exactly once, on every path. *)

type config = {
  host : string;
  port : int;
  workers : int;
  queue : int;
  tenant_quota : int;
  request_deadline : float option;
  read_timeout : float;
  write_timeout : float;
  max_body_bytes : int;
  max_header_bytes : int;
  retry_after : int;
  max_request_jobs : int;
  dispatch : (string * int) list;
  verbose : bool;
}

let default_config =
  { host = "127.0.0.1";
    port = 8080;
    workers = 2;
    queue = 16;
    tenant_quota = 8;
    request_deadline = Some 60.;
    read_timeout = 10.;
    write_timeout = 10.;
    max_body_bytes = Http.default_limits.Http.max_body_bytes;
    max_header_bytes = Http.default_limits.Http.max_header_bytes;
    retry_after = 1;
    max_request_jobs = 4;
    dispatch = [];
    verbose = false }

let now () = Unix.gettimeofday ()
let retry_eintr = Llhsc.Util.retry_eintr

(* Hard backstops that are not worth a flag: sockets the daemon will hold
   at once, and bytes of child output it will buffer per job. *)
let max_connections = 1024
let max_job_output = 64 * 1024 * 1024

(* --- responses --------------------------------------------------------------- *)

module Json = Llhsc.Json

let json_headers = [ ("Content-Type", "application/json") ]

(* Daemon-generated refusals share the CLI's structured-diagnostic codes:
   {"error": reason, "code": PARSE|QUOTA|QUEUE|DEADLINE|WORKER|DRAIN|HTTP}. *)
let error_body ~code reason =
  Json.to_string (Json.Obj [ ("error", Json.Str reason); ("code", Json.Str code) ]) ^ "\n"

type response = { status : int; headers : (string * string) list; body : string }

let resp ?(headers = json_headers) status body = { status; headers; body }

let shed_headers retry_after =
  ("Retry-After", string_of_int retry_after) :: json_headers

(* --- jobs -------------------------------------------------------------------- *)

type work =
  | Check of {
      file : string;
      text : string;
      certify : bool;
      semantic_only : bool;
      syntactic_only : bool;
    }
  | Pipeline of {
      spec : Fleet.Spec.t;
      pool : Fleet.Spec.pool;
      dispatch : (string * int) option;
    }

type job = {
  id : int;
  tenant : string;
  mutable conn_fd : Unix.file_descr option; (* None once the client is gone *)
  mutable work : work;                      (* given its dispatch address at start *)
  delay_ms : int;                           (* test hook, see .mli *)
  mutable cancelled : bool;                 (* client vanished while queued *)
  mutable tenant_released : bool;
  mutable pid : int;                        (* 0 until started *)
  mutable out_fd : Unix.file_descr option;
  mutable err_fd : Unix.file_descr option;
  out_buf : Buffer.t;
  err_buf : Buffer.t;
  mutable lease_expiry : float;             (* infinity = no lease *)
  mutable timed_out : bool;
  mutable output_overflow : bool;
}

type phase =
  | Reading of Http.state
  | Waiting of int (* job id *)
  | Writing of { data : string; mutable off : int }

type conn = { fd : Unix.file_descr; mutable phase : phase; mutable deadline : float }

type stats = {
  mutable accepted : int;       (* jobs admitted to the queue *)
  mutable completed : int;      (* jobs answered with a checker verdict *)
  mutable shed_queue : int;     (* 429: bounded queue full *)
  mutable shed_tenant : int;    (* 429: tenant over quota *)
  mutable shed_drain : int;     (* 503: refused while draining *)
  mutable refused : int;        (* 4xx: malformed / unroutable requests *)
  mutable timeouts : int;       (* 504: lease expired, job killed *)
  mutable crashes : int;        (* 500: job child died on a signal *)
  mutable disconnects : int;    (* clients that vanished mid-request *)
  mutable read_timeouts : int;  (* 408: slow-loris reads cut *)
  mutable backend_fleet : int;  (* pipeline jobs handed to a fleet dispatcher *)
  mutable backend_local : int;  (* pipeline jobs run by the local fork pool *)
}

(* --- request decoding ---------------------------------------------------------- *)

let truthy = function Some ("1" | "true" | "yes") -> true | _ -> false

(* POST /v1/check: the body is the DTS source itself; query parameters
   carry the CLI flags, and X-Llhsc-Filename what the report calls the
   file (so a served report diffs clean against the batch CLI). *)
let prepare_check req params =
  let file = Option.value ~default:"request.dts" (Http.header req "x-llhsc-filename") in
  if not (Fleet.Spec.safe_name file) then
    Error (resp 400 (error_body ~code:"HTTP" "bad X-Llhsc-Filename"))
  else
    let flag name = truthy (List.assoc_opt name params) in
    Ok
      (Check
         { file; text = req.Http.body; certify = flag "certify";
           semantic_only = flag "semantic-only"; syntactic_only = flag "syntactic-only" })

(* POST /v1/pipeline: the body is a JSON object shipping every input file
   inline plus the run's flags, decoded into the run's spec.  Parsed with
   the hardened Json.parse, so hostile nesting/garbage surfaces as an
   error[PARSE]-coded 400. *)
let prepare_pipeline cfg req =
  match Fleet.Spec.of_request ~max_jobs:cfg.max_request_jobs req.Http.body with
  | Error reason -> Error (resp 400 (error_body ~code:"PARSE" reason))
  | Ok (spec, pool) ->
    (* A sharded job inherits the request lease as its shard-task
       deadline: the same machinery, one level down. *)
    let task_deadline = if pool.Fleet.Spec.jobs > 1 then cfg.request_deadline else None in
    Ok (Pipeline { spec; pool = { pool with task_deadline }; dispatch = None })

(* --- the daemon -------------------------------------------------------------- *)

let run ~run cfg =
  let test_hooks = Sys.getenv_opt "LLHSC_SERVE_TEST_HOOKS" = Some "1" in
  let limits =
    { Http.max_header_bytes = cfg.max_header_bytes;
      max_body_bytes = cfg.max_body_bytes }
  in
  let stats =
    { accepted = 0; completed = 0; shed_queue = 0; shed_tenant = 0;
      shed_drain = 0; refused = 0; timeouts = 0; crashes = 0; disconnects = 0;
      read_timeouts = 0; backend_fleet = 0; backend_local = 0 }
  in
  let note fmt =
    Printf.ksprintf
      (fun m -> if cfg.verbose then (prerr_string ("llhsc serve: " ^ m ^ "\n"); flush stderr))
      fmt
  in
  (* Signal plumbing: the handler only flips a ref and pokes the
     self-pipe; everything else happens at the top of the loop. *)
  let drain_requested = ref false in
  let sig_r, sig_w = Unix.pipe () in
  Unix.set_nonblock sig_r;
  Unix.set_nonblock sig_w;
  Unix.set_close_on_exec sig_r;
  Unix.set_close_on_exec sig_w;
  let on_signal _ =
    drain_requested := true;
    try ignore (Unix.write_substring sig_w "!" 0 1) with Unix.Unix_error _ -> ()
  in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  (* Peer disconnect mid-write must degrade to this connection's EPIPE,
     never a process-wide SIGPIPE death (shared idiom with the fleet's
     socket paths). *)
  let restore_pipe = Llhsc.Util.ignore_sigpipe () in
  (* SIGCHLD pokes the self-pipe too: a job child's pipes hit EOF while it
     is still exiting, so the waitpid probe can race ahead of the zombie
     and the job then has no fd left to wake select.  Without this the
     reap only happens on the next timeout tick (~1s added latency). *)
  let on_child _ =
    try ignore (Unix.write_substring sig_w "!" 0 1) with Unix.Unix_error _ -> ()
  in
  let prev_chld = Sys.signal Sys.sigchld (Sys.Signal_handle on_child) in
  (* Listen socket. *)
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.set_close_on_exec listen_fd;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen listen_fd 128;
  Unix.set_nonblock listen_fd;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  Printf.printf "llhsc serve: listening on %s:%d (workers=%d queue=%d quota=%d)\n"
    cfg.host bound_port cfg.workers cfg.queue cfg.tenant_quota;
  flush stdout;
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let running : (int, job) Hashtbl.t = Hashtbl.create 16 in
  let pending : job Queue.t = Queue.create () in
  let tenants : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let next_job_id = ref 0 in
  let draining = ref false in
  let tenant_count t = Option.value ~default:0 (Hashtbl.find_opt tenants t) in
  let tenant_take t = Hashtbl.replace tenants t (tenant_count t + 1) in
  let tenant_release (job : job) =
    if not job.tenant_released then begin
      job.tenant_released <- true;
      let n = tenant_count job.tenant - 1 in
      if n <= 0 then Hashtbl.remove tenants job.tenant
      else Hashtbl.replace tenants job.tenant n
    end
  in
  (* --- fleet backend --- *)
  (* [--dispatch] reserves each listed listen address for one running
     pipeline job at a time and hands it to that job: the child runs its
     spec as a fleet dispatcher on the address, serving the operator's
     long-lived workers.  Every fleet degradation (no worker inside the
     grace, address already bound, workers lost mid-run) collapses to
     the dispatcher's own in-process sweep, so the verdict bytes never
     depend on the fleet being healthy.  When all addresses are claimed
     the job runs on the local fork pool. *)
  let free_addrs = ref cfg.dispatch in
  let claim_addr () =
    match !free_addrs with
    | [] -> None
    | a :: rest ->
      free_addrs := rest;
      Some a
  in
  let release_addr (job : job) =
    match job.work with
    | Pipeline { dispatch = Some a; _ } -> free_addrs := a :: !free_addrs
    | _ -> ()
  in
  let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let listen_closed = ref false in
  let close_listen () =
    if not !listen_closed then begin
      listen_closed := true;
      close_fd listen_fd
    end
  in
  let close_conn conn =
    Hashtbl.remove conns conn.fd;
    close_fd conn.fd
  in
  let respond conn { status; headers; body } =
    let data = Http.response ~status ~headers ~body () in
    conn.phase <- Writing { data; off = 0 };
    conn.deadline <- now () +. cfg.write_timeout
  in
  (* --- job lifecycle --- *)
  let start_job (job : job) =
    (match job.work with
     | Check _ -> ()
     | Pipeline p -> (
       match claim_addr () with
       | Some (h, port) ->
         stats.backend_fleet <- stats.backend_fleet + 1;
         job.work <- Pipeline { p with dispatch = Some (h, port) };
         note "job %d: fleet backend at %s:%d" job.id h port
       | None ->
         stats.backend_local <- stats.backend_local + 1;
         if cfg.dispatch <> [] then
           note "job %d: all dispatch addresses busy; local backend" job.id));
    let out_r, out_w = Unix.pipe () in
    let err_r, err_w = Unix.pipe () in
    Unix.set_close_on_exec out_r;
    Unix.set_close_on_exec err_r;
    let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    (* Anything still buffered would be written again by the child. *)
    Llhsc.Util.flush_std ();
    (match Unix.fork () with
     | 0 ->
       (* Child: first the state an exec used to give for free: default
          handlers for the signals the daemon catches (SIGPIPE stays
          ignored, as across exec), none of the daemon's descriptors (a
          job holding the listen socket or another client's socket would
          keep it open past the daemon's close), and fault counters at
          zero.  Then its own session (=> own process group: a lease kill
          takes the job's whole tree, shard workers included), the hooks,
          stdio rewired, and the job runner on the decoded job, the code
          the batch CLI runs on the same inputs.  It leaves through
          [_exit]: the daemon's [at_exit] handlers must not run in it. *)
       let code =
         try
           List.iter
             (fun s -> Sys.set_signal s Sys.Signal_default)
             [ Sys.sigterm; Sys.sigint; Sys.sigchld ];
           close_listen ();
           Hashtbl.iter (fun _ c -> close_fd c.fd) conns;
           Hashtbl.iter
             (fun _ (j : job) ->
               Option.iter close_fd j.out_fd;
               Option.iter close_fd j.err_fd)
             running;
           List.iter close_fd [ sig_r; sig_w; out_r; err_r ];
           Llhsc.Fault.reset ();
           ignore (Unix.setsid ());
           if Llhsc.Fault.fires Llhsc.Fault.Kill_job job.id then Llhsc.Fault.kill_self ();
           if Llhsc.Fault.fires Llhsc.Fault.Hang_job job.id then Unix.sleep 3600;
           if job.delay_ms > 0 then Unix.sleepf (float_of_int job.delay_ms /. 1000.);
           Unix.dup2 null Unix.stdin;
           Unix.dup2 out_w Unix.stdout;
           Unix.dup2 err_w Unix.stderr;
           List.iter close_fd [ null; out_w; err_w ];
           run job.work
         with _ -> 127
       in
       (try Llhsc.Util.flush_std () with Sys_error _ -> ());
       Unix._exit code
     | pid ->
       close_fd out_w;
       close_fd err_w;
       close_fd null;
       Unix.set_nonblock out_r;
       Unix.set_nonblock err_r;
       job.pid <- pid;
       job.out_fd <- Some out_r;
       job.err_fd <- Some err_r;
       job.lease_expiry <-
         (match cfg.request_deadline with Some d -> now () +. d | None -> infinity);
       Hashtbl.replace running job.id job)
  in
  let kill_job (job : job) =
    if job.pid > 0 then begin
      (try Unix.kill (-job.pid) Sys.sigkill with Unix.Unix_error _ -> ());
      try Unix.kill job.pid Sys.sigkill with Unix.Unix_error _ -> ()
    end
  in
  let job_response (job : job) status =
    if job.timed_out then begin
      stats.timeouts <- stats.timeouts + 1;
      resp 504 (error_body ~code:"DEADLINE" "request deadline exceeded; job killed")
    end
    else if job.output_overflow then begin
      stats.crashes <- stats.crashes + 1;
      resp 500 (error_body ~code:"WORKER" "checker output exceeded the buffer cap")
    end
    else
      match status with
      | Unix.WEXITED code ->
        stats.completed <- stats.completed + 1;
        let verdict =
          match code with
          | 0 -> "clean"
          | 1 -> "findings"
          | 2 -> "input-error"
          | _ -> "error"
        in
        let stderr_lines =
          String.split_on_char '\n' (Buffer.contents job.err_buf)
          |> List.filter (fun l -> l <> "")
        in
        resp 200
          (Json.to_string
             (Json.Obj
                [ ("status", Json.Str verdict);
                  ("exit", Json.Int code);
                  ("report", Json.Str (Buffer.contents job.out_buf));
                  ("stderr", Json.List (List.map (fun l -> Json.Str l) stderr_lines)) ])
          ^ "\n")
      | Unix.WSIGNALED s | Unix.WSTOPPED s ->
        stats.crashes <- stats.crashes + 1;
        resp 500
          (error_body ~code:"WORKER"
             (Printf.sprintf "checker died on signal %d before finishing" s))
  in
  let finish_job (job : job) status =
    Hashtbl.remove running job.id;
    Option.iter close_fd job.out_fd;
    Option.iter close_fd job.err_fd;
    job.out_fd <- None;
    job.err_fd <- None;
    tenant_release job;
    release_addr job;
    match job.conn_fd with
    | None -> () (* client vanished; verdict dropped *)
    | Some fd -> (
      match Hashtbl.find_opt conns fd with
      | Some conn -> respond conn (job_response job status)
      | None -> ())
  in
  (* Pull pending jobs into free worker slots. *)
  let rec schedule () =
    if Hashtbl.length running < cfg.workers && not (Queue.is_empty pending) then begin
      let job = Queue.pop pending in
      if not job.cancelled then start_job job;
      schedule ()
    end
  in
  (* Client connection went away: release everything it owned. *)
  let abandon_conn conn =
    (match conn.phase with
     | Waiting id -> (
       match Hashtbl.find_opt running id with
       | Some job ->
         note "job %d: client disconnected; killing" id;
         job.conn_fd <- None;
         kill_job job
       | None ->
         (* still queued: mark cancelled, release the quota slot now *)
         Queue.iter
           (fun (j : job) ->
             if j.id = id then begin
               j.cancelled <- true;
               j.conn_fd <- None;
               tenant_release j
             end)
           pending)
     | _ -> ());
    stats.disconnects <- stats.disconnects + 1;
    close_conn conn
  in
  (* --- admission --- *)
  let admit conn (req : Http.request) kind params =
    if !draining then begin
      stats.shed_drain <- stats.shed_drain + 1;
      respond conn
        (resp ~headers:(shed_headers cfg.retry_after) 503
           (error_body ~code:"DRAIN" "daemon is draining; retry elsewhere"))
    end
    else
      let tenant =
        match Http.header req "x-api-key" with
        | Some k when k <> "" && String.length k <= 128 -> k
        | _ -> "anonymous"
      in
      if tenant_count tenant >= cfg.tenant_quota then begin
        stats.shed_tenant <- stats.shed_tenant + 1;
        note "tenant %s over quota; shedding" tenant;
        respond conn
          (resp ~headers:(shed_headers cfg.retry_after) 429
             (error_body ~code:"QUOTA"
                (Printf.sprintf "tenant has %d requests in flight (quota %d)"
                   (tenant_count tenant) cfg.tenant_quota)))
      end
      else if Queue.length pending >= cfg.queue then begin
        stats.shed_queue <- stats.shed_queue + 1;
        note "queue full (%d); shedding" (Queue.length pending);
        respond conn
          (resp ~headers:(shed_headers cfg.retry_after) 429
             (error_body ~code:"QUEUE"
                (Printf.sprintf "admission queue full (%d waiting)"
                   (Queue.length pending))))
      end
      else begin
        let prepared =
          match kind with
          | `Check -> prepare_check req params
          | `Pipeline -> prepare_pipeline cfg req
        in
        match prepared with
        | Error r ->
          stats.refused <- stats.refused + 1;
          respond conn r
        | Ok work ->
          let id = !next_job_id in
          incr next_job_id;
          let delay_ms =
            if test_hooks then
              Option.value ~default:0
                (Option.bind (Http.header req "x-llhsc-test-delay-ms") int_of_string_opt)
            else 0
          in
          let job =
            { id; tenant; conn_fd = Some conn.fd; work; delay_ms; cancelled = false;
              tenant_released = false; pid = 0; out_fd = None; err_fd = None;
              out_buf = Buffer.create 1024; err_buf = Buffer.create 256;
              lease_expiry = infinity; timed_out = false;
              output_overflow = false }
          in
          tenant_take tenant;
          stats.accepted <- stats.accepted + 1;
          Queue.push job pending;
          conn.phase <- Waiting id;
          conn.deadline <- infinity;
          schedule ()
      end
  in
  let stats_body () =
    Json.to_string
      (Json.Obj
         [ ("accepted", Json.Int stats.accepted);
           ("completed", Json.Int stats.completed);
           ("shed_queue", Json.Int stats.shed_queue);
           ("shed_tenant", Json.Int stats.shed_tenant);
           ("shed_drain", Json.Int stats.shed_drain);
           ("refused", Json.Int stats.refused);
           ("timeouts", Json.Int stats.timeouts);
           ("crashes", Json.Int stats.crashes);
           ("disconnects", Json.Int stats.disconnects);
           ("read_timeouts", Json.Int stats.read_timeouts);
           ("backend_fleet", Json.Int stats.backend_fleet);
           ("backend_local", Json.Int stats.backend_local);
           ("queued", Json.Int (Queue.length pending));
           ("running", Json.Int (Hashtbl.length running));
           ("draining", Json.Bool !draining) ])
    ^ "\n"
  in
  let route conn (req : Http.request) =
    let path, params = Http.split_target req.target in
    match (req.meth, path) with
    | "GET", "/healthz" ->
      respond conn (resp ~headers:[ ("Content-Type", "text/plain") ] 200 "ok\n")
    | "GET", "/readyz" ->
      if !draining then
        respond conn
          (resp ~headers:(shed_headers cfg.retry_after) 503
             (error_body ~code:"DRAIN" "draining"))
      else if Queue.length pending >= cfg.queue then
        respond conn
          (resp ~headers:(shed_headers cfg.retry_after) 503
             (error_body ~code:"QUEUE" "admission queue full"))
      else respond conn (resp ~headers:[ ("Content-Type", "text/plain") ] 200 "ready\n")
    | "GET", "/v1/stats" -> respond conn (resp 200 (stats_body ()))
    | "POST", "/v1/check" -> admit conn req `Check params
    | "POST", "/v1/pipeline" -> admit conn req `Pipeline params
    | _, ("/healthz" | "/readyz" | "/v1/stats") ->
      stats.refused <- stats.refused + 1;
      respond conn
        (resp ~headers:(("Allow", "GET") :: json_headers) 405
           (error_body ~code:"HTTP" "method not allowed"))
    | _, ("/v1/check" | "/v1/pipeline") ->
      stats.refused <- stats.refused + 1;
      respond conn
        (resp ~headers:(("Allow", "POST") :: json_headers) 405
           (error_body ~code:"HTTP" "method not allowed"))
    | _ ->
      stats.refused <- stats.refused + 1;
      respond conn (resp 404 (error_body ~code:"HTTP" "no such endpoint"))
  in
  (* --- socket events --- *)
  let read_chunk = Bytes.create 16384 in
  let handle_conn_readable conn =
    match
      try `Read (Unix.read conn.fd read_chunk 0 (Bytes.length read_chunk))
      with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> `Again
      | Unix.Unix_error _ -> `Closed
    with
    | `Again -> ()
    | `Closed -> abandon_conn conn
    | `Read 0 -> (
      match conn.phase with
      | Writing _ -> () (* half-close while we flush: keep writing *)
      | _ -> abandon_conn conn)
    | `Read n -> (
      match conn.phase with
      | Writing _ -> () (* pipelined extra bytes: ignored *)
      | Waiting _ -> () (* extra bytes after the request: ignored *)
      | Reading st -> (
        Http.feed st (Bytes.sub_string read_chunk 0 n);
        match Http.poll st with
        | `Await -> ()
        | `Error { Http.status; reason } ->
          stats.refused <- stats.refused + 1;
          respond conn (resp status (error_body ~code:"HTTP" reason))
        | `Request req -> route conn req))
  in
  let handle_conn_writable conn =
    match conn.phase with
    | Writing w -> (
      let len = String.length w.data - w.off in
      match
        try `Wrote (Unix.write_substring conn.fd w.data w.off len)
        with
        | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> `Again
        | Unix.Unix_error _ -> `Closed
      with
      | `Again -> ()
      | `Closed -> close_conn conn
      | `Wrote n ->
        w.off <- w.off + n;
        if w.off >= String.length w.data then close_conn conn)
    | _ -> ()
  in
  let accept_new () =
    let rec loop () =
      match Unix.accept ~cloexec:true listen_fd with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> ()
      | fd, _addr ->
        if Hashtbl.length conns >= max_connections then close_fd fd
        else begin
          Unix.set_nonblock fd;
          Hashtbl.replace conns fd
            { fd; phase = Reading (Http.create ~limits ());
              deadline = now () +. cfg.read_timeout }
        end;
        loop ()
    in
    loop ()
  in
  let handle_job_pipes job readables =
    let drain_fd which fd =
      if List.memq fd readables then begin
        match
          try `Read (Unix.read fd read_chunk 0 (Bytes.length read_chunk))
          with
          | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> `Again
          | Unix.Unix_error _ -> `Eof
        with
        | `Again -> ()
        | `Eof | `Read 0 ->
          close_fd fd;
          (match which with
           | `Out -> job.out_fd <- None
           | `Err -> job.err_fd <- None)
        | `Read n ->
          let buf = match which with `Out -> job.out_buf | `Err -> job.err_buf in
          Buffer.add_subbytes buf read_chunk 0 n;
          if Buffer.length job.out_buf + Buffer.length job.err_buf > max_job_output
             && not job.output_overflow
          then begin
            job.output_overflow <- true;
            kill_job job
          end
      end
    in
    Option.iter (drain_fd `Out) job.out_fd;
    Option.iter (drain_fd `Err) job.err_fd
  in
  (* --- main loop --- *)
  let cleanup_and_exit code =
    close_listen ();
    Hashtbl.iter (fun _ c -> close_fd c.fd) conns;
    Hashtbl.iter
      (fun _ j ->
        kill_job j;
        try ignore (retry_eintr (fun () -> Unix.waitpid [] j.pid))
        with Unix.Unix_error _ -> ())
      running;
    close_fd sig_r;
    close_fd sig_w;
    Sys.set_signal Sys.sigterm prev_term;
    Sys.set_signal Sys.sigint prev_int;
    restore_pipe ();
    Sys.set_signal Sys.sigchld prev_chld;
    note
      "drained: accepted=%d completed=%d shed_queue=%d shed_tenant=%d \
       timeouts=%d crashes=%d disconnects=%d"
      stats.accepted stats.completed stats.shed_queue stats.shed_tenant
      stats.timeouts stats.crashes stats.disconnects;
    code
  in
  let rec loop () =
    (* Drain transition: stop accepting; connections still mid-read get an
       immediate 503 (their requests were never accepted); admitted jobs
       keep running and will be answered. *)
    if !drain_requested && not !draining then begin
      draining := true;
      (* Close the front door outright: late connects are refused by the
         kernel instead of rotting unaccepted in the backlog. *)
      close_listen ();
      note "drain requested: %d running, %d queued, %d connections"
        (Hashtbl.length running) (Queue.length pending) (Hashtbl.length conns);
      Hashtbl.iter
        (fun _ conn ->
          match conn.phase with
          | Reading _ ->
            stats.shed_drain <- stats.shed_drain + 1;
            respond conn
              (resp ~headers:(shed_headers cfg.retry_after) 503
                 (error_body ~code:"DRAIN" "daemon is draining"))
          | _ -> ())
        conns
    end;
    if !draining
       && Hashtbl.length running = 0
       && Queue.is_empty pending
       && Hashtbl.length conns = 0
    then cleanup_and_exit 0
    else begin
      let t = now () in
      (* Expired leases and connection deadlines. *)
      Hashtbl.iter
        (fun _ job ->
          if t >= job.lease_expiry && not job.timed_out then begin
            job.timed_out <- true;
            note "job %d: lease expired; killing process group %d" job.id job.pid;
            kill_job job
          end)
        running;
      let expired =
        Hashtbl.fold
          (fun _ conn acc -> if t >= conn.deadline then conn :: acc else acc)
          conns []
      in
      List.iter
        (fun conn ->
          match conn.phase with
          | Reading _ ->
            stats.read_timeouts <- stats.read_timeouts + 1;
            respond conn
              (resp 408 (error_body ~code:"HTTP" "timed out reading the request"))
          | Writing _ -> close_conn conn
          | Waiting _ -> ())
        expired;
      (* Reap any job whose pipes are drained. *)
      let done_jobs =
        Hashtbl.fold
          (fun _ job acc ->
            if job.out_fd = None && job.err_fd = None then job :: acc else acc)
          running []
      in
      List.iter
        (fun job ->
          match retry_eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] job.pid) with
          | 0, _ -> () (* closed its stdio but still running: wait more *)
          | exception Unix.Unix_error _ -> finish_job job (Unix.WEXITED 127)
          | _, status -> finish_job job status)
        done_jobs;
      schedule ();
      (* Build the fd sets. *)
      let reads = ref [ sig_r ] in
      let writes = ref [] in
      if not !draining then reads := listen_fd :: !reads;
      Hashtbl.iter
        (fun _ conn ->
          match conn.phase with
          | Reading _ | Waiting _ -> reads := conn.fd :: !reads
          | Writing _ -> writes := conn.fd :: !writes)
        conns;
      Hashtbl.iter
        (fun _ job ->
          Option.iter (fun fd -> reads := fd :: !reads) job.out_fd;
          Option.iter (fun fd -> reads := fd :: !reads) job.err_fd)
        running;
      (* Wake for the earliest deadline, within [5ms, 1s]. *)
      let timeout =
        let earliest =
          Hashtbl.fold (fun _ c acc -> Float.min acc c.deadline) conns
            (Hashtbl.fold (fun _ j acc -> Float.min acc j.lease_expiry) running infinity)
        in
        if earliest = infinity then 1.0
        else Float.max 0.005 (Float.min 1.0 (earliest -. t))
      in
      let readable, writable, _ =
        try Unix.select !reads !writes [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.memq sig_r readable then begin
        try
          while Unix.read sig_r read_chunk 0 16 > 0 do () done
        with Unix.Unix_error _ -> ()
      end;
      if List.memq listen_fd readable then accept_new ();
      Hashtbl.iter (fun _ job -> handle_job_pipes job readable) running;
      (* Snapshot: handlers mutate the connection table. *)
      let snapshot = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
      List.iter
        (fun conn ->
          if Hashtbl.mem conns conn.fd then begin
            if List.memq conn.fd readable then handle_conn_readable conn;
            if Hashtbl.mem conns conn.fd && List.memq conn.fd writable then
              handle_conn_writable conn
          end)
        snapshot;
      loop ()
    end
  in
  loop ()
