(** [llhsc serve]: a long-lived, overload-safe, multi-tenant HTTP
    checking daemon over the batch pipeline.

    One select-driven event loop owns every socket; checking work never
    runs in the daemon process.  Each admitted request is decoded in
    memory into a {e job} ({!work}), and a forked child (its own
    session/process group) hands it to the CLI's job runner — the code
    the batch CLI runs once it has read its files, so a served verdict
    can be diffed against [llhsc check]/[llhsc pipeline] on the same
    inputs.  No request byte touches the file system: a job's
    [/include/]s resolve among the files its request shipped and nowhere
    else.  The child is a fork of the daemon, not an exec: before the
    runner starts it closes every descriptor the daemon owns, resets the
    signals the daemon catches to their defaults and zeroes the fault
    counters ({!Llhsc.Fault.reset}); it flushes its output and leaves
    through [Unix._exit].  Pipeline jobs may
    fan out onto the supervised {!Llhsc.Shard} pool inside the child
    ([jobs] in the request body, clamped by [max_request_jobs]).

    Robustness contract (see DESIGN.md for the full table):
    - {b Bounded admission.}  At most [queue] jobs wait and [workers]
      run; a request arriving beyond that is shed {e immediately} with
      [429] + [Retry-After] — the daemon never buffers unbounded work.
    - {b Tenant quotas.}  Jobs in flight are counted per API key
      ([X-Api-Key], default tenant ["anonymous"]); a tenant at its
      [tenant_quota] is shed with [429] without touching the queue.
    - {b Request leases.}  A running job holds a lease exactly like a
      shard task: started now, expiring at now + [request_deadline];
      an expired job's process group is SIGKILLed and the client gets
      [504].
    - {b Connection hygiene.}  Slow-loris reads are cut by
      [read_timeout] ([408]); stuck writes by [write_timeout]; bodies by
      [max_body_bytes] ([413], refused at the Content-Length declaration
      when possible); header blocks by [max_header_bytes] ([431]).
      A malformed or hostile connection only ever costs its own socket.
    - {b Exactly one response.}  Every accepted request is answered
      exactly once — including when its job crashes ([500]), overruns
      its lease ([504]), or the daemon is asked to drain ([503] for
      not-yet-admitted requests).  A client that disconnects first has
      its job killed and its slot released.
    - {b Graceful drain.}  SIGTERM/SIGINT stop the accept loop, finish
      (and answer) every admitted job, then return 0. *)

type config = {
  host : string;              (** bind address, e.g. ["127.0.0.1"] *)
  port : int;                 (** 0 picks an ephemeral port *)
  workers : int;              (** max concurrently running jobs *)
  queue : int;                (** max jobs waiting for a worker slot *)
  tenant_quota : int;         (** max in-flight jobs per API key *)
  request_deadline : float option;  (** seconds per job; [None] = no lease *)
  read_timeout : float;       (** seconds to receive a complete request *)
  write_timeout : float;      (** seconds to flush a response *)
  max_body_bytes : int;
  max_header_bytes : int;
  retry_after : int;          (** seconds hinted on every 429/503 shed *)
  max_request_jobs : int;     (** clamp on the request body's [jobs] field *)
  dispatch : (string * int) list;
      (** fleet listen addresses ([--dispatch HOST:PORT,...]): each is
          reserved by at most one running pipeline job at a time, which
          gets it as {!work}'s [dispatch] and runs as a fleet dispatcher
          listening there, so operator-run workers execute the tasks.
          Fleet trouble —
          no worker inside the registration grace, address already
          bound, workers lost mid-run — degrades to the dispatcher's
          in-process sweep; with no free address the job runs the plain
          local fork pool.  [/v1/stats] counts both backends. *)
  verbose : bool;             (** supervision notices on stderr *)
}

val default_config : config

(** What a job runs, decoded from its request at admission. *)
type work =
  | Check of {
      file : string;  (** [X-Llhsc-Filename], default [request.dts] *)
      text : string;  (** the request body *)
      certify : bool;
      semantic_only : bool;
      syntactic_only : bool;
    }  (** [POST /v1/check]: the body checked as [llhsc check] checks a file *)
  | Pipeline of {
      spec : Fleet.Spec.t;
      pool : Fleet.Spec.pool;
          (** [jobs] clamped by [max_request_jobs]; a job with [jobs > 1]
              gets [request_deadline] as its task lease *)
      dispatch : (string * int) option;
          (** the claimed [--dispatch] address, [None] for the local pool *)
    }  (** [POST /v1/pipeline] ({!Fleet.Spec.of_request}) *)

(** Run the daemon until a drain signal completes; returns the process
    exit code (0 on a clean drain).  [run] is what each job child runs
    on its job; it returns the child's exit code.  Prints one
    ["llhsc serve: listening on HOST:PORT ..."] line on stdout once the
    socket is bound; test harnesses parse it for the ephemeral port.

    Test hook: when the environment variable [LLHSC_SERVE_TEST_HOOKS=1]
    is set, the [X-Llhsc-Test-Delay-Ms] request header makes the job
    child sleep before the runner starts — deterministic queue saturation
    and deadline overruns for the smoke harness, inert in production. *)
val run : run:(work -> int) -> config -> int
