(* Sharded execution of the check phase's tasks.  See the .mli for the
   contract; the key invariants live here:

   - one transport: [Frame] messages over a stream socket, one
     supervisor loop ([supervise]) and one worker task loop ([serve]).
     The local pool forks children over a [socketpair]; the fleet
     (lib/fleet) accepts TCP workers and adds its handshake on top;
   - one lease per worker: the supervisor sends a task index, the worker
     answers with a heartbeat (the lease clock restarts) and then one
     result, so a crashing worker loses only its in-flight task;
   - every fault collapses to dropping the connection: its lease is
     reassigned, or quarantined on the task's second crash and retried
     once in-process, and [replace] deals with the worker behind it;
   - results are keyed by task index, the first valid result wins, and
     each task runs on a fresh solver, so no matter which worker (or the
     supervisor) finally runs a task, the merged report is byte-identical
     across crash/reassign schedules;
   - every slow syscall is wrapped in an EINTR retry ([Util.retry_eintr]). *)

type result = {
  product : string;
  findings : Report.finding list;
  errors : Diag.t list;
  queries : int;
  certs : Smt.Solver.cert list;
  cert_failures : string list;
  retried : Smt.Solver.retry_entry list;
}

type task = { owner : string; run : unit -> result }

(* --- renumbering ----------------------------------------------------------- *)

(* Certification failure messages are rendered by the solver as
   "query %d: ...": rewrite the local index into the run-wide one. *)
let renumber_failure ~offset s =
  let prefix = "query " in
  let plen = String.length prefix in
  if String.length s > plen && String.sub s 0 plen = prefix then
    match String.index_from_opt s plen ':' with
    | Some i -> (
      match int_of_string_opt (String.sub s plen (i - plen)) with
      | Some q ->
        Printf.sprintf "query %d%s" (q + offset)
          (String.sub s i (String.length s - i))
      | None -> s)
    | None -> s
  else s

let renumber ~offset r =
  if offset = 0 then r
  else
    {
      r with
      certs =
        List.map
          (fun (c : Smt.Solver.cert) -> { c with query = c.query + offset })
          r.certs;
      cert_failures = List.map (renumber_failure ~offset) r.cert_failures;
      retried =
        List.map
          (fun (e : Smt.Solver.retry_entry) ->
            { e with rquery = e.rquery + offset })
          r.retried;
    }

(* --- JSON wire format ------------------------------------------------------- *)

(* [Json.t] has no float constructor; times cross the wire as hexadecimal
   float literals ("%h"), which round-trip exactly. *)
let float_to_json t = Json.Str (Printf.sprintf "%h" t)
let float_of_json j = Option.bind (Json.to_str j) float_of_string_opt

let diag_severity_to_string : Diag.severity -> string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let diag_severity_of_string = function
  | "error" -> Some Diag.Error
  | "warning" -> Some Diag.Warning
  | "info" -> Some Diag.Info
  | _ -> None

let diag_to_json (d : Diag.t) =
  Json.Obj
    [
      ("severity", Json.Str (diag_severity_to_string d.severity));
      ("code", Json.Str d.code);
      ("message", Json.Str d.message);
      ( "loc",
        match d.loc with
        | None -> Json.Null
        | Some loc ->
          Json.Obj
            [
              ("file", Json.Str loc.Devicetree.Loc.file);
              ("line", Json.Int loc.Devicetree.Loc.line);
              ("col", Json.Int loc.Devicetree.Loc.col);
            ] );
    ]

let ( let* ) = Option.bind

let diag_of_json j =
  let* severity = Option.bind (Json.member "severity" j) Json.to_str in
  let* severity = diag_severity_of_string severity in
  let* code = Option.bind (Json.member "code" j) Json.to_str in
  let* message = Option.bind (Json.member "message" j) Json.to_str in
  let* loc =
    match Json.member "loc" j with
    | Some Json.Null | None -> Some None
    | Some loc ->
      let* file = Option.bind (Json.member "file" loc) Json.to_str in
      let* line = Option.bind (Json.member "line" loc) Json.to_int in
      let* col = Option.bind (Json.member "col" loc) Json.to_int in
      Some (Some (Devicetree.Loc.make ~file ~line ~col))
  in
  Some { Diag.severity; code; message; loc }

let verdict_to_string = function `Sat -> "sat" | `Unsat -> "unsat"

let verdict_of_string = function
  | "sat" -> Some `Sat
  | "unsat" -> Some `Unsat
  | _ -> None

let cert_to_json (c : Smt.Solver.cert) =
  Json.Obj
    [
      ("query", Json.Int c.query);
      ("verdict", Json.Str (verdict_to_string c.verdict));
      ("steps", Json.Int c.steps);
      ("time", float_to_json c.time);
      ("ok", Json.Bool c.ok);
    ]

let cert_of_json j =
  let* query = Option.bind (Json.member "query" j) Json.to_int in
  let* verdict = Option.bind (Json.member "verdict" j) Json.to_str in
  let* verdict = verdict_of_string verdict in
  let* steps = Option.bind (Json.member "steps" j) Json.to_int in
  let* time = Option.bind (Json.member "time" j) float_of_json in
  let* ok = Option.bind (Json.member "ok" j) Json.to_bool in
  Some { Smt.Solver.query; verdict; steps; time; ok }

let polarity_to_string : Sat.Solver.polarity_mode -> string = function
  | Phase_saved -> "saved"
  | Phase_false -> "false"
  | Phase_true -> "true"
  | Phase_inverted -> "inverted"
  | Phase_random -> "random"

let polarity_of_string = function
  | "saved" -> Some Sat.Solver.Phase_saved
  | "false" -> Some Sat.Solver.Phase_false
  | "true" -> Some Sat.Solver.Phase_true
  | "inverted" -> Some Sat.Solver.Phase_inverted
  | "random" -> Some Sat.Solver.Phase_random
  | _ -> None

let attempt_to_json (a : Smt.Solver.attempt) =
  Json.Obj
    [
      ("attempt", Json.Int a.attempt);
      ("scale", Json.Int a.scale);
      ("seed", match a.seed with None -> Json.Null | Some s -> Json.Int s);
      ("polarity", Json.Str (polarity_to_string a.polarity));
      ( "result",
        Json.Str
          (match a.result with
           | `Sat -> "sat"
           | `Unsat -> "unsat"
           | `Unknown -> "unknown") );
      ("conflicts", Json.Int a.conflicts);
      ("time", float_to_json a.time);
    ]

let attempt_of_json j =
  let* attempt = Option.bind (Json.member "attempt" j) Json.to_int in
  let* scale = Option.bind (Json.member "scale" j) Json.to_int in
  let* seed =
    match Json.member "seed" j with
    | Some Json.Null | None -> Some None
    | Some (Json.Int s) -> Some (Some s)
    | Some _ -> None
  in
  let* polarity = Option.bind (Json.member "polarity" j) Json.to_str in
  let* polarity = polarity_of_string polarity in
  let* result = Option.bind (Json.member "result" j) Json.to_str in
  let* result =
    match result with
    | "sat" -> Some `Sat
    | "unsat" -> Some `Unsat
    | "unknown" -> Some `Unknown
    | _ -> None
  in
  let* conflicts = Option.bind (Json.member "conflicts" j) Json.to_int in
  let* time = Option.bind (Json.member "time" j) float_of_json in
  Some { Smt.Solver.attempt; scale; seed; polarity; result; conflicts; time }

let retry_entry_to_json (e : Smt.Solver.retry_entry) =
  Json.Obj
    [
      ("rquery", Json.Int e.rquery);
      ("attempts", Json.List (List.map attempt_to_json e.attempts));
      ("recovered", Json.Bool e.recovered);
    ]

let retry_entry_of_json j =
  let* rquery = Option.bind (Json.member "rquery" j) Json.to_int in
  let* attempts = Option.bind (Json.member "attempts" j) Json.to_list in
  let attempts' = List.filter_map attempt_of_json attempts in
  if List.length attempts' <> List.length attempts then None
  else
    let* recovered = Option.bind (Json.member "recovered" j) Json.to_bool in
    Some { Smt.Solver.rquery; attempts = attempts'; recovered }

let all_or_none of_json items =
  let parsed = List.filter_map of_json items in
  if List.length parsed <> List.length items then None else Some parsed

let result_to_json r =
  Json.Obj
    [
      ("product", Json.Str r.product);
      ("findings", Json.List (List.map Journal.finding_to_json r.findings));
      ("errors", Json.List (List.map diag_to_json r.errors));
      ("queries", Json.Int r.queries);
      ("certs", Json.List (List.map cert_to_json r.certs));
      ( "cert_failures",
        Json.List (List.map (fun s -> Json.Str s) r.cert_failures) );
      ("retried", Json.List (List.map retry_entry_to_json r.retried));
    ]

let result_of_json j =
  let* product = Option.bind (Json.member "product" j) Json.to_str in
  let* findings = Option.bind (Json.member "findings" j) Json.to_list in
  let* findings = all_or_none Journal.finding_of_json findings in
  let* errors = Option.bind (Json.member "errors" j) Json.to_list in
  let* errors = all_or_none diag_of_json errors in
  let* queries = Option.bind (Json.member "queries" j) Json.to_int in
  let* certs = Option.bind (Json.member "certs" j) Json.to_list in
  let* certs = all_or_none cert_of_json certs in
  let* cert_failures =
    Option.bind (Json.member "cert_failures" j) Json.to_str_list
  in
  let* retried = Option.bind (Json.member "retried" j) Json.to_list in
  let* retried = all_or_none retry_entry_of_json retried in
  Some { product; findings; errors; queries; certs; cert_failures; retried }

(* --- resource guards -------------------------------------------------------- *)

(* OCaml's Unix library exposes getrlimit through neither stdlib nor
   unix; two tiny C stubs (shard_stubs.c) cover the pool's needs. *)
external set_rlimit : int -> int -> int -> bool = "llhsc_set_rlimit"
external online_cpus_stub : unit -> int = "llhsc_online_cpus"

let online_cpus () = max 1 (online_cpus_stub ())
let rlimit_as = 0
let rlimit_cpu = 1

(* Workers install the guards after the fork, so a tripped limit takes
   down (or signals) only the one child.  RLIMIT_AS makes allocation
   fail, which OCaml surfaces as Out_of_memory; RLIMIT_CPU delivers
   SIGXCPU, which the handler turns into Resource_limit.  Both are owned
   by Diag.of_exn, so the task degrades to error[RESOURCE]. *)
let install_guards ~mem_limit ~cpu_limit =
  (match mem_limit with
   | Some mb when mb > 0 ->
     let bytes = mb * 1024 * 1024 in
     ignore (set_rlimit rlimit_as bytes bytes : bool)
   | _ -> ());
  match cpu_limit with
  | Some secs when secs > 0 ->
    Sys.set_signal Sys.sigxcpu
      (Sys.Signal_handle
         (fun _ -> raise (Diag.Resource_limit "cpu time limit exceeded")));
    (* Hard limit a few seconds above soft: if the handler cannot fire
       (e.g. a blocking C call), SIGKILL ends the worker and the
       supervisor reassigns the task. *)
    ignore (set_rlimit rlimit_cpu secs (secs + 5) : bool)
  | _ -> ()

(* --- fault injection (workers only) ------------------------------------------- *)

(* Deliberately exceed RLIMIT_AS: large untouched allocations raise the
   address-space watermark without paging in real memory, so the guard
   trips long before the machine feels it.  Only ever called when a
   memory limit is installed. *)
let gobble_memory () =
  let hoard = ref [] in
  for _ = 1 to 1024 do
    hoard := Bytes.create (128 * 1024 * 1024) :: !hoard
  done;
  ignore (Sys.opaque_identity !hoard)

(* --- task execution -------------------------------------------------------- *)

let degraded_result ~owner (d : Diag.t) =
  {
    product = owner;
    findings = [];
    errors =
      [ { d with Diag.message = Printf.sprintf "product %s: %s" owner d.Diag.message } ];
    queries = 0;
    certs = [];
    cert_failures = [];
    retried = [];
  }

let run_task_guarded (t : task) =
  try t.run ()
  with e -> (
    match Diag.of_exn e with
    | Some d -> degraded_result ~owner:t.owner d
    | None -> raise e)

(* --- connections ------------------------------------------------------------- *)

(* One framed byte stream, seen from either end.  The supervisor-only
   fields (outbox, lease, handshake) sit unused on the worker side. *)
type conn = {
  fd : Unix.file_descr;
  peer : string;
  dec : Frame.Decoder.t;
  mutable key : string option;  (* session key once authenticated *)
  mutable seq_in : int;  (* next expected MAC sequence number, inbound *)
  mutable seq_out : int;
  out : Buffer.t;  (* encoded frames not yet written *)
  mutable out_pos : int;
  mutable alive : bool;
  mutable why : string;  (* what the peer did to get dropped *)
  mutable handshake : (Json.t -> unit) option;  (* [None] once admitted *)
  created : float;
  lease : Supervise.Lease.t;
}

let conn ?(peer = "?") fd =
  { fd; peer; dec = Frame.Decoder.create (); key = None; seq_in = 0; seq_out = 0;
    out = Buffer.create 256; out_pos = 0; alive = true; why = ""; handshake = None;
    created = Unix.gettimeofday (); lease = Supervise.Lease.create () }

let peer c = c.peer
let set_key c key = c.key <- Some key
let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let seal c body =
  match c.key with
  | None -> body
  | Some key ->
    let sealed = Frame.seal ~key ~seq:c.seq_out body in
    c.seq_out <- c.seq_out + 1;
    sealed

(* The next complete message buffered in [c]'s decoder.  After the
   handshake every frame must carry the session MAC with the next
   sequence number: a forged, spliced or replayed frame is never data. *)
let next_msg c =
  match Frame.Decoder.next c.dec with
  | `Awaiting -> `Awaiting
  | `Corrupt m -> `Bad (Printf.sprintf "sent a corrupt frame (%s)" m)
  | `Frame payload -> (
    let body =
      match c.key with
      | None -> Some payload
      | Some key ->
        let b = Frame.unseal ~key ~seq:c.seq_in payload in
        if b <> None then c.seq_in <- c.seq_in + 1;
        b
    in
    match body with
    | None -> `Forged
    | Some body -> (
      match Json.parse body with
      | Ok j -> `Msg j
      | Error e -> `Bad (Printf.sprintf "sent an unparsable frame (%s)" e)))

exception Protocol of string
exception Dropped

let send c j = Frame.write c.fd (seal c (Json.to_string j))

let rec recv c =
  match next_msg c with
  | `Msg j -> Some j
  | `Bad m -> raise (Protocol m)
  | `Forged -> raise (Protocol "frame MAC mismatch")
  | `Awaiting -> (
    match Frame.read_chunk c.fd c.dec with `Eof -> None | `Data _ -> recv c)

(* --- messages ------------------------------------------------------------------ *)

let msg_task i = Json.to_string (Json.Obj [ ("task", Json.Int i) ])
let msg_retire = Json.to_string (Json.Obj [ ("retire", Json.Bool true) ])

let stamped ~spec i = [ ("task", Json.Int i); ("spec", Json.Str spec) ]

(* --- worker side ------------------------------------------------------------------ *)

(* The connection-drop hook fires once per process. *)
let drops = Fault.counter ()

(* Every leased task answers with a heartbeat (the supervisor restarts
   its lease clock) and then the stamped result.  The fault hooks sit at
   the points where a real worker can fail. *)
let serve ~spec ~mem_limit (tasks : task array) c =
  let rec loop () =
    match recv c with
    | None -> `Closed
    | Some j -> (
      match Option.bind (Json.member "task" j) Json.to_int with
      | Some i ->
        if i < 0 || i >= Array.length tasks then
          raise (Protocol (Printf.sprintf "task %d out of range" i));
        if Fault.fires Fault.Kill_worker i then Fault.kill_self ();
        send c (Json.Obj [ ("hb", Json.Obj (stamped ~spec i)) ]);
        if Fault.fires Fault.Hang_worker i then
          (* Simulated livelock: only the lease deadline can end this. *)
          while true do
            Unix.sleep 3600
          done;
        if Fault.fires Fault.Drop_conn_worker i && !drops = 0 then begin
          incr drops;
          raise Dropped
        end;
        let t = tasks.(i) in
        (* Inside the task guard, a tripped memory limit degrades to
           error[RESOURCE] exactly like a genuine allocation failure. *)
        let t =
          if Fault.fires Fault.Oom_worker i && mem_limit <> None then
            { t with run = (fun () -> gobble_memory (); t.run ()) }
          else t
        in
        let r = run_task_guarded t in
        if Fault.fires Fault.Delay_result_worker i then Unix.sleepf 2.0;
        let msg =
          Json.Obj
            [ ("result", Json.Obj (stamped ~spec i @ [ ("r", result_to_json r) ])) ]
        in
        send c msg;
        if Fault.fires Fault.Dup_result_worker i then send c msg;
        loop ()
      | None ->
        if Json.member "retire" j <> None then `Retired
        else raise (Protocol "unknown message"))
  in
  loop ()

(* --- supervisor side -------------------------------------------------------------- *)

(* Supervision notices go to stderr only and never into the report:
   *what* happened to the workers must not change *what the checker
   found*. *)
let notice fmt = Printf.eprintf ("llhsc: " ^^ fmt ^^ "\n%!")

type pool = { mutable conns : conn list; admit : conn -> (Json.t -> unit) option }

let live pool = List.length (List.filter (fun c -> c.alive) pool.conns)

let add pool ~peer fd =
  Unix.set_nonblock fd;
  let c = conn ~peer fd in
  c.handshake <- pool.admit c;
  pool.conns <- pool.conns @ [ c ];
  c

(* The [why] of an authentication rejection, which prints its own
   notice[AUTH] line. *)
let auth_failure = "failed authentication"

let drop c why =
  if c.alive then begin
    c.alive <- false;
    c.why <- why;
    close_quiet c.fd
  end

let ready c = c.handshake <- None

(* Write as much of the outbox as the socket takes right now.  A write
   error is a lost worker, not a failed run: SIGPIPE is ignored, so a
   peer vanishing mid-write surfaces here as EPIPE/ECONNRESET. *)
let flush_out c =
  let s = Buffer.contents c.out in
  let len = String.length s in
  (try
     while c.alive && c.out_pos < len do
       c.out_pos <-
         c.out_pos
         + Util.retry_eintr (fun () ->
               Unix.write_substring c.fd s c.out_pos (len - c.out_pos))
     done
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error _ -> drop c "failed mid-write");
  if c.out_pos >= len then begin
    Buffer.clear c.out;
    c.out_pos <- 0
  end

let post c body =
  if c.alive then begin
    Buffer.add_string c.out (Frame.encode (seal c body));
    flush_out c
  end

let peer_name fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (ip, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port
  | Unix.ADDR_UNIX p -> p
  | exception Unix.Unix_error _ -> "?"

(* How long a connection may dawdle before its handshake completes; a
   connected-but-silent peer must not hold the run forever. *)
let handshake_timeout = 10.0

let supervise ?deadline ?listen ~spec ~admit ~replace ~fresh st
    (tasks : task array) =
  let n = Array.length tasks in
  let owner i = tasks.(i).owner in
  let pool = { conns = []; admit } in
  let restore_sigpipe = Util.ignore_sigpipe () in
  (* One lease per admitted worker.  The lease starts before the
     (fallible) send: if the write drops the connection, the crash path
     already sees the task. *)
  let fill c =
    if c.alive && c.handshake = None && Supervise.Lease.task c.lease = None then
      match Supervise.next st with
      | None -> ()
      | Some i ->
        Supervise.Lease.start c.lease i (Unix.gettimeofday ());
        post c (msg_task i)
  in
  let on_result c j =
    match
      ( Option.bind (Json.member "task" j) Json.to_int,
        Option.bind (Json.member "r" j) result_of_json )
    with
    | Some i, Some r
      when Json.member "spec" j = Some (Json.Str spec)
           && i >= 0 && i < n && r.product = owner i ->
      let leased = Supervise.Lease.task c.lease = Some i in
      Supervise.Lease.finish c.lease i;
      if (not leased) && Option.is_none (Supervise.results st).(i) then
        drop c (Printf.sprintf "sent a result for task %d it was not leased" i)
      else (
        match Supervise.resolve st i r with
        | `Fresh -> fresh i r
        | `Duplicate ->
          (* A reassigned task completing twice, or a duplicated send:
             the first valid result won. *)
          notice "duplicate result for task %d from %s ignored" i c.peer)
    | _ -> drop c "sent an invalid result"
  in
  let on_msg c j =
    match (c.handshake, Json.member "result" j, Json.member "hb" j) with
    | Some shake, _, _ -> shake j
    | None, Some r, _ -> on_result c r
    | None, None, Some hb -> (
      match Option.bind (Json.member "task" hb) Json.to_int with
      | Some i when Json.member "spec" hb = Some (Json.Str spec) ->
        Supervise.Lease.beat c.lease i (Unix.gettimeofday ())
      | _ -> ())
    | None, None, None -> (
      match Option.bind (Json.member "error" j) Json.to_str with
      | Some msg -> drop c ("failed: " ^ msg)
      | None -> drop c "sent an unknown message")
  in
  let on_readable c =
    match Frame.read_chunk c.fd c.dec with
    | exception Unix.Unix_error _ -> drop c "failed mid-read"
    | `Eof -> drop c "disconnected"
    | `Data _ ->
      let rec drain () =
        if c.alive then
          match next_msg c with
          | `Awaiting -> ()
          | `Bad why -> drop c why
          | `Forged ->
            notice "notice[AUTH] %s: frame MAC mismatch mid-stream" c.peer;
            drop c auth_failure
          | `Msg j ->
            on_msg c j;
            drain ()
      in
      drain ()
  in
  (* A worker whose lease outlives the deadline is presumed hung: drop
     it, and let [replace] deal with what is behind the connection. *)
  let expire now =
    List.iter
      (fun c ->
        match (c.handshake, deadline) with
        | Some _, _ when now -. c.created > handshake_timeout ->
          drop c "stalled"
        | None, Some dl -> (
          match Supervise.Lease.expired c.lease ~deadline:dl ~now with
          | None -> ()
          | Some i ->
            notice
              "task %d (product %s): deadline of %.1fs expired; dropping hung \
               worker %s"
              i (owner i) dl c.peer;
            drop c "hung")
        | _ -> ())
      pool.conns
  in
  (* Wake at least every 0.25 s: handshake stalls and [replace]'s own
     clocks (the fleet's registration grace) need a tick. *)
  let select_timeout now =
    match deadline with
    | None -> 0.25
    | Some dl ->
      List.fold_left
        (fun t c ->
          match Supervise.Lease.next_expiry c.lease ~deadline:dl ~now with
          | Some dt -> Float.min t (Float.max 0. dt)
          | None -> t)
        0.25 pool.conns
  in
  (* A lost worker's lease goes back on the queue, or into quarantine on
     its task's second crash.  A connection lost before it was admitted
     held no lease, so it is named here. *)
  let bury c =
    if c.handshake <> None && c.why <> auth_failure then
      notice "worker %s dropped during handshake: %s" c.peer c.why;
    Option.iter
      (fun i ->
        Supervise.Lease.finish c.lease i;
        match Supervise.record_crash st i with
        | `Resolved -> ()
        | `Reassign ->
          notice "worker %s %s; reassigning task %d (product %s)" c.peer c.why i
            (owner i)
        | `Quarantine k ->
          notice
            "task %d (product %s): crashed %d workers; quarantined as poison \
             task, will retry in-process"
            i (owner i) k)
      (Supervise.Lease.task c.lease)
  in
  let rec rounds () =
    let lost = List.filter (fun c -> not c.alive) pool.conns in
    pool.conns <- List.filter (fun c -> c.alive) pool.conns;
    List.iter bury lost;
    if Supervise.unfinished st && replace pool lost then begin
      let now = Unix.gettimeofday () in
      expire now;
      List.iter fill pool.conns;
      let live = List.filter (fun c -> c.alive) pool.conns in
      let rfds = Option.to_list listen @ List.map (fun c -> c.fd) live in
      let wfds =
        List.filter_map
          (fun c -> if Buffer.length c.out > c.out_pos then Some c.fd else None)
          live
      in
      (match Unix.select rfds wfds [] (select_timeout now) with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | readable, writable, _ ->
         Option.iter
           (fun lfd ->
             if List.memq lfd readable then
               match Util.retry_eintr (fun () -> Unix.accept lfd) with
               | exception Unix.Unix_error _ -> () (* EAGAIN, ECONNABORTED, ... *)
               | fd, _ ->
                 (try Unix.setsockopt fd Unix.TCP_NODELAY true
                  with Unix.Unix_error _ -> ());
                 ignore (add pool ~peer:(peer_name fd) fd : conn))
           listen;
         List.iter
           (fun c -> if c.alive && List.memq c.fd writable then flush_out c)
           live;
         List.iter
           (fun c -> if c.alive && List.memq c.fd readable then on_readable c)
           live);
      List.iter fill pool.conns;
      rounds ()
    end
  in
  let run () =
    rounds ();
    (* Retire the survivors (best effort: a worker that vanishes now has
       nothing left to contribute). *)
    List.iter
      (fun c ->
        if c.alive then begin
          (try
             Unix.clear_nonblock c.fd;
             flush_out c;
             if c.alive then Frame.write c.fd (seal c msg_retire)
           with Unix.Unix_error _ -> ());
          drop c "retired"
        end)
      pool.conns;
    (* In-process sweep: a quarantined poison task gets its one local
       retry here (the fault hooks are read only by workers), and the
       same path finishes every leftover once no worker can come back.
       Identical closures on a fresh solver keep the results
       byte-identical to a worker run. *)
    List.iter
      (fun i ->
        if Supervise.is_quarantined st i then
          notice "task %d (product %s): retrying poison task in-process" i (owner i);
        match run_task_guarded tasks.(i) with
        | r -> if Supervise.resolve st i r = `Fresh then fresh i r
        | exception e ->
          (* Unknown exception even in-process: the merge degrades this
             task to error[WORKER]. *)
          notice "task %d (product %s): in-process retry failed (%s)" i (owner i)
            (Printexc.to_string e))
      (Supervise.unresolved st)
  in
  Fun.protect ~finally:restore_sigpipe run;
  Supervise.results st

(* --- the local pool --------------------------------------------------------------- *)

(* A forked child inherits the task array, so there is no spec to agree
   on: every message carries this stamp instead of a spec hash. *)
let local_spec = "local"

let run_local ~jobs ~deadline ~max_respawns ~mem_limit ~cpu_limit ~fresh
    (tasks : task array) =
  let st = Supervise.create (Array.length tasks) in
  let pids = ref [] in
  let spawned = ref 0 in
  let spawn pool =
    Util.flush_std ();
    let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.fork () with
    | 0 ->
      (* Children exit through [_exit], never [exit]: the parent's
         [at_exit] handlers and buffers must not run a second time.  A
         Ctrl-C reaches the whole process group, and only the parent
         reports it: a child dies of SIGINT or SIGTERM silently instead
         of running the handlers it inherited. *)
      Sys.set_signal Sys.sigint Sys.Signal_default;
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      close_quiet mine;
      List.iter (fun c -> close_quiet c.fd) pool.conns;
      install_guards ~mem_limit ~cpu_limit;
      Unix._exit
        (match serve ~spec:local_spec ~mem_limit tasks (conn theirs) with
         | `Retired | `Closed -> 0
         | exception Dropped ->
           (* A child treats a dropped connection as its own death. *)
           prerr_endline "llhsc worker: injected connection drop";
           125
         | exception e ->
           Printf.eprintf "llhsc worker: %s\n%!" (Printexc.to_string e);
           125)
    | pid ->
      close_quiet theirs;
      pids := (add pool ~peer:(Printf.sprintf "pid %d" pid) mine, pid) :: !pids
  in
  let reap c =
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Util.retry_eintr (fun () -> Unix.waitpid [] pid))
        with Unix.Unix_error _ -> ())
      (List.assq_opt c !pids);
    pids := List.remove_assq c !pids
  in
  (* Whatever took a worker down, the child behind it is killed and
     reaped; its slot is refilled while work is queued.  The first
     [jobs] spawns are the pool itself, later ones spend the respawn
     budget after an exponential backoff. *)
  let replace pool lost =
    List.iter reap lost;
    for _ = live pool + 1 to jobs do
      if Supervise.has_pending st && !spawned < jobs + max_respawns then begin
        if !spawned >= jobs then
          Unix.sleepf (Float.min 0.5 (0.02 *. (2. ** float_of_int (!spawned - jobs))));
        incr spawned;
        spawn pool
      end
    done;
    if live pool = 0 && Supervise.has_pending st then
      notice "worker respawn budget (%d) exhausted; finishing %d task(s) in-process"
        max_respawns (Supervise.pending_count st);
    live pool > 0
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (c, _) -> reap c) !pids)
    (fun () ->
      supervise ?deadline ~spec:local_spec ~admit:(fun _ -> None) ~replace ~fresh
        st tasks)

let run_tasks ~jobs ?deadline ?(max_respawns = 8) ?mem_limit ?cpu_limit
    ?(fresh = fun _ _ -> ()) (tasks : task array) =
  let jobs = min jobs (Array.length tasks) in
  if jobs <= 1 then
    (* In-process path: no forks, no hooks, no guards — this is the
       reference schedule every supervised run must match byte for
       byte. *)
    Array.mapi
      (fun i t ->
        let r = t.run () in
        fresh i r;
        Some r)
      tasks
  else run_local ~jobs ~deadline ~max_respawns ~mem_limit ~cpu_limit ~fresh tasks
