(* A fleet worker: connect to a dispatcher, replan its run from the
   shipped spec, and execute leased tasks until retired.

   The worker is deliberately stateless across connections: everything
   it needs arrives in the setup message, and every connection replans
   from the spec shipped on it.  Task results go back as one frame each,
   stamped with the spec hash and validated again on the dispatcher —
   the worker is not trusted, merely useful.

   Connection loss is survived, not fatal: exponential-backoff reconnect,
   bounded by [max_reconnects] consecutive failures (a completed
   handshake resets the counter).  A [retire] message is a clean exit
   (code 0), and so is a port file that says the dispatcher finished,
   read while resolving the port or after a refused connect; exhausting
   reconnects exits 1 so a supervisor can tell "fleet finished without me"
   from "I was told to go".

   Once the handshake is done, leased tasks run in {!Shard.serve}, the
   same task loop a forked local worker runs, with the same six fault
   hooks (see shard.mli); an injected connection drop reconnects. *)

module Json = Llhsc.Json
module Shard = Llhsc.Shard
module Util = Llhsc.Util

type config = {
  host : string;
  port : int option;
  port_file : string option; (* read the port from here when [port] is None *)
  max_reconnects : int;
  mem_limit : int option;
  cpu_limit : int option;
  secret : string option; (* shared fleet secret (--secret-file) *)
}

let notice fmt =
  Format.kfprintf
    (fun f -> Format.pp_print_newline f (); Format.pp_print_flush f ())
    Format.err_formatter
    ("llhsc worker: " ^^ fmt)

exception Retired

(* The dispatcher's port file holds {!Dispatch.closed_marker}: its run is
   over. *)
exception Finished

type port_file =
  | Port of int
  | Closed (* {!Dispatch.closed_marker} *)
  | Unreadable (* missing or half-written *)

let read_port_file path =
  match open_in path with
  | exception Sys_error _ -> Unreadable
  | ic -> (
    let line = try Some (String.trim (input_line ic)) with _ -> None in
    close_in ic;
    match line with
    | Some l when l = Dispatch.closed_marker -> Closed
    | Some l -> ( match int_of_string_opt l with Some p -> Port p | None -> Unreadable)
    | None -> Unreadable)

(* The dispatcher writes the port file after binding, often a few ms
   after this worker starts: poll it every 2 ms for up to 10 s, so a
   worker started beside its dispatcher connects as soon as it can.  A
   closed marker counts once it has stood for [closed_grace] seconds: a
   dispatcher deletes its port file as it starts, so an earlier run's
   marker is gone by then if the next run started beside this worker. *)
let closed_grace = 0.25

let resolve_port cfg =
  match (cfg.port, cfg.port_file) with
  | Some p, _ -> Some p
  | None, Some path ->
    let give_up = Unix.gettimeofday () +. 10. in
    let rec wait closed_since =
      let now = Unix.gettimeofday () in
      match read_port_file path with
      | Port p -> Some p
      | Closed ->
        let since = Option.value closed_since ~default:now in
        if now -. since >= closed_grace then raise Finished;
        Unix.sleepf 0.002;
        wait (Some since)
      | Unreadable when now < give_up ->
        Unix.sleepf 0.002;
        wait None
      | Unreadable -> None
    in
    wait None
  | None, None -> None

let connect cfg =
  match resolve_port cfg with
  | None -> failwith "no dispatcher port: need --connect HOST:PORT or --port-file"
  | Some port ->
    let addr = Dispatch.addr_of cfg.host port in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect fd addr
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       (* Refused: the dispatcher may have finished since the port was
          read. *)
       (match (e, cfg.port, cfg.port_file) with
        | Unix.Unix_error (Unix.ECONNREFUSED, _, _), None, Some path ->
          if read_port_file path = Closed then raise Finished
        | _ -> ());
       raise e);
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    fd

(* Reconnect delay before attempt [attempt]: exponential base capped at
   5 s, with deterministic ±25% jitter drawn from (seed, attempt) so a
   restarted dispatcher sees its workers trickle back instead of a
   thundering herd of synchronized reconnects.  Pure (exposed for the
   bounds unit test); [run] seeds it with the worker's pid. *)
let backoff_delay ~seed ~attempt =
  let base = Float.min 5.0 (0.2 *. (2. ** float_of_int (attempt - 1))) in
  let x =
    ref (Int64.logxor 0x9E3779B97F4A7C15L (Int64.of_int ((seed * 1000003) + attempt)))
  in
  if !x = 0L then x := 1L;
  for _ = 1 to 3 do
    x := Int64.logxor !x (Int64.shift_left !x 13);
    x := Int64.logxor !x (Int64.shift_right_logical !x 7);
    x := Int64.logxor !x (Int64.shift_left !x 17)
  done;
  let u =
    Int64.to_float (Int64.shift_right_logical (Int64.mul !x 0x2545F4914F6CDD1DL) 11)
    /. 9007199254740992.0
  in
  base *. (0.75 +. (0.5 *. u))

(* One connection's lifetime: hello (with a fresh nonce when a secret
   is configured), the mutual HMAC challenge–response, build the task
   array, then serve leased tasks until retire/EOF.  Returns
   [true] when the handshake completed (resets the reconnect budget).

   Auth protocol (see DESIGN.md "fleet trust"): the worker's hello
   carries nonce_w; a secret-holding dispatcher replies with
   {challenge: {nonce: nonce_d, mac: Dispatch.challenge_mac}}; the worker
   verifies (constant-time) and answers {auth: {mac:
   Dispatch.answer_mac}}.  Both sides then derive Dispatch.session_key
   and every further frame in each direction is sealed with it and a
   per-direction sequence number ({!Frame.seal}).  A secret-configured
   worker never accepts a spec from a dispatcher that did not complete
   the challenge. *)
let session fd ~secret ~mem_limit =
  let c = Shard.conn ~peer:"dispatcher" fd in
  let authed = ref false in
  let nonce_w =
    match secret with Some _ -> Some (Llhsc.Hmac.nonce ()) | None -> None
  in
  Shard.send c
    (Json.Obj
       [ ( "hello",
           Json.Obj
             (("pid", Json.Int (Unix.getpid ()))
             ::
             (match nonce_w with
             | Some n -> [ ("nonce", Json.Str n) ]
             | None -> [])) ) ]);
  let answer_challenge cj =
    match (secret, nonce_w) with
    | Some secret, Some nw ->
      let field name =
        match Option.bind (Json.member name cj) Json.to_str with
        | Some v -> v
        | None -> raise (Shard.Protocol ("challenge without " ^ name))
      in
      let nd = field "nonce" in
      let mac = Dispatch.challenge_mac ~secret ~nw ~nd in
      if not (Llhsc.Hmac.equal mac (field "mac")) then
        raise (Shard.Protocol "dispatcher failed authentication");
      let mac = Dispatch.answer_mac ~secret ~nw ~nd in
      Shard.send c (Json.Obj [ ("auth", Json.Obj [ ("mac", Json.Str mac) ]) ]);
      Shard.set_key c (Dispatch.session_key ~secret ~nw ~nd);
      authed := true
    | _ -> raise (Shard.Protocol "dispatcher requires authentication (--secret-file)")
  in
  (* [Some (hash, tasks)] once a setup planned; [None] to keep waiting. *)
  let plan sj j =
    if secret <> None && not !authed then
      raise (Shard.Protocol "dispatcher did not authenticate");
    let h =
      match Option.bind (Json.member "hash" j) Json.to_str with
      | Some h -> h
      | None -> raise (Shard.Protocol "setup without hash")
    in
    let built =
      match Spec.of_wire sj with
      | None -> Error "malformed spec"
      | Some spec when Spec.hash spec <> h -> Error "spec hash mismatch"
      | Some spec -> Spec.build spec
    in
    match built with
    | Error msg ->
      Shard.send c (Json.Obj [ ("error", Json.Str msg) ]);
      notice "cannot plan the shipped run: %s" msg;
      None
    | Ok ts ->
      Shard.send c
        (Json.Obj
           [ ( "ready",
               Json.Obj [ ("spec", Json.Str h); ("tasks", Json.Int (Array.length ts)) ] )
           ]);
      Some (h, ts)
  in
  let rec handshake () =
    match Shard.recv c with
    | None -> false
    | Some j -> (
      match (Json.member "challenge" j, Json.member "setup" j) with
      | Some cj, _ ->
        answer_challenge cj;
        handshake ()
      | None, Some sj -> (
        match plan sj j with
        | None -> handshake ()
        | Some (spec, tasks) -> (
          match Shard.serve ~spec ~mem_limit tasks c with
          | `Retired -> raise Retired
          | `Closed -> true))
      | None, None ->
        if Json.member "retire" j <> None then raise Retired
        else raise (Shard.Protocol "unknown message"))
  in
  handshake ()

let run cfg =
  Shard.install_guards ~mem_limit:cfg.mem_limit ~cpu_limit:cfg.cpu_limit;
  let restore_sigpipe = Util.ignore_sigpipe () in
  let failures = ref 0 in
  let code = ref 1 in
  (try
     let again = ref true in
     while !again do
       (match
          let fd = connect cfg in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              session fd ~secret:cfg.secret ~mem_limit:cfg.mem_limit)
        with
        | handshaken -> if handshaken then failures := 0 else incr failures
        | exception Retired ->
          notice "retired by dispatcher";
          code := 0;
          again := false
        | exception Finished ->
          notice "dispatcher finished; nothing to do";
          code := 0;
          again := false
        | exception Shard.Dropped ->
          notice "injected connection drop; reconnecting"
          (* not a failure: the hook wants an immediate reconnect *)
        | exception Shard.Protocol msg ->
          notice "protocol error: %s" msg;
          incr failures
        | exception Unix.Unix_error (e, _, _) ->
          notice "connection failed: %s" (Unix.error_message e);
          incr failures);
       if !again then
         if !failures > cfg.max_reconnects then begin
           notice "reconnect budget (%d) exhausted; giving up" cfg.max_reconnects;
           again := false
         end
         else if !failures > 0 then
           Unix.sleepf
             (backoff_delay ~seed:(Unix.getpid ()) ~attempt:!failures)
     done
   with Failure msg ->
     notice "%s" msg);
  restore_sigpipe ();
  !code
