(* A fleet worker: connect to a dispatcher, replan its run from the
   shipped spec, and execute leased tasks until retired.

   The worker is deliberately stateless across connections: everything
   it needs arrives in the setup message, and the task array it builds
   is cached by spec hash so a reconnect (network blip, injected drop)
   re-handshakes in microseconds instead of re-parsing.  Task results go
   back as one frame each, stamped with the spec hash and validated
   again on the dispatcher — the worker is not trusted, merely useful.

   Connection loss is survived, not fatal: exponential-backoff reconnect,
   bounded by [max_reconnects] consecutive failures (a completed
   handshake resets the counter).  A [retire] message is the one clean
   exit (code 0); exhausting reconnects exits 1 so a supervisor can tell
   "fleet finished without me" from "I was told to go".

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

let read_port_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let r = try int_of_string_opt (String.trim (input_line ic)) with _ -> None in
    close_in ic;
    r

(* The dispatcher writes the port file after binding; give it a moment. *)
let resolve_port cfg =
  match (cfg.port, cfg.port_file) with
  | Some p, _ -> Some p
  | None, Some path ->
    let rec wait tries =
      match read_port_file path with
      | Some p -> Some p
      | None when tries > 0 ->
        Unix.sleepf 0.1;
        wait (tries - 1)
      | None -> None
    in
    wait 100
  | None, None -> None

let connect cfg =
  match resolve_port cfg with
  | None -> failwith "no dispatcher port: need --connect HOST:PORT or --port-file"
  | Some port ->
    let ip =
      try Unix.inet_addr_of_string cfg.host
      with Failure _ -> (
        try (Unix.gethostbyname cfg.host).Unix.h_addr_list.(0)
        with Not_found ->
          failwith (Printf.sprintf "cannot resolve host %S" cfg.host))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_INET (ip, port))
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
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
   is configured), the mutual HMAC challenge–response, build (or reuse)
   the task array, then serve leased tasks until retire/EOF.  Returns
   [true] when the handshake completed (resets the reconnect budget).

   Auth protocol (see DESIGN.md "fleet trust"): the worker's hello
   carries nonce_w; a secret-holding dispatcher replies with
   {challenge: {nonce: nonce_d, mac: HMAC(secret, "llhsc-disp:" ^
   nonce_w ^ ":" ^ nonce_d)}}; the worker verifies (constant-time) and
   answers {auth: {mac: HMAC(secret, "llhsc-work:" ^ nonce_d ^ ":" ^
   nonce_w)}}.  Both sides then derive session_key = HMAC(secret,
   "llhsc-sess:" ^ nonce_w ^ ":" ^ nonce_d) and every further frame in
   each direction is sealed with the session key and a per-direction
   sequence number ({!Frame.seal}).  A secret-configured worker never
   accepts a spec from a dispatcher that did not complete the
   challenge. *)
let session fd ~secret ~mem_limit ~cache =
  let c = Shard.conn ~peer:"dispatcher" fd in
  let authed = ref false in
  let nonce_w =
    match secret with Some _ -> Some (Llhsc.Hmac.nonce ()) | None -> None
  in
  (* Advertise which spec hashes we already hold so the dispatcher can
     skip re-shipping the spec body on reconnect (bandwidth-aware
     scheduling; it sends a hash-only setup and we answer from cache). *)
  Shard.send c
    (Json.Obj
       [ ( "hello",
           Json.Obj
             (("pid", Json.Int (Unix.getpid ()))
             :: ( "cached",
                  Json.List
                    (match !cache with
                    | Some (h, _) -> [ Json.Str h ]
                    | None -> []) )
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
      let expect =
        Llhsc.Hmac.to_hex (Llhsc.Hmac.hmac ~key:secret ("llhsc-disp:" ^ nw ^ ":" ^ nd))
      in
      if not (Llhsc.Hmac.equal expect (field "mac")) then
        raise (Shard.Protocol "dispatcher failed authentication");
      Shard.send c
        (Json.Obj
           [ ( "auth",
               Json.Obj
                 [ ( "mac",
                     Json.Str
                       (Llhsc.Hmac.to_hex
                          (Llhsc.Hmac.hmac ~key:secret ("llhsc-work:" ^ nd ^ ":" ^ nw)))
                   ) ] ) ]);
      Shard.set_key c (Llhsc.Hmac.hmac ~key:secret ("llhsc-sess:" ^ nw ^ ":" ^ nd));
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
      match !cache with
      | Some (h', ts) when h' = h -> Ok ts
      | _ when Json.member "cached" sj = Some (Json.Bool true) ->
        (* A hash-only setup with a cold cache (e.g. the worker
           restarted between hello and setup) cannot be planned; the
           dispatcher falls back to shipping the full spec. *)
        Error "spec not cached"
      | _ -> (
        match Spec.of_wire sj with
        | None -> Error "malformed spec"
        | Some spec when Spec.hash spec <> h -> Error "spec hash mismatch"
        | Some spec -> Spec.build spec)
    in
    match built with
    | Error msg ->
      Shard.send c (Json.Obj [ ("error", Json.Str msg) ]);
      notice "cannot plan the shipped run: %s" msg;
      None
    | Ok ts ->
      cache := Some (h, ts);
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
  let cache = ref None in
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
              session fd ~secret:cfg.secret ~mem_limit:cfg.mem_limit ~cache)
        with
        | handshaken -> if handshaken then failures := 0 else incr failures
        | exception Retired ->
          notice "retired by dispatcher";
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
