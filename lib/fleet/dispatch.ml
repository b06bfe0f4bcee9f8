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
     the same bytes. *)

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
}

let notice fmt =
  Format.kfprintf
    (fun f -> Format.pp_print_newline f (); Format.pp_print_flush f ())
    Format.err_formatter
    ("llhsc dispatch: " ^^ fmt)

(* The socket address of [host] (a dotted quad or a name) and [port], the
   one resolution the listen side and the connecting side share. *)
let addr_of host port =
  let ip =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> failwith (Printf.sprintf "cannot resolve host %S" host))
  in
  Unix.ADDR_INET (ip, port)

(* --- protocol messages ------------------------------------------------------ *)

(* The handshake's three HMACs under the fleet secret, over the worker's
   nonce [nw] and the dispatcher's [nd]: the dispatcher's proof in its
   challenge and the worker's in its answer, both hex on the wire, and
   the session key that seals every later frame. *)
let challenge_mac ~secret ~nw ~nd =
  Hmac.to_hex (Hmac.hmac ~key:secret ("llhsc-disp:" ^ nw ^ ":" ^ nd))

let answer_mac ~secret ~nw ~nd =
  Hmac.to_hex (Hmac.hmac ~key:secret ("llhsc-work:" ^ nd ^ ":" ^ nw))

let session_key ~secret ~nw ~nd = Hmac.hmac ~key:secret ("llhsc-sess:" ^ nw ^ ":" ^ nd)

let closed_marker = "closed"

let clear_port_file path = try Sys.remove path with Sys_error _ -> ()

let msg_setup spec hash =
  Json.to_string (Json.Obj [ ("setup", Spec.to_wire spec); ("hash", Json.Str hash) ])

(* --- run -------------------------------------------------------------------- *)

let run cfg ~spec ~fresh (tasks : Shard.task array) =
  let n = Array.length tasks in
  let st : Shard.result Supervise.t = Supervise.create n in
  let spec_hash = Spec.hash spec in
  let setup_payload = msg_setup spec spec_hash in
  (* Auth bookkeeping: hello nonces seen this run (replay rejection) and
     the rejected-connection count surfaced in the final stats line. *)
  let seen_nonces : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let auth_rejected = ref 0 in

  (* The handshake a fresh connection must complete before it may hold
     a lease.  Authentication failures are counted and surfaced
     distinctly — they are a property of the fleet's environment, not of
     any task — but the remedy is the usual one: the connection dies, and
     an unauthenticated peer never holds leases, never sees the spec, and
     never contributes a result. *)
  let handshake c =
    let state = ref `Hello in
    let nonces = ref ("", "") in
    let reject reason =
      incr auth_rejected;
      notice "notice[AUTH] %s: %s" (Shard.peer c) reason;
      Shard.drop c Shard.auth_failure
    in
    let send_setup () =
      state := `Setup;
      Shard.post c setup_payload
    in
    fun j ->
      match !state with
      | `Hello -> (
        match Json.member "hello" j with
        | Some hello -> (
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
              let mac = challenge_mac ~secret ~nw ~nd in
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
            if Hmac.equal (answer_mac ~secret ~nw ~nd) mac_w then begin
              Shard.set_key c (session_key ~secret ~nw ~nd);
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
  let results =
    Fun.protect
      ~finally:(fun () -> try Unix.close lfd with Unix.Unix_error _ -> ())
      (fun () ->
        let results =
          Shard.supervise ~deadline:cfg.deadline ~listen:lfd ~spec:spec_hash
            ~admit:(fun c -> Some (handshake c))
            ~replace ~fresh st tasks
        in
        (* Every task is resolved: tell workers that have yet to connect.
           The marker goes in before the listen socket closes, so a
           worker refused from here on finds it.  An interrupted run
           never gets here and keeps its port, which a --resume
           successor takes over.  The marker is advisory: if it cannot
           be written, a late worker backs off as it would without it. *)
        if listening then
          Option.iter
            (fun path ->
              try Llhsc.Durable.write_file ~path (closed_marker ^ "\n")
              with Sys_error _ | Unix.Unix_error _ -> ())
            cfg.port_file;
        results)
  in
  if !auth_rejected > 0 then
    notice "auth: rejected %d connection attempt(s)" !auth_rejected;
  results
