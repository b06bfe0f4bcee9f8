(* chaosproxy: a seeded network-chaos TCP proxy for the fleet tests.

   Sits between fleet workers and the dispatcher and, driven by a
   deterministic seed, injects the failure modes real networks produce:
   partitions (connection kills), per-byte corruption, truncation,
   stalls, reordering, duplicated writes, and writes split at arbitrary
   byte boundaries.  The fleet protocol's claim is that every one of
   these collapses to dead-worker handling with reports byte-identical
   to a local run; the fleet smoke harness, the fault harness and CI
   route workers through this proxy to hold the claim under adversarial
   schedules instead of only the in-process fault hooks.

   Single-process select loop, one chunk queue per direction per
   connection.  Faults apply per read chunk, so probabilities are "per
   socket read", not per byte — a corrupt rate of 0.02 poisons roughly
   one chunk in fifty regardless of chunk size.  All chaos decisions
   come from one xorshift64* stream seeded by --seed; the interleaving
   of socket events is OS-scheduled, so a seed pins the fault mix, not
   an exact byte schedule.

   Usage: chaosproxy.exe --upstream HOST:PORT [OPTION]... (see --help);
   it runs until killed. *)

type config = {
  listen_host : string;
  listen_port : int;
  upstream_host : string;
  upstream_port : int;
  port_file : string option;
  seed : int;
  corrupt : float; (* per-chunk probability of one flipped byte *)
  drop : float; (* per-chunk probability of killing the connection *)
  trunc : float; (* per-chunk probability of truncating the chunk *)
  stall : float; (* per-chunk probability of delaying delivery *)
  stall_ms : int;
  reorder : float; (* per-chunk probability of jumping the queue *)
  dup : float; (* per-chunk probability of delivering twice *)
  split : float; (* per-chunk probability of two separate writes *)
}

let default =
  {
    listen_host = "127.0.0.1";
    listen_port = 0;
    upstream_host = "127.0.0.1";
    upstream_port = 0;
    port_file = None;
    seed = 1;
    corrupt = 0.0;
    drop = 0.0;
    trunc = 0.0;
    stall = 0.0;
    stall_ms = 100;
    reorder = 0.0;
    dup = 0.0;
    split = 0.0;
  }

let notice fmt = Format.eprintf ("chaosproxy: " ^^ fmt ^^ "@.")

(* xorshift64*: the same generator the fault harness uses, so seeds in
   CI logs mean the same thing everywhere. *)
let rng = ref 0x9E3779B97F4A7C15L

let seed_rng seed =
  rng := Int64.logxor 0x9E3779B97F4A7C15L (Int64.of_int seed);
  if !rng = 0L then rng := 0x9E3779B97F4A7C15L

let rand64 () =
  let x = ref !rng in
  x := Int64.logxor !x (Int64.shift_left !x 13);
  x := Int64.logxor !x (Int64.shift_right_logical !x 7);
  x := Int64.logxor !x (Int64.shift_left !x 17);
  rng := !x;
  Int64.mul !x 0x2545F4914F6CDD1DL

let uniform () =
  Int64.to_float (Int64.shift_right_logical (rand64 ()) 11) /. 9007199254740992.0

let chance p = p > 0.0 && uniform () < p

let rand_int n =
  if n <= 1 then 0 else Int64.to_int (Int64.rem (Int64.shift_right_logical (rand64 ()) 1) (Int64.of_int n))

type chunk = { data : Bytes.t; mutable off : int; due : float }

type pipe = {
  src : Unix.file_descr;
  dst : Unix.file_descr;
  mutable queue : chunk list; (* delivery order *)
  mutable src_eof : bool;
  mutable shut : bool; (* dst write side shut down after final flush *)
}

type pair = { id : int; c2u : pipe; u2c : pipe; mutable dead : bool }

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let kill_pair p reason =
  if not p.dead then begin
    p.dead <- true;
    close_quiet p.c2u.src;
    close_quiet p.c2u.dst;
    notice "conn %d: %s" p.id reason
  end

let scratch = Bytes.create 16384

(* Read one chunk off [pipe.src], push it (mangled) onto [pipe.queue].
   Returns false when the pair must die (partition or socket error). *)
let pump cfg now pair pipe =
  match Unix.read pipe.src scratch 0 (Bytes.length scratch) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> true
  | exception Unix.Unix_error _ ->
    kill_pair pair "socket error";
    false
  | 0 ->
    pipe.src_eof <- true;
    true
  | n ->
    if chance cfg.drop then begin
      kill_pair pair "partition injected";
      false
    end
    else begin
      let data = ref (Bytes.sub scratch 0 n) in
      if chance cfg.trunc then data := Bytes.sub !data 0 (rand_int (n + 1));
      if chance cfg.corrupt && Bytes.length !data > 0 then begin
        let pos = rand_int (Bytes.length !data) in
        let flip = 1 + rand_int 255 in
        Bytes.set !data pos
          (Char.chr (Char.code (Bytes.get !data pos) lxor flip))
      end;
      let due =
        if chance cfg.stall then now +. (float_of_int cfg.stall_ms /. 1000.0)
        else now
      in
      let pieces =
        let d = !data in
        if chance cfg.split && Bytes.length d >= 2 then begin
          let cut = 1 + rand_int (Bytes.length d - 1) in
          [
            { data = Bytes.sub d 0 cut; off = 0; due };
            { data = Bytes.sub d cut (Bytes.length d - cut); off = 0; due };
          ]
        end
        else [ { data = d; off = 0; due } ]
      in
      let pieces =
        if chance cfg.dup then
          pieces @ List.map (fun c -> { c with off = 0 }) pieces
        else pieces
      in
      (* Reorder: the fresh chunks jump ahead of the most recently
         queued one, so previously read bytes arrive after newer ones. *)
      pipe.queue <-
        (if chance cfg.reorder && pipe.queue <> [] then begin
           match List.rev pipe.queue with
           | last :: earlier -> List.rev earlier @ pieces @ [ last ]
           | [] -> pipe.queue @ pieces
         end
         else pipe.queue @ pieces);
      true
    end

(* Write as much of the due head chunk as the socket accepts. *)
let drain now pair pipe =
  match pipe.queue with
  | [] -> true
  | c :: rest ->
    if c.due > now then true
    else if Bytes.length c.data = c.off then begin
      pipe.queue <- rest;
      true
    end
    else begin
      match
        Unix.write pipe.dst c.data c.off (Bytes.length c.data - c.off)
      with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> true
      | exception Unix.Unix_error _ ->
        kill_pair pair "peer closed";
        false
      | w ->
        c.off <- c.off + w;
        if c.off = Bytes.length c.data then pipe.queue <- rest;
        true
    end

let connect_upstream cfg =
  let ip =
    try Unix.inet_addr_of_string cfg.upstream_host
    with Failure _ -> (
      try (Unix.gethostbyname cfg.upstream_host).Unix.h_addr_list.(0)
      with Not_found ->
        failwith (Printf.sprintf "cannot resolve upstream host %S" cfg.upstream_host))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (ip, cfg.upstream_port)) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    close_quiet fd;
    None

let run cfg =
  seed_rng cfg.seed;
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  ignore prev_sigpipe;
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd
    (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.listen_host, cfg.listen_port));
  Unix.listen lfd 64;
  Unix.set_nonblock lfd;
  let bound_port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.listen_port
  in
  notice "listening on %s:%d -> %s:%d (seed %d)" cfg.listen_host bound_port
    cfg.upstream_host cfg.upstream_port cfg.seed;
  Option.iter
    (fun path ->
      let oc = open_out path in
      Printf.fprintf oc "%d\n" bound_port;
      close_out oc)
    cfg.port_file;
  let pairs = ref [] in
  let next_id = ref 0 in
  while true do
    let now = Unix.gettimeofday () in
    let live = List.filter (fun p -> not p.dead) !pairs in
    pairs := live;
    let reads =
      lfd
      :: List.concat_map
           (fun p ->
             List.filter_map
               (fun pipe -> if pipe.src_eof then None else Some pipe.src)
               [ p.c2u; p.u2c ])
           live
    in
    let pipe_pending pipe =
      match pipe.queue with
      | [] -> None
      | c :: _ -> if c.due <= now then Some pipe.dst else None
    in
    let writes =
      List.concat_map
        (fun p -> List.filter_map pipe_pending [ p.c2u; p.u2c ])
        live
    in
    (* Wake for the nearest stalled chunk; otherwise a coarse tick. *)
    let timeout =
      List.fold_left
        (fun acc p ->
          List.fold_left
            (fun acc pipe ->
              match pipe.queue with
              | { due; _ } :: _ when due > now -> Float.min acc (due -. now)
              | _ -> acc)
            acc [ p.c2u; p.u2c ])
        1.0 live
    in
    let readable, writable, _ =
      try Unix.select reads writes [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem lfd readable then begin
      match Unix.accept lfd with
      | exception Unix.Unix_error _ -> ()
      | cfd, _ -> (
        match connect_upstream cfg with
        | None ->
          notice "upstream refused; dropping client";
          close_quiet cfd
        | Some ufd ->
          Unix.set_nonblock cfd;
          Unix.set_nonblock ufd;
          incr next_id;
          let mk src dst =
            { src; dst; queue = []; src_eof = false; shut = false }
          in
          pairs :=
            { id = !next_id; c2u = mk cfd ufd; u2c = mk ufd cfd; dead = false }
            :: !pairs)
    end;
    List.iter
      (fun p ->
        if not p.dead then
          List.iter
            (fun pipe ->
              if (not pipe.src_eof) && List.mem pipe.src readable then
                ignore (pump cfg now p pipe))
            [ p.c2u; p.u2c ])
      !pairs;
    List.iter
      (fun p ->
        if not p.dead then
          List.iter
            (fun pipe ->
              if List.mem pipe.dst writable || pipe.queue <> [] then
                ignore (drain now p pipe))
            [ p.c2u; p.u2c ])
      !pairs;
    (* Propagate EOF once a direction has flushed everything it will
       ever deliver; reap the pair when both directions are finished. *)
    List.iter
      (fun p ->
        if not p.dead then begin
          List.iter
            (fun pipe ->
              if pipe.src_eof && pipe.queue = [] && not pipe.shut then begin
                pipe.shut <- true;
                try Unix.shutdown pipe.dst Unix.SHUTDOWN_SEND
                with Unix.Unix_error _ -> ()
              end)
            [ p.c2u; p.u2c ];
          if p.c2u.shut && p.u2c.shut then kill_pair p "closed"
        end)
      !pairs
  done

(* --- command line ------------------------------------------------------------ *)

let hostport flag s =
  let bad () = raise (Arg.Bad (Printf.sprintf "%s wants HOST:PORT, got %S" flag s)) in
  match String.rindex_opt s ':' with
  | None -> bad ()
  | Some i -> (
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some p when p >= 0 && p <= 65535 -> (String.sub s 0 i, p)
    | _ -> bad ())

let () =
  let cfg = ref default and upstream = ref false in
  let prob flag set doc =
    ( flag,
      Arg.Float
        (fun p ->
          if p < 0. || p > 1. then
            raise (Arg.Bad (Printf.sprintf "%s wants a probability in 0..1, got %g" flag p));
          cfg := set !cfg p),
      "P " ^ doc )
  in
  let specs =
    [ ( "--listen",
        Arg.String
          (fun s ->
            let listen_host, listen_port = hostport "--listen" s in
            cfg := { !cfg with listen_host; listen_port }),
        "HOST:PORT bind address for proxied clients (port 0 picks an ephemeral port)" );
      ( "--upstream",
        Arg.String
          (fun s ->
            let upstream_host, upstream_port = hostport "--upstream" s in
            upstream := true;
            cfg := { !cfg with upstream_host; upstream_port }),
        "HOST:PORT where real connections go (the dispatcher)" );
      ( "--port-file",
        Arg.String (fun f -> cfg := { !cfg with port_file = Some f }),
        "FILE write the bound port here once listening" );
      ( "--seed",
        Arg.Int (fun seed -> cfg := { !cfg with seed }),
        "N seed of the chaos schedule; the same seed injects the same fault mix" );
      prob "--corrupt" (fun c corrupt -> { c with corrupt })
        "per-chunk probability of one flipped byte";
      prob "--drop" (fun c drop -> { c with drop })
        "per-chunk probability of killing the connection (partition)";
      prob "--truncate" (fun c trunc -> { c with trunc })
        "per-chunk probability of truncating the chunk";
      prob "--stall" (fun c stall -> { c with stall })
        "per-chunk probability of delaying delivery by --stall-ms";
      ( "--stall-ms",
        Arg.Int
          (fun ms ->
            if ms < 0 then
              raise (Arg.Bad (Printf.sprintf "--stall-ms wants milliseconds >= 0, got %d" ms));
            cfg := { !cfg with stall_ms = ms }),
        "MS stall duration (default 100)" );
      prob "--reorder" (fun c reorder -> { c with reorder })
        "per-chunk probability of delivering newer bytes before older ones";
      prob "--dup" (fun c dup -> { c with dup })
        "per-chunk probability of delivering the chunk twice";
      prob "--split" (fun c split -> { c with split })
        "per-chunk probability of splitting the chunk into two writes" ]
  in
  let usage = "chaosproxy --upstream HOST:PORT [OPTION]..." in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not !upstream then begin
    prerr_endline "chaosproxy: --upstream HOST:PORT is required";
    exit 2
  end;
  run !cfg
