(* The four workloads.  Each runs in a fresh process, so GC state, peak
   RSS and CPU accounting never leak from one into another.

   quad_inproc       the checker layers alone, in process
   quad_cli_certify  what CI runs: CLI start-up, fork pool, certify, fsync
   fleet_quad        the authenticated socket fleet
   serve_mix         the hosted service under open-loop traffic

   Every run first measures the workload with tracing off.  An untraced
   run (--trace 0) adds timed cold starts and reports the bounded
   end-to-end metrics.  A traced run (--trace 1) reports the workload's
   latency, CPU and rate, then replays its operations layer by layer
   (see {!Replay}). *)

module Q = Llhsc.Quad_rv64

let names = [ "quad_inproc"; "quad_cli_certify"; "fleet_quad"; "serve_mix" ]

type ctx = {
  seed : int;
  seconds : float;
  llhsc : string; (* the llhsc binary *)
  self_exe : string; (* this benchmark, for cold in-process starts *)
  work : string; (* scratch directory of this run *)
  goldens : Inputs.goldens;
}

(* Every workload times at least this many verdicts, so p95 has ten
   samples beyond it. *)
let min_samples = Stats.samples_for 95.

(* Set-up is a cold start: the fixture written to disk, fresh processes
   (a fresh daemon, until /readyz answers, for serve_mix) and the first
   [warmup_verdicts] verdicts.  It is timed [setup_repeats] times per run
   and reported as the median. *)
let setup_repeats = 5
let warmup_verdicts = 5

let warmup ctx = Float.min 1. (0.1 *. ctx.seconds)

(* Median seconds of [setup_repeats] cold starts, and how many of their
   verdicts were wrong; [f i] returns the wrong-verdict count of start
   [i]. *)
let setups f =
  let runs = List.init setup_repeats (fun i -> Harness.timed (fun () -> f i)) in
  (Stats.median (List.map snd runs), List.fold_left (fun acc (bad, _) -> acc + bad) 0 runs)

let wrong ok_list = List.length (List.filter not ok_list)

(* What the measured phase of a workload yields. *)
type measured = {
  samples : float list; (* ms: the latencies the percentiles come from *)
  cpu_s : float; (* CPU seconds of the system's processes ... *)
  verdicts : int; (* ... spent on this many verdicts *)
  rate : float; (* highest verdict rate sustained, per second *)
  attempted : int;
  failed : int;
  rss_kib : float; (* peak RSS of the workload's processes *)
}

(* A closed loop of one caller: its completion rate is the highest rate
   that caller sustains. *)
let of_loop (loop : Harness.loop) ~rss_kib =
  let n = List.length loop.samples in
  { samples = loop.samples; cpu_s = loop.cpu_s; verdicts = n;
    rate = float_of_int n /. loop.elapsed; attempted = loop.attempted; failed = loop.failed;
    rss_kib }

type workload = {
  setup : ctx -> float * int; (* see {!setups} *)
  measure : ctx -> find_knee:bool -> measured;
      (* [find_knee]: serve_mix also searches for its highest rate within
         the latency limit *)
}

let children () = Harness.usage `Children

let closed_loop ctx ~cpu ~run ~check =
  Harness.closed_loop ~warmup:(warmup ctx) ~seconds:ctx.seconds ~min_samples ~cpu ~run ~check

(* --- quad_inproc --------------------------------------------------------- *)

let render outcome = Fmt.str "%a" Llhsc.Pipeline.pp_outcome outcome

let quad_inproc =
  { setup =
      (fun ctx ->
        let golden = Inputs.golden ctx.goldens Inputs.pipeline_golden in
        let want = String.concat "" (List.init warmup_verdicts (fun _ -> golden)) in
        setups (fun _ ->
            match Harness.run_capture ctx.self_exe [ "cold-inproc"; string_of_int warmup_verdicts ] with
            | Unix.WEXITED 0, out when out = want -> 0
            | _ -> warmup_verdicts));
    measure =
      (fun ctx ~find_knee:_ ->
        let loop =
          closed_loop ctx
            ~cpu:(fun () -> (Harness.usage `Self).Harness.cpu_s)
            ~run:(fun () -> Harness.timed (fun () -> render (Q.run_pipeline ())))
            ~check:(Inputs.matches ctx.goldens Inputs.pipeline_golden)
        in
        of_loop loop ~rss_kib:(Harness.usage `Self).Harness.maxrss_kib) }

(* --- quad_cli_certify ------------------------------------------------------- *)

let certify_op ctx dir journal =
  Harness.run_capture ctx.llhsc
    (Inputs.quad_pipeline_args dir @ [ "--certify"; "--jobs"; "2"; "--journal"; journal ])

let certify_ok ctx (status, out) =
  status = Unix.WEXITED 0 && Inputs.matches ctx.goldens Inputs.certify_golden out

let quad_cli_certify =
  { setup =
      (fun ctx ->
        setups (fun i ->
            let dir = Filename.concat ctx.work (Printf.sprintf "setup-%d" i) in
            Inputs.write_quad_fixture dir;
            wrong
              (List.init warmup_verdicts (fun k ->
                   certify_ok ctx
                     (certify_op ctx dir (Filename.concat dir (Printf.sprintf "journal-%d.jsonl" k)))))));
    measure =
      (fun ctx ~find_knee:_ ->
        let dir = Filename.concat ctx.work "fixture" in
        Inputs.write_quad_fixture dir;
        let n = ref 0 in
        let loop =
          closed_loop ctx
            ~cpu:(fun () -> (children ()).Harness.cpu_s)
            ~run:(fun () ->
              incr n;
              let journal = Filename.concat dir (Printf.sprintf "journal-%d.jsonl" !n) in
              Harness.timed (fun () -> (journal, certify_op ctx dir journal)))
            ~check:(fun (journal, r) ->
              Sys.remove journal;
              certify_ok ctx r)
        in
        of_loop loop ~rss_kib:(children ()).Harness.maxrss_kib) }

(* --- fleet_quad ------------------------------------------------------------- *)

(* Dispatcher spawn to dispatcher exit is the latency.  The workers are
   reaped afterwards (they retire once the dispatcher is done), still
   inside the CPU window; one that has not exited 2 s later is killed
   and fails the operation. *)
let fleet_op ctx dir =
  let port_file = Filename.concat dir "port" and secret = Filename.concat dir "secret" in
  if Sys.file_exists port_file then Sys.remove port_file;
  let (status, out, workers), latency =
    Harness.timed (fun () ->
        let r, w = Unix.pipe ~cloexec:true () in
        let dispatcher =
          Harness.spawn ~stdout:w ctx.llhsc
            ([ "dispatch"; "--listen"; "127.0.0.1:0"; "--port-file"; port_file;
               "--secret-file"; secret ]
            @ List.tl (Inputs.quad_pipeline_args dir))
        in
        Unix.close w;
        ignore (Harness.wait_port_file port_file : int);
        let workers =
          List.init 2 (fun _ ->
              Harness.spawn ctx.llhsc [ "worker"; "--port-file"; port_file; "--secret-file"; secret ])
        in
        let out = Harness.read_all r in
        Unix.close r;
        (Harness.wait dispatcher, out, workers))
  in
  let retired = List.for_all (fun pid -> Harness.reap ~within:2. pid <> None) workers in
  ((status, out, retired), latency)

let fleet_ok ctx (status, out, retired) =
  retired && status = Unix.WEXITED 0 && Inputs.matches ctx.goldens Inputs.pipeline_golden out

let fleet_fixture dir =
  Inputs.write_quad_fixture dir;
  Harness.write_file (Filename.concat dir "secret") "perfbench fleet secret\n"

let fleet_quad =
  { setup =
      (fun ctx ->
        setups (fun i ->
            let dir = Filename.concat ctx.work (Printf.sprintf "setup-%d" i) in
            fleet_fixture dir;
            wrong (List.init warmup_verdicts (fun _ -> fleet_ok ctx (fst (fleet_op ctx dir))))));
    measure =
      (fun ctx ~find_knee:_ ->
        let dir = Filename.concat ctx.work "fixture" in
        fleet_fixture dir;
        let loop =
          closed_loop ctx
            ~cpu:(fun () -> (children ()).Harness.cpu_s)
            ~run:(fun () -> fleet_op ctx dir)
            ~check:(fleet_ok ctx)
        in
        of_loop loop ~rss_kib:(children ()).Harness.maxrss_kib) }

(* --- serve_mix ----------------------------------------------------------------- *)

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* Status code and body of a complete HTTP/1.1 response. *)
let parse_response raw =
  let status = try Scanf.sscanf raw "HTTP/1.1 %d" Fun.id with _ -> -1 in
  let rec body i =
    if i + 4 > String.length raw then ""
    else if String.sub raw i 4 = "\r\n\r\n" then String.sub raw (i + 4) (String.length raw - i - 4)
    else body (i + 1)
  in
  (status, body 0)

(* One request on its own connection (the daemon answers one request per
   connection and closes). *)
let request port raw =
  let fd = connect port in
  write_all fd raw 0;
  let resp = Harness.read_all fd in
  Unix.close fd;
  parse_response resp

let get port path = request port (Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" path)

type daemon = { pid : int; port : int; log : in_channel }

let start_daemon ctx =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Harness.spawn ~stdout:w ctx.llhsc [ "serve"; "--port"; "0"; "--workers"; "2"; "--queue"; "8" ]
  in
  Unix.close w;
  let log = Unix.in_channel_of_descr r in
  let port = Scanf.sscanf (input_line log) "llhsc serve: listening on %[0-9.]:%d" (fun _ p -> p) in
  let rec ready tries =
    match get port "/readyz" with
    | 200, _ -> ()
    | _ when tries > 0 ->
      Unix.sleepf 0.001;
      ready (tries - 1)
    | _ -> failwith "the daemon never became ready"
  in
  ready 5000;
  { pid; port; log }

(* SIGTERM drains: every admitted request is answered, then exit 0. *)
let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  let status = Harness.wait d.pid in
  close_in d.log;
  if status <> Unix.WEXITED 0 then failwith "the daemon did not drain cleanly"

let served_ok ctx kind (status, body) =
  status = 200 && Inputs.matches ctx.goldens (Inputs.serve_golden kind) body

type flight = { fd : Unix.file_descr; kind : Inputs.kind; due : float; buf : Buffer.t }

type completed = { latency_ms : float; ok : bool }

(* The load generator: one process, at most two connections in flight.
   [next ()] gives the next request and when it is due, or [None] when
   the phase is over.  A request due while both connections are busy
   waits, and its latency counts from when it was due.  Returns the
   completed requests and, in sending order, how late each was sent
   (ms). *)
let drive ctx port next =
  let chunk = Bytes.create 65536 in
  let pending = ref (next ()) and inflight = ref [] in
  let done_ = ref [] and lags = ref [] in
  let finish f =
    Unix.close f.fd;
    inflight := List.filter (fun g -> g.fd != f.fd) !inflight;
    let resp = parse_response (Buffer.contents f.buf) in
    done_ :=
      { latency_ms = (Harness.now () -. f.due) *. 1000.; ok = served_ok ctx f.kind resp }
      :: !done_
  in
  let rec launch () =
    match !pending with
    | Some (due, kind) when List.length !inflight < 2 && due <= Harness.now () ->
      let fd = connect port in
      lags := ((Harness.now () -. due) *. 1000.) :: !lags;
      write_all fd (Inputs.http_request kind) 0;
      Unix.set_nonblock fd;
      inflight := { fd; kind; due; buf = Buffer.create 2048 } :: !inflight;
      pending := next ();
      launch ()
    | _ -> ()
  in
  while !pending <> None || !inflight <> [] do
    launch ();
    let timeout =
      match !pending with
      | Some (due, _) when List.length !inflight < 2 -> Float.max 0. (due -. Harness.now ())
      | _ -> 1.
    in
    if !inflight = [] then Unix.sleepf timeout
    else
      match Unix.select (List.map (fun f -> f.fd) !inflight) [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
        List.iter
          (fun fd ->
            let f = List.find (fun g -> g.fd == fd) !inflight in
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> finish f
            | n -> Buffer.add_subbytes f.buf chunk 0 n
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ())
          ready
  done;
  (List.rev !done_, List.rev !lags)

(* Poisson arrivals at [rate] per second, [n] requests. *)
let poisson rng ~rate ~n mix =
  let t = ref (Harness.now ()) and left = ref n in
  fun () ->
    if !left = 0 then None
    else begin
      decr left;
      t := !t -. (log (1. -. Random.State.float rng 1.) /. rate);
      Some (!t, mix ())
    end

let measured_rate = 40.

(* The served traffic: fixed steps of 20, 40 and 60 requests per second,
   each 0.3 of the run (6 s at the default 20 s), given as (rate,
   requests).  The latency percentiles come from the 40/s step, which
   never holds fewer than the 200 requests p95 needs; below --seconds 17
   that step, and so the run, takes longer than 0.3 of --seconds. *)
let serve_steps ~seconds =
  List.map
    (fun rate ->
      let n = int_of_float (Float.round (rate *. 0.3 *. seconds)) in
      (rate, if rate = measured_rate then max min_samples n else n))
    [ 20.; 40.; 60. ]

(* The latency limit on p90, and the search for the highest rate that
   meets it (see {!knee}). *)
let p90_limit_ms = 50.
let ramp_factor = 1.05
let search_requests = 200
let halvings = 3

type step = {
  offered : float; (* requests per second *)
  results : completed list;
  meets_limit : bool; (* p90 within the limit, and the generator kept up *)
}

let run_step ctx port rng mix ~rate ~n =
  let results, lags = drive ctx port (poisson rng ~rate ~n mix) in
  let p90 = Stats.percentile (List.map (fun c -> c.latency_ms) results) 90. in
  (* No growing backlog: over the step's last quarter the generator sent
     requests within the limit, at the median.  A single late request
     only waited behind two pipeline jobs. *)
  let last_quarter = List.filteri (fun i _ -> 4 * i >= 3 * List.length lags) lags in
  let kept_up = last_quarter = [] || Stats.median last_quarter <= p90_limit_ms in
  { offered = rate; results;
    meets_limit = kept_up && (match p90 with Ok v -> v <= p90_limit_ms | Error _ -> false) }

(* The highest offered rate that meets the limit, searched past the fixed
   steps with [search_requests] requests per step, for at most [budget]
   seconds.  When no fixed step above the highest one that met it
   missed, +5% steps from there until one misses.  Otherwise the limit
   lies between that step and the next faster one (on a 2-vCPU VM, p90
   crossed 50 ms anywhere from 40/s to past 80/s with the host's load),
   and [halvings] halvings of the gap find it.  Returns the rate (0 when
   no fixed step met the limit) and the search's steps. *)
let knee run ~fixed ~budget =
  let stop = Harness.now () +. budget in
  let lo = List.fold_left (fun acc s -> if s.meets_limit then Float.max acc s.offered else acc) 0. fixed in
  let hi =
    List.fold_left
      (fun acc s ->
        match acc with
        | _ when s.meets_limit || s.offered <= lo -> acc
        | Some h when h <= s.offered -> acc
        | _ -> Some s.offered)
      None fixed
  in
  let rec search lo hi k acc =
    if Harness.now () >= stop || k = 0 || lo = 0. then (lo, List.rev acc)
    else
      match hi with
      | None ->
        let s = run (lo *. ramp_factor) in
        if s.meets_limit then search s.offered None k (s :: acc) else (lo, List.rev (s :: acc))
      | Some hi ->
        let s = run ((lo +. hi) /. 2.) in
        if s.meets_limit then search s.offered (Some hi) (k - 1) (s :: acc)
        else search lo (Some s.offered) (k - 1) (s :: acc)
  in
  search lo hi halvings []

let serve_mix =
  { setup =
      (fun ctx ->
        setups (fun _ ->
            let d = start_daemon ctx in
            let kinds = List.init warmup_verdicts (fun k -> List.nth Inputs.kinds (k mod 4)) in
            let bad =
              wrong
                (List.map (fun k -> served_ok ctx k (request d.port (Inputs.http_request k))) kinds)
            in
            stop_daemon d;
            bad));
    measure =
      (fun ctx ~find_knee ->
        let rng = Random.State.make [| ctx.seed |] in
        let mix = Inputs.mix_sequence rng in
        let cpu0 = (children ()).Harness.cpu_s in
        let d = start_daemon ctx in
        let fixed =
          List.map
            (fun (rate, n) -> run_step ctx d.port rng mix ~rate ~n)
            (serve_steps ~seconds:ctx.seconds)
        in
        let rate, searched =
          if find_knee then
            knee
              (fun rate -> run_step ctx d.port rng mix ~rate ~n:search_requests)
              ~fixed ~budget:(0.75 *. ctx.seconds)
          else (nan, [])
        in
        stop_daemon d;
        let all = List.concat_map (fun s -> s.results) (fixed @ searched) in
        let at_rate = List.find (fun s -> s.offered = measured_rate) fixed in
        (* CPU per verdict covers every verdict the daemon tree produced. *)
        { samples = List.map (fun c -> c.latency_ms) at_rate.results;
          cpu_s = (children ()).Harness.cpu_s -. cpu0;
          verdicts = List.length all;
          rate;
          attempted = List.length all;
          failed = List.length (List.filter (fun c -> not c.ok) all);
          rss_kib = (children ()).Harness.maxrss_kib }) }

let workload = function
  | "quad_inproc" -> quad_inproc
  | "quad_cli_certify" -> quad_cli_certify
  | "fleet_quad" -> fleet_quad
  | "serve_mix" -> serve_mix
  | other -> invalid_arg ("unknown workload " ^ other)

(* --- the two kinds of run ------------------------------------------------------ *)

(* Untraced: cold starts, then the measured phase; the bounded metrics. *)
let run ctx name =
  let w = workload name in
  let setup_s, setup_failed = w.setup ctx in
  let m = w.measure ctx ~find_knee:false in
  let failed = m.failed + setup_failed in
  { Harness.correct = failed = 0;
    attempted = m.attempted + (setup_repeats * warmup_verdicts);
    failed;
    metrics = [ ("peak_rss_mib", m.rss_kib /. 1024.); ("setup_s", setup_s) ] }

(* Median latency of sequential small checks through a live daemon. *)
let served_ms ctx budget =
  let d = start_daemon ctx in
  let raw = Inputs.http_request Inputs.Check_sbc in
  let samples = ref [] in
  ignore
    (Replay.repeat ~min:10 budget (fun () ->
         let r, dt = Harness.timed (fun () -> request d.port raw) in
         if not (served_ok ctx Inputs.Check_sbc r) then failwith "served check gave a wrong answer";
         samples := (dt *. 1000.) :: !samples));
  stop_daemon d;
  Stats.median !samples

(* Traced: the measured phase (tracing off; serve_mix searching its knee),
   then the layer replay of the workload's operations. *)
let traced ctx name ~trace_file =
  let m = (workload name).measure ctx ~find_knee:true in
  let p95 =
    match Stats.percentile m.samples 95. with
    | Ok v -> v
    | Error e -> failwith ("verdict_p95_ms: " ^ e)
  in
  let kinds =
    if name = "serve_mix" then
      let mix = Inputs.mix_sequence (Random.State.make [| ctx.seed |]) in
      Array.init Inputs.block_size (fun _ -> mix ())
    else [| Inputs.Pipeline_quad |]
  in
  let st =
    { Replay.kinds; goldens = ctx.goldens; llhsc = ctx.llhsc; work = ctx.work;
      seconds = ctx.seconds }
  in
  let layers, attempted, failed, tr = Replay.run st ~served_ms:(served_ms ctx) in
  Harness.write_file trace_file (Bjson.to_string (Trace.to_chrome tr));
  let failed = failed + m.failed in
  { Harness.correct = failed = 0;
    attempted = attempted + m.attempted;
    failed;
    metrics =
      [ ("verdict_p50_ms", Stats.median m.samples);
        ("verdict_p95_ms", p95);
        ("cpu_ms_per_verdict", m.cpu_s *. 1000. /. float_of_int m.verdicts);
        ("max_rate_rps", m.rate);
        ("samples", float_of_int (List.length m.samples)) ]
      @ layers }
