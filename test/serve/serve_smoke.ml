(* End-to-end smoke harness for the serve daemon: starts real daemons on
   ephemeral ports and drives them over sockets through the full
   overload+fault schedule the issue demands —

     - valid check/pipeline requests, byte-identical to the batch CLI;
     - malformed, oversized and slow-loris requests (isolation: each
       costs only its own connection);
     - queue saturation and tenant-quota sheds (429 + Retry-After);
     - seeded job kills and hangs (500 / 504), client disconnects;
     - mid-flight SIGTERM: in-flight work answered, drain exits 0;
     - job children are forks of the daemon: they hold none of its
       sockets and count their fault schedule from the start like the
       batch CLI; the daemon writes no file, and a request's /include/
       reaches none outside what it shipped, nor expands without bound;
     - the fleet backend (--dispatch): a served pipeline run by an
       authenticated worker, then by the dispatcher's in-process sweep.

   Every accepted request must receive exactly one well-formed HTTP
   response.  Usage: serve_smoke.exe LLHSC_BINARY FIXTURES_DIR *)

(* Reference CLI runs cd into scratch directories, so both paths must
   survive a change of working directory. *)
let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
let llhsc = absolute Sys.argv.(1)
let fixtures = absolute Sys.argv.(2)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt
let say fmt = Printf.ksprintf (fun m -> print_endline ("# " ^ m); flush stdout) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let tmp_root =
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "llhsc-serve-smoke-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o700;
  at_exit (fun () -> rm_rf dir);
  dir

(* --- daemon management ------------------------------------------------------- *)

type daemon = { pid : int; port : int; log : in_channel }

(* Daemons not yet reaped.  A failed check ends the harness at once, so
   these are killed on the way out: an orphaned daemon would hold the
   harness's stderr open and stall whoever reads it. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !live)

(* [env] entries replace inherited ones of the same name. *)
let start_daemon ?(env = []) args =
  let out_r, out_w = Unix.pipe () in
  let name e = List.hd (String.split_on_char '=' e) in
  let full_env =
    Array.of_list
      (List.filter
         (fun e -> not (List.mem (name e) (List.map name env)))
         (Array.to_list (Unix.environment ()))
      @ env)
  in
  let argv = Array.of_list (llhsc :: "serve" :: "--port" :: "0" :: args) in
  let pid =
    Unix.create_process_env llhsc argv full_env Unix.stdin out_w Unix.stderr
  in
  live := pid :: !live;
  Unix.close out_w;
  let log = Unix.in_channel_of_descr out_r in
  let line = try input_line log with End_of_file -> fail "daemon died before binding" in
  let port =
    try Scanf.sscanf line "llhsc serve: listening on %[0-9.]:%d" (fun _ p -> p)
    with Scanf.Scan_failure _ | End_of_file -> fail "unparsable listen line: %s" line
  in
  { pid; port; log }

(* Reap a daemon that was sent SIGTERM and insist the drain exits 0. *)
let await_drain d =
  let _, status = Unix.waitpid [] d.pid in
  live := List.filter (( <> ) d.pid) !live;
  close_in_noerr d.log;
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> fail "daemon drain exited %d, want 0" c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> fail "daemon died on signal %d" s

let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  await_drain d

(* --- minimal HTTP client ----------------------------------------------------- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let recv_all fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 16384 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      Buffer.contents buf
  in
  go ()

type resp = { status : int; headers : (string * string) list; body : string }

let parse_response raw =
  let head_end =
    match Llhsc.Util.contains raw "\r\n\r\n" with
    | true ->
      let rec find i = if String.sub raw i 4 = "\r\n\r\n" then i else find (i + 1) in
      find 0
    | false -> fail "no header/body separator in %S" raw
  in
  let head = String.sub raw 0 head_end in
  let body = String.sub raw (head_end + 4) (String.length raw - head_end - 4) in
  match String.split_on_char '\n' head with
  | [] -> fail "empty response"
  | status_line :: header_lines ->
    let status =
      try Scanf.sscanf status_line "HTTP/1.1 %d" (fun s -> s)
      with Scanf.Scan_failure _ -> fail "bad status line %S" status_line
    in
    let headers =
      List.filter_map
        (fun line ->
          let line = String.trim line in
          match String.index_opt line ':' with
          | None -> None
          | Some i ->
            Some
              ( String.lowercase_ascii (String.sub line 0 i),
                String.trim (String.sub line (i + 1) (String.length line - i - 1)) ))
        header_lines
    in
    (* Framing check: declared length must match what arrived. *)
    (match List.assoc_opt "content-length" headers with
     | Some cl when int_of_string cl <> String.length body ->
       fail "Content-Length %s but %d body bytes" cl (String.length body)
     | _ -> ());
    { status; headers; body }

(* One-shot request over a fresh connection. *)
let request ?(headers = []) d meth path body =
  let fd = connect d.port in
  let hdrs =
    List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers
    |> String.concat ""
  in
  send_all fd
    (Printf.sprintf "%s %s HTTP/1.1\r\nHost: t\r\n%sContent-Length: %d\r\n\r\n%s" meth
       path hdrs (String.length body) body);
  let resp = parse_response (recv_all fd) in
  Unix.close fd;
  resp

let raw_request d bytes =
  let fd = connect d.port in
  send_all fd bytes;
  let resp = parse_response (recv_all fd) in
  Unix.close fd;
  resp

let json_member resp name =
  match Llhsc.Json.parse resp.body with
  | Error m -> fail "response body is not JSON (%s): %S" m resp.body
  | Ok v -> (
    match Llhsc.Json.member name v with
    | Some m -> m
    | None -> fail "response body lacks %S: %s" name resp.body)

let json_str resp name =
  match Llhsc.Json.to_str (json_member resp name) with
  | Some s -> s
  | None -> fail "response %S is not a string" name

let expect_status what want (r : resp) =
  if r.status <> want then fail "%s: status %d, want %d (body %S)" what r.status want r.body

let expect_code what want (r : resp) =
  let got = json_str r "code" in
  if got <> want then fail "%s: error code %S, want %S" what got want

let expect_retry_after what (r : resp) =
  if not (List.mem_assoc "retry-after" r.headers) then
    fail "%s: shed response lacks Retry-After" what

let stderr_lines what r =
  match Llhsc.Json.to_str_list (json_member r "stderr") with
  | Some lines -> lines
  | None -> fail "%s: stderr not a string list" what

(* --- batch-CLI reference runs ------------------------------------------------ *)

let sh fmt =
  Printf.ksprintf
    (fun cmd ->
      let rc = Sys.command cmd in
      (cmd, rc))
    fmt

(* Run the CLI in [dir] and return (stdout, stderr, exit code); [env] is
   a shell assignment prefix such as ["LLHSC_FAULT=kill-worker@0"]. *)
let cli_run ?(env = "") ~dir args =
  let out = Filename.concat dir "cli.out" and err = Filename.concat dir "cli.err" in
  let _, rc =
    sh "cd %s && %s %s %s > cli.out 2> cli.err" (Filename.quote dir) env
      (Filename.quote llhsc) args
  in
  (read_file out, read_file err, rc)

let good_dts =
  "/dts-v1/;\n\
   / {\n\
   \t#address-cells = <2>;\n\
   \t#size-cells = <2>;\n\
   \tmemory@80000000 {\n\
   \t\tdevice_type = \"memory\";\n\
   \t\treg = <0x0 0x80000000 0x0 0x40000000>;\n\
   \t};\n\
   };\n"

let bad_dts = "/dts-v1/;\n/ { broken\n"

(* A check request whose job sleeps [delay_ms] before the CLI runs. *)
let delayed_check ~delay_ms =
  Printf.sprintf
    "POST /v1/check HTTP/1.1\r\nHost: t\r\nX-Llhsc-Test-Delay-Ms: %d\r\n\
     Content-Length: %d\r\n\r\n%s"
    delay_ms (String.length good_dts) good_dts

(* The fixture pipeline request: every input shipped inline, exercising
   schemas, auxiliary files (the /include/d cpus.dtsi), certify and
   retry. *)
let pipeline_body ~jobs =
  let fx name = read_file (Filename.concat fixtures name) in
  let schemas =
    Sys.readdir (Filename.concat fixtures "schemas")
    |> Array.to_list |> List.sort String.compare
    |> List.map (fun n -> (n, Llhsc.Json.Str (fx (Filename.concat "schemas" n))))
  in
  Llhsc.Json.to_string
    (Llhsc.Json.Obj
       [ ("core", Str (fx "custom-sbc.dts"));
         ("deltas", Str (fx "custom-sbc.deltas"));
         ("model", Str (fx "custom-sbc.fm"));
         ("files", Obj [ ("cpus.dtsi", Str (fx "cpus.dtsi")) ]);
         ("schemas", Obj schemas);
         ( "vms",
           List
             [ List
                 (List.map (fun s -> Llhsc.Json.Str s)
                    [ "memory"; "cpu@0"; "uart@20000000"; "uart@30000000"; "veth0" ]);
               List
                 (List.map (fun s -> Llhsc.Json.Str s)
                    [ "memory"; "cpu@1"; "uart@20000000"; "uart@30000000"; "veth1" ])
             ] );
         ("exclusive", List [ Str "cpus" ]);
         ("certify", Bool true);
         ("retry", Int 3);
         ("jobs", Int jobs) ])

(* Mirror of the served pipeline job's working directory, for the
   byte-identity diff. *)
let pipeline_ref_dir () =
  let dir = Filename.concat tmp_root "pipeline-ref" in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  Unix.mkdir (Filename.concat dir "schemas") 0o700;
  let fx name = read_file (Filename.concat fixtures name) in
  write_file (Filename.concat dir "core.dts") (fx "custom-sbc.dts");
  write_file (Filename.concat dir "board.deltas") (fx "custom-sbc.deltas");
  write_file (Filename.concat dir "board.fm") (fx "custom-sbc.fm");
  write_file (Filename.concat dir "cpus.dtsi") (fx "cpus.dtsi");
  Array.iter
    (fun n ->
      write_file
        (Filename.concat (Filename.concat dir "schemas") n)
        (fx (Filename.concat "schemas" n)))
    (Sys.readdir (Filename.concat fixtures "schemas"));
  dir

let pipeline_cli_args =
  "pipeline --core core.dts --deltas board.deltas --model board.fm \
   --schemas schemas --vm memory,cpu@0,uart@20000000,uart@30000000,veth0 \
   --vm memory,cpu@1,uart@20000000,uart@30000000,veth1 --exclusive cpus \
   --certify --retry 3"

(* --- scenarios ---------------------------------------------------------------- *)

let test_functional () =
  let d =
    start_daemon
      ~env:[ "LLHSC_SERVE_TEST_HOOKS=1" ]
      [ "--workers"; "2"; "--read-timeout"; "2"; "--max-body"; "1048576";
        "--max-header"; "4096" ]
  in
  say "healthz / readyz / stats";
  expect_status "healthz" 200 (request d "GET" "/healthz" "");
  expect_status "readyz" 200 (request d "GET" "/readyz" "");
  let stats = request d "GET" "/v1/stats" "" in
  expect_status "stats" 200 stats;
  ignore (json_member stats "accepted");

  say "routing refusals";
  expect_status "404" 404 (request d "GET" "/nope" "");
  expect_status "405 healthz" 405 (request d "POST" "/healthz" "");
  expect_status "405 check" 405 (request d "GET" "/v1/check" "");

  say "malformed HTTP is refused without costing more than its socket";
  expect_status "bad request line" 400 (raw_request d "NOT-HTTP\r\n\r\n");
  expect_status "bad version" 505 (raw_request d "GET / HTTP/9.9\r\n\r\n");
  expect_status "oversized declared body" 413
    (raw_request d "POST /v1/check HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n");
  expect_status "oversized headers" 431
    (raw_request d
       ("GET /healthz HTTP/1.1\r\nX-Pad: " ^ String.make 5000 'a' ^ "\r\n\r\n"));
  expect_status "truncated chunked" 408
    (raw_request d
       "POST /v1/check HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel");

  say "slow-loris partial header times out with 408";
  let t0 = Unix.gettimeofday () in
  let r = raw_request d "GET /healthz HTTP/1.1\r\nX-Slow:" in
  expect_status "slow-loris" 408 r;
  if Unix.gettimeofday () -. t0 > 10. then fail "slow-loris cut took too long";

  say "client disconnect mid-body does not disturb the daemon";
  let fd = connect d.port in
  send_all fd "POST /v1/check HTTP/1.1\r\nContent-Length: 1000\r\n\r\npartial";
  Unix.close fd;
  expect_status "healthz after mid-body disconnect" 200 (request d "GET" "/healthz" "");

  say "check: served verdict is byte-identical to the batch CLI";
  let dir = Filename.concat tmp_root "check-ref" in
  rm_rf dir; Unix.mkdir dir 0o700;
  write_file (Filename.concat dir "request.dts") good_dts;
  let cli_out, _, cli_rc = cli_run ~dir "check request.dts" in
  let r = request d "POST" "/v1/check" good_dts in
  expect_status "check good" 200 r;
  if json_str r "status" <> "clean" then fail "check good: not clean: %s" r.body;
  if cli_rc <> 0 then fail "CLI check rc=%d" cli_rc;
  if json_str r "report" <> cli_out then
    fail "served check report differs from CLI:\n%S\nvs\n%S" (json_str r "report") cli_out;

  say "check --certify: byte-identical too";
  let cli_cert, _, _ = cli_run ~dir "check request.dts --certify" in
  let r = request d "POST" "/v1/check?certify=1" good_dts in
  expect_status "check certify" 200 r;
  if json_str r "report" <> cli_cert then fail "certify report differs from CLI";

  say "check: input errors surface with the CLI's diagnostics and exit code";
  write_file (Filename.concat dir "request.dts") bad_dts;
  let _, cli_err, cli_rc = cli_run ~dir "check request.dts" in
  let r = request d "POST" "/v1/check" bad_dts in
  expect_status "check bad" 200 r;
  if json_str r "status" <> "input-error" then fail "bad dts: not input-error: %s" r.body;
  (match Llhsc.Json.to_int (json_member r "exit") with
   | Some e when e = cli_rc -> ()
   | e -> fail "bad dts: exit %s vs CLI %d"
            (match e with Some e -> string_of_int e | None -> "?") cli_rc);
  let served_err =
    match Llhsc.Json.to_str_list (json_member r "stderr") with
    | Some lines -> String.concat "\n" lines
    | None -> fail "stderr not a string list"
  in
  let cli_err_joined =
    String.concat "\n" (List.filter (fun l -> l <> "") (String.split_on_char '\n' cli_err))
  in
  if served_err <> cli_err_joined then
    fail "served stderr differs from CLI:\n%S\nvs\n%S" served_err cli_err_joined;

  say "pipeline (certify+retry+schemas+aux files): byte-identical to the CLI";
  let ref_dir = pipeline_ref_dir () in
  let cli_out, _, cli_rc = cli_run ~dir:ref_dir pipeline_cli_args in
  if cli_rc <> 0 then fail "CLI pipeline rc=%d" cli_rc;
  let r = request d "POST" "/v1/pipeline" (pipeline_body ~jobs:1) in
  expect_status "pipeline" 200 r;
  if json_str r "status" <> "clean" then fail "pipeline not clean: %s" r.body;
  if json_str r "report" <> cli_out then fail "served pipeline report differs from CLI";

  say "pipeline with jobs>1 (shard pool in the job child): same bytes";
  let r = request d "POST" "/v1/pipeline" (pipeline_body ~jobs:2) in
  expect_status "pipeline jobs=2" 200 r;
  if json_str r "report" <> cli_out then fail "sharded pipeline report differs";

  say "hostile pipeline bodies are 400 PARSE, not daemon casualties";
  let r = request d "POST" "/v1/pipeline" "{ not json" in
  expect_status "bad json" 400 r;
  expect_code "bad json" "PARSE" r;
  let r = request d "POST" "/v1/pipeline" (String.make 200_000 '[') in
  expect_status "deep nesting" 400 r;
  expect_code "deep nesting" "PARSE" r;
  let r = request d "POST" "/v1/pipeline" "{\"core\": \"x\"}" in
  expect_status "missing inputs" 400 r;
  expect_code "missing inputs" "PARSE" r;
  let r =
    request d "POST" "/v1/check" ~headers:[ ("X-Llhsc-Filename", "../escape.dts") ]
      good_dts
  in
  expect_status "path traversal filename" 400 r;

  say "an /include/ that climbs out of the request resolves nowhere";
  let outside = Filename.concat tmp_root "outside.txt" in
  let secret = Printf.sprintf "secret_token_%d" (Unix.getpid ()) in
  write_file outside (secret ^ ":\n");
  let climb =
    String.concat "" (List.init 40 (fun _ -> "../"))
    ^ String.sub outside 1 (String.length outside - 1)
  in
  let include_line = Printf.sprintf "/include/ \"%s\"\n" climb in
  let escapes what r =
    expect_status what 200 r;
    (match Llhsc.Json.to_int (json_member r "exit") with
     | Some 2 -> ()
     | _ -> fail "%s: want exit 2: %s" what r.body);
    if not (List.exists (fun l -> Llhsc.Util.contains l "cannot resolve /include/")
              (stderr_lines what r))
    then fail "%s: no unresolved-include error: %s" what r.body;
    if Llhsc.Util.contains r.body secret then fail "%s: the response holds %s" what outside
  in
  escapes "check include escape" (request d "POST" "/v1/check" ("/dts-v1/;\n" ^ include_line));
  let fx name = read_file (Filename.concat fixtures name) in
  escapes "pipeline include escape"
    (request d "POST" "/v1/pipeline"
       (Llhsc.Json.to_string
          (Llhsc.Json.Obj
             [ ("core", Str (include_line ^ fx "custom-sbc.dts"));
               ("deltas", Str (fx "custom-sbc.deltas"));
               ("model", Str (fx "custom-sbc.fm"));
               ("files", Obj [ ("cpus.dtsi", Str (fx "cpus.dtsi")) ]);
               ("vms", List [ List [ Str "memory" ] ]) ])));

  expect_status "healthz after hostile barrage" 200 (request d "GET" "/healthz" "");
  stop_daemon d

(* A /v1/pipeline body whose [files] hold a chain of 30 files, each
   including the next one twice, would expand 2^31 - 2 includes.  The
   bound on a tree's includes ends the job at once with one error, and the
   daemon then serves a small check as usual.  The request deadline only
   keeps an unbounded expansion from outliving the harness. *)
let test_include_chain () =
  say "a doubling /include/ chain in a pipeline's files stops at the bound";
  let d = start_daemon [ "--workers"; "2"; "--request-deadline"; "10" ] in
  let twice i =
    let line = Printf.sprintf "/include/ \"c%d.dtsi\"\n" i in
    line ^ line
  in
  let files =
    List.init 30 (fun i ->
        let text = if i = 29 then "/ { leaf; };\n" else twice (i + 2) in
        (Printf.sprintf "c%d.dtsi" (i + 1), Llhsc.Json.Str text))
  in
  let fx name = read_file (Filename.concat fixtures name) in
  let body =
    Llhsc.Json.to_string
      (Llhsc.Json.Obj
         [ ("core", Str ("/dts-v1/;\n" ^ twice 1));
           ("deltas", Str (fx "custom-sbc.deltas"));
           ("model", Str (fx "custom-sbc.fm"));
           ("files", Obj files);
           ("vms", List [ List [ Str "memory" ] ]) ])
  in
  let t0 = Unix.gettimeofday () in
  let r = request d "POST" "/v1/pipeline" body in
  let took = Unix.gettimeofday () -. t0 in
  expect_status "include chain" 200 r;
  (match Llhsc.Json.to_int (json_member r "exit") with
   | Some 2 -> ()
   | _ -> fail "include chain: want exit 2: %s" r.body);
  (match stderr_lines "include chain" r with
   | [ line ]
     when Llhsc.Util.contains line "error[DT-PARSE]: "
          && Llhsc.Util.contains line "more than 1000 includes in one tree" -> ()
   | lines -> fail "include chain: want one bound error, got %S" (String.concat "\n" lines));
  if took > 5. then fail "include chain: answered after %.1f s, want under 5 s" took;
  let r = request d "POST" "/v1/check" good_dts in
  expect_status "check after the chain" 200 r;
  if json_str r "status" <> "clean" then fail "check after the chain: not clean: %s" r.body;
  stop_daemon d

let test_overload () =
  let d =
    start_daemon
      ~env:[ "LLHSC_SERVE_TEST_HOOKS=1" ]
      [ "--workers"; "1"; "--queue"; "1"; "--tenant-quota"; "1" ]
  in
  say "queue saturation: 1 running + 1 queued, the rest shed 429 QUEUE";
  (* Distinct tenants so the queue bound (not the per-tenant quota) is
     what trips.  All four requests are in flight before the first delayed
     job finishes, so admission order is: run, queue, shed, shed. *)
  let delayed tenant =
    let fd = connect d.port in
    send_all fd
      (Printf.sprintf
         "POST /v1/check HTTP/1.1\r\nHost: t\r\nX-Api-Key: %s\r\n\
          X-Llhsc-Test-Delay-Ms: 600\r\nContent-Length: %d\r\n\r\n%s"
         tenant (String.length good_dts) good_dts);
    fd
  in
  let fds = List.map delayed [ "t1"; "t2"; "t3"; "t4" ] in
  let resps =
    List.map
      (fun fd ->
        let r = parse_response (recv_all fd) in
        Unix.close fd;
        r)
      fds
  in
  let count s = List.length (List.filter (fun r -> r.status = s) resps) in
  if count 200 <> 2 || count 429 <> 2 then
    fail "overload: got statuses [%s], want two 200s and two 429s"
      (String.concat ";" (List.map (fun r -> string_of_int r.status) resps));
  List.iter
    (fun r ->
      if r.status = 429 then begin
        expect_retry_after "queue shed" r;
        expect_code "queue shed" "QUEUE" r
      end
      else if json_str r "status" <> "clean" then
        fail "accepted overload request not clean: %s" r.body)
    resps;

  say "tenant quota: same key twice concurrently -> one 200, one 429 QUOTA";
  let a = delayed "same" in
  (* Give the daemon a beat to admit the first before the second lands. *)
  Unix.sleepf 0.15;
  let b = delayed "same" in
  let rb = parse_response (recv_all b) in
  let ra = parse_response (recv_all a) in
  Unix.close a; Unix.close b;
  expect_status "quota first" 200 ra;
  expect_status "quota second" 429 rb;
  expect_code "quota second" "QUOTA" rb;
  expect_retry_after "quota second" rb;

  say "every accepted request above was answered exactly once";
  let stats = request d "GET" "/v1/stats" "" in
  let get name =
    match Llhsc.Json.to_int (json_member stats name) with
    | Some i -> i
    | None -> fail "stats %s not an int" name
  in
  if get "accepted" <> get "completed" then
    fail "accepted=%d but completed=%d" (get "accepted") (get "completed");
  if get "shed_queue" <> 2 then fail "shed_queue=%d, want 2" (get "shed_queue");
  if get "shed_tenant" <> 1 then fail "shed_tenant=%d, want 1" (get "shed_tenant");
  stop_daemon d

let test_faults () =
  let d =
    start_daemon
      ~env:
        [ "LLHSC_SERVE_TEST_HOOKS=1"; "LLHSC_FAULT=kill-job@0,hang-job@1" ]
      [ "--workers"; "2"; "--request-deadline"; "1.5" ]
  in
  say "job 0 is killed at birth -> 500 WORKER, exactly one response";
  let r = request d "POST" "/v1/check" good_dts in
  expect_status "killed job" 500 r;
  expect_code "killed job" "WORKER" r;

  say "job 1 hangs -> lease expires -> process group killed -> 504 DEADLINE";
  let t0 = Unix.gettimeofday () in
  let r = request d "POST" "/v1/check" good_dts in
  expect_status "hung job" 504 r;
  expect_code "hung job" "DEADLINE" r;
  if Unix.gettimeofday () -. t0 > 10. then fail "deadline kill took too long";

  say "the daemon survives both faults and serves job 2 normally";
  let r = request d "POST" "/v1/check" good_dts in
  expect_status "after faults" 200 r;
  if json_str r "status" <> "clean" then fail "post-fault check not clean";

  say "client disconnect while job runs: slot freed, daemon healthy";
  let fd = connect d.port in
  send_all fd (delayed_check ~delay_ms:400);
  Unix.sleepf 0.15;
  Unix.close fd;
  Unix.sleepf 0.1;
  expect_status "healthz after abandoned job" 200 (request d "GET" "/healthz" "");
  stop_daemon d

let test_drain () =
  let d = start_daemon ~env:[ "LLHSC_SERVE_TEST_HOOKS=1" ] [ "--workers"; "1" ] in
  say "SIGTERM drain: in-flight request still answered, daemon exits 0";
  let fd = connect d.port in
  send_all fd (delayed_check ~delay_ms:1200);
  Unix.sleepf 0.3;
  Unix.kill d.pid Sys.sigterm;
  Unix.sleepf 0.1;
  (* The front door must be shut: a new connect is either refused outright
     (listener closed) or, if a response does come back, it is a 503 — but
     never a fresh admission. *)
  (try
     let fd = connect d.port in
     send_all fd "GET /readyz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n";
     let raw = recv_all fd in
     Unix.close fd;
     if String.length raw > 0 then begin
       let r = parse_response raw in
       if r.status <> 503 then fail "readyz during drain: %d, want 503" r.status
     end
   with Unix.Unix_error _ -> ());
  let r = parse_response (recv_all fd) in
  Unix.close fd;
  expect_status "in-flight during drain" 200 r;
  if json_str r "status" <> "clean" then fail "drained request not clean: %s" r.body;
  await_drain d

(* Whether a fresh listener can bind [port] the way the daemon does: it
   cannot while any process still holds the daemon's listen socket. *)
let can_rebind port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      match
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen fd 1
      with
      | () -> true
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> false)

(* A job child is a fork of the daemon, so it must first drop everything
   the daemon holds.  Client B connects before job A forks; A's child
   then sleeps 3 s in the test hook.  B's job must answer and B's socket
   reach EOF long before that, and after SIGTERM the port must bind
   again while A still sleeps: a child that kept B's socket or the
   listen socket fails one of the two.  Jobs run from memory: the
   daemon's TMPDIR stays empty while it runs and after the drain. *)
let test_isolation () =
  let tmpdir = Filename.concat tmp_root "tmpdir" in
  Unix.mkdir tmpdir 0o700;
  let d =
    start_daemon
      ~env:[ "LLHSC_SERVE_TEST_HOOKS=1"; "TMPDIR=" ^ tmpdir ]
      [ "--workers"; "2" ]
  in
  let tmpdir_empty what =
    match Sys.readdir tmpdir with
    | [||] -> ()
    | entries -> fail "TMPDIR not empty %s: %s" what (String.concat " " (Array.to_list entries))
  in
  say "TMPDIR stays empty while the daemon runs";
  tmpdir_empty "after start";

  say "a running job holds no other client's socket";
  let b = connect d.port in
  let a = connect d.port in
  let t0 = Unix.gettimeofday () in
  send_all a (delayed_check ~delay_ms:3000);
  Unix.sleepf 0.2;
  send_all b
    (Printf.sprintf "POST /v1/check HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s"
       (String.length good_dts) good_dts);
  let rb = parse_response (recv_all b) in
  let waited = Unix.gettimeofday () -. t0 in
  Unix.close b;
  expect_status "second client" 200 rb;
  if json_str rb "status" <> "clean" then fail "second client: not clean: %s" rb.body;
  if waited >= 3.0 then
    fail "second client saw EOF after %.2f s: the delayed job holds its socket" waited;
  tmpdir_empty "while a job runs";

  say "after SIGTERM the port binds again while a job still runs";
  Unix.kill d.pid Sys.sigterm;
  Unix.sleepf 0.2;
  if not (can_rebind d.port) then fail "port %d still has a listener during drain" d.port;
  if Unix.gettimeofday () -. t0 >= 3.0 then fail "rebind probe came too late to mean anything";
  let ra = parse_response (recv_all a) in
  Unix.close a;
  expect_status "delayed job during drain" 200 ra;
  await_drain d;
  if not (can_rebind d.port) then fail "port %d not bindable after drain" d.port;
  tmpdir_empty "after the drain"

(* The fault schedule reaches a served job as it reaches the batch CLI:
   the job child zeroes the daemon's counters, and the worker kinds fire
   in the shard pool inside it. *)
let test_fault_state () =
  let d =
    start_daemon ~env:[ "LLHSC_FAULT=kill-worker@0" ] [ "--workers"; "1" ]
  in
  say "kill-worker@0 in a served jobs=2 pipeline: same report as the batch CLI";
  let ref_dir = pipeline_ref_dir () in
  let cli_out, cli_err, cli_rc =
    cli_run ~env:"LLHSC_FAULT=kill-worker@0" ~dir:ref_dir
      (pipeline_cli_args ^ " --jobs 2 --task-deadline 60")
  in
  if not (Llhsc.Util.contains cli_err "reassigning task 0 (") then
    fail "batch CLI did not reassign task 0: %S" cli_err;
  let r = request d "POST" "/v1/pipeline" (pipeline_body ~jobs:2) in
  expect_status "faulted pipeline" 200 r;
  if json_str r "report" <> cli_out then fail "faulted served report differs from the CLI";
  (match Llhsc.Json.to_int (json_member r "exit") with
   | Some e when e = cli_rc -> ()
   | _ -> fail "faulted served exit differs from the CLI's %d" cli_rc);
  (match Llhsc.Json.to_str_list (json_member r "stderr") with
   | Some lines
     when List.exists (fun l -> Llhsc.Util.contains l "reassigning task 0 (") lines -> ()
   | _ -> fail "served stderr lacks the reassignment notice: %s" r.body);
  stop_daemon d

(* A loopback port nothing listens on, for a dispatcher to claim. *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> fail "no port for the dispatch address")

(* Reap [pid] within [secs] seconds and return its exit code. *)
let reap ~secs what pid =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () -. t0 > secs then fail "%s still running after %.0f s" what secs;
      Unix.sleepf 0.05;
      go ()
    | _, status -> (
      live := List.filter (( <> ) pid) !live;
      match status with
      | Unix.WEXITED c -> c
      | Unix.WSIGNALED s | Unix.WSTOPPED s -> fail "%s died on signal %d" what s)
  in
  go ()

(* The fleet backend of a served pipeline.  The daemon gets one
   --dispatch address and a secret file named relative to its own
   directory; the job child, which runs in that directory too, runs the
   job's spec as a dispatcher listening on ADDR and reads the secret.
   One authenticated worker serves the first job's dispatcher and is
   retired; the second job finds no worker and sweeps in-process.  Both
   reports are the batch CLI's bytes. *)
let test_dispatch () =
  let dir = Filename.concat tmp_root "dispatch" in
  Unix.mkdir dir 0o700;
  let secret = Filename.concat dir "secret.txt" in
  write_file secret "fleet secret\n";
  let addr = Printf.sprintf "127.0.0.1:%d" (free_port ()) in
  let cwd = Sys.getcwd () in
  Unix.chdir dir;
  let d =
    Fun.protect
      ~finally:(fun () -> Unix.chdir cwd)
      (fun () ->
        start_daemon
          [ "--workers"; "1"; "--dispatch"; addr; "--dispatch-secret-file"; "secret.txt" ])
  in
  let ref_dir = pipeline_ref_dir () in
  let cli_out, _, cli_rc = cli_run ~dir:ref_dir pipeline_cli_args in
  if cli_rc <> 0 then fail "CLI pipeline rc=%d" cli_rc;

  say "served pipeline on the fleet backend: an authenticated worker runs it";
  let fd = connect d.port in
  let body = pipeline_body ~jobs:1 in
  send_all fd
    (Printf.sprintf "POST /v1/pipeline HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s"
       (String.length body) body);
  (* The worker backs off until the job's dispatcher listens, well inside
     the dispatcher's 2 s registration grace. *)
  let log =
    Unix.openfile (Filename.concat dir "worker.log") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600
  in
  let worker =
    Unix.create_process llhsc
      [| llhsc; "worker"; "--connect"; addr; "--secret-file"; secret;
         "--max-reconnects"; "40" |]
      Unix.stdin log log
  in
  Unix.close log;
  live := worker :: !live;
  let r = parse_response (recv_all fd) in
  Unix.close fd;
  expect_status "fleet pipeline" 200 r;
  if json_str r "report" <> cli_out then fail "fleet-served pipeline report differs from CLI";
  let ready l = Llhsc.Util.contains l " ready" in
  if not (List.exists ready (stderr_lines "fleet pipeline" r)) then
    fail "no worker served the dispatcher: %s" r.body;
  let code = reap ~secs:30. "worker" worker in
  if code <> 0 then
    fail "worker exited %d, want 0 (retired): %s" code
      (read_file (Filename.concat dir "worker.log"));

  say "no worker: the dispatcher's in-process sweep gives the same bytes";
  let r = request d "POST" "/v1/pipeline" body in
  expect_status "workerless fleet pipeline" 200 r;
  if json_str r "report" <> cli_out then fail "in-process sweep report differs from the CLI";
  if
    not
      (List.exists
         (fun l -> Llhsc.Util.contains l "in-process")
         (stderr_lines "workerless fleet pipeline" r))
  then fail "the workerless dispatcher did not sweep in-process: %s" r.body;

  say "/v1/stats counts both jobs on the fleet backend";
  let stats = request d "GET" "/v1/stats" "" in
  let get name =
    match Llhsc.Json.to_int (json_member stats name) with
    | Some i -> i
    | None -> fail "stats %s not an int" name
  in
  if get "backend_fleet" <> 2 || get "backend_local" <> 0 then
    fail "backend_fleet=%d backend_local=%d, want 2 and 0" (get "backend_fleet")
      (get "backend_local");
  stop_daemon d

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  test_functional ();
  test_include_chain ();
  test_overload ();
  test_faults ();
  test_drain ();
  test_isolation ();
  test_fault_state ();
  test_dispatch ();
  print_endline "serve smoke: all scenarios passed"
