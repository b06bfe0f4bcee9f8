(* Unit tests for the fleet building blocks: CRC32, the frame codec and
   its session MACs, SHA-256/HMAC against the published vectors, the
   shared supervision core and its loop (driven by a scripted fake
   worker), the journal's per-line checksums, and the spec's JSON
   round-trip and include recording — plus qcheck properties pushing
   adversarial bytes through the decoder.  The TCP paths themselves are
   exercised by fleet_smoke.ml with real processes. *)

module Util = Llhsc.Util
module Journal = Llhsc.Journal
module Supervise = Llhsc.Supervise
module Json = Llhsc.Json
module Hmac = Llhsc.Hmac

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* --- crc32 ------------------------------------------------------------------- *)

let test_crc_known_answer () =
  (* The standard IEEE 802.3 check value. *)
  Alcotest.(check int) "check value" 0xCBF43926 (Util.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (Util.crc32 "")

let test_crc_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let mid = String.length s / 2 in
  let inc =
    Util.crc32_update (Util.crc32_update 0 s 0 mid) s mid (String.length s - mid)
  in
  Alcotest.(check int) "incremental = one-shot" (Util.crc32 s) inc;
  Alcotest.(check bool) "corruption changes crc" true
    (Util.crc32 s <> Util.crc32 (s ^ " "))

(* --- frame codec ------------------------------------------------------------- *)

let next_frame dec =
  match Llhsc.Frame.Decoder.next dec with
  | `Frame p -> Some p
  | `Awaiting -> None
  | `Corrupt m -> Alcotest.failf "unexpected corrupt: %s" m

let test_frame_roundtrip () =
  let dec = Llhsc.Frame.Decoder.create () in
  let payloads = [ "alpha"; ""; String.make 100_000 'x'; "{\"task\":3}" ] in
  let wire = String.concat "" (List.map Llhsc.Frame.encode payloads) in
  (* Feed byte by byte: boundaries must not matter. *)
  let got = ref [] in
  String.iteri
    (fun i _ ->
      Llhsc.Frame.Decoder.feed dec wire i 1;
      match next_frame dec with Some p -> got := p :: !got | None -> ())
    wire;
  (* Drain anything completed by the last byte. *)
  let rec drain () =
    match next_frame dec with
    | Some p ->
      got := p :: !got;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "all frames, in order" payloads (List.rev !got)

let test_frame_corruption () =
  let wire = Llhsc.Frame.encode "hello fleet" in
  (* Flip one payload byte: checksum must catch it. *)
  let b = Bytes.of_string wire in
  Bytes.set b (String.length wire - 1) '!';
  let dec = Llhsc.Frame.Decoder.create () in
  Llhsc.Frame.Decoder.feed dec (Bytes.to_string b) 0 (Bytes.length b);
  (match Llhsc.Frame.Decoder.next dec with
   | `Corrupt m -> Alcotest.(check bool) "mentions checksum" true (contains m "checksum")
   | `Frame _ | `Awaiting -> Alcotest.fail "corrupt frame accepted");
  (* An absurd declared length is rejected without buffering. *)
  let dec = Llhsc.Frame.Decoder.create () in
  Llhsc.Frame.Decoder.feed dec "\xff\xff\xff\xff????" 0 8;
  (match Llhsc.Frame.Decoder.next dec with
   | `Corrupt m -> Alcotest.(check bool) "mentions size" true (contains m "oversized")
   | `Frame _ | `Awaiting -> Alcotest.fail "oversized frame accepted")

(* --- sha256 / hmac ----------------------------------------------------------- *)

let test_sha256_known () =
  (* FIPS 180-4 / NIST CAVP vectors. *)
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Hmac.to_hex (Hmac.sha256 "abc"));
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Hmac.to_hex (Hmac.sha256 ""));
  (* 56 bytes forces the two-block padding path. *)
  Alcotest.(check string) "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Hmac.to_hex (Hmac.sha256 "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  (* A million 'a's exercises the length counter across many blocks. *)
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Hmac.to_hex (Hmac.sha256 (String.make 1_000_000 'a')))

let test_hmac_rfc4231 () =
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.to_hex (Hmac.hmac ~key:(String.make 20 '\x0b') "Hi There"));
  Alcotest.(check string) "case 2 (short key)"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.to_hex (Hmac.hmac ~key:"Jefe" "what do ya want for nothing?"));
  (* Key longer than the block size must be hashed first. *)
  Alcotest.(check string) "case 6 (long key)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.to_hex
       (Hmac.hmac ~key:(String.make 131 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_constant_time_equal () =
  Alcotest.(check bool) "equal" true (Hmac.equal "abcd" "abcd");
  Alcotest.(check bool) "differs" false (Hmac.equal "abcd" "abce");
  Alcotest.(check bool) "first byte differs" false (Hmac.equal "xbcd" "abcd");
  Alcotest.(check bool) "length differs" false (Hmac.equal "abc" "abcd");
  Alcotest.(check bool) "empty" true (Hmac.equal "" "");
  Alcotest.(check int) "nonce is 32 hex chars" 32 (String.length (Hmac.nonce ()));
  Alcotest.(check bool) "nonces differ" true (Hmac.nonce () <> Hmac.nonce ())

(* --- session MACs ------------------------------------------------------------ *)

let test_seal_unseal () =
  let key = Hmac.sha256 "session key" in
  let sealed = Llhsc.Frame.seal ~key ~seq:7 "payload bytes" in
  Alcotest.(check (option string)) "roundtrip" (Some "payload bytes")
    (Llhsc.Frame.unseal ~key ~seq:7 sealed);
  Alcotest.(check (option string)) "empty body" (Some "")
    (Llhsc.Frame.unseal ~key ~seq:0 (Llhsc.Frame.seal ~key ~seq:0 ""));
  (* A replayed or reordered frame carries the wrong sequence number. *)
  Alcotest.(check (option string)) "wrong seq" None
    (Llhsc.Frame.unseal ~key ~seq:8 sealed);
  Alcotest.(check (option string)) "wrong key" None
    (Llhsc.Frame.unseal ~key:(Hmac.sha256 "other") ~seq:7 sealed);
  let b = Bytes.of_string sealed in
  Bytes.set b (Bytes.length b - 1) 'X';
  Alcotest.(check (option string)) "tampered body" None
    (Llhsc.Frame.unseal ~key ~seq:7 (Bytes.to_string b));
  let b = Bytes.of_string sealed in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
  Alcotest.(check (option string)) "tampered mac" None
    (Llhsc.Frame.unseal ~key ~seq:7 (Bytes.to_string b));
  Alcotest.(check (option string)) "payload shorter than a MAC" None
    (Llhsc.Frame.unseal ~key ~seq:0 "short")

(* --- adversarial frames ------------------------------------------------------ *)

(* Satellite of the trust work: whatever bytes arrive — garbage,
   truncations, bit flips, absurd lengths, MAC tampering — the decoder
   must neither raise nor hand back a payload the MAC layer accepts. *)

let drain_frames wire =
  let dec = Llhsc.Frame.Decoder.create () in
  Llhsc.Frame.Decoder.feed dec wire 0 (String.length wire);
  let rec go acc =
    match Llhsc.Frame.Decoder.next dec with
    | `Frame p -> go (p :: acc)
    | `Awaiting | `Corrupt _ -> List.rev acc
  in
  go []

let adversarial_input =
  QCheck.make
    ~print:(fun (payload, mode, a, b) ->
      Printf.sprintf "mode %d, %d payload bytes, a=%d b=%d" mode
        (String.length payload) a b)
    QCheck.Gen.(
      map
        (fun ((payload, mode), (a, b)) -> (payload, mode, a, b))
        (pair (pair (string_size (int_range 0 200)) (int_range 0 4)) (pair nat nat)))

let prop_adversarial_frames =
  QCheck.Test.make ~name:"adversarial frames: no crash, no accepted forgery"
    ~count:500 adversarial_input (fun (payload, mode, a, b) ->
      let key = Hmac.sha256 "adversarial-key" in
      let flip s i mask =
        let by = Bytes.of_string s in
        Bytes.set by i (Char.chr (Char.code (Bytes.get by i) lxor mask));
        Bytes.to_string by
      in
      let mask = 1 + (b mod 255) in
      let wire =
        match mode with
        | 0 -> payload (* raw garbage *)
        | 1 ->
          let w = Llhsc.Frame.encode payload in
          String.sub w 0 (a mod String.length w) (* truncated frame *)
        | 2 ->
          let w = Llhsc.Frame.encode payload in
          flip w (a mod String.length w) mask (* one flipped byte *)
        | 3 -> "\xff\xff\xff\xff" ^ payload (* absurd declared length *)
        | _ ->
          (* Valid frame around a MAC-tampered sealed payload. *)
          let sealed = Llhsc.Frame.seal ~key ~seq:3 payload in
          Llhsc.Frame.encode (flip sealed (a mod Llhsc.Frame.mac_len) mask)
      in
      let frames = drain_frames wire in
      match mode with
      | 4 -> (
        (* The frame itself is intact, so it decodes — but the MAC layer
           must refuse it (and accept the untampered original). *)
        Llhsc.Frame.unseal ~key ~seq:3 (Llhsc.Frame.seal ~key ~seq:3 payload)
        = Some payload
        &&
        match frames with
        | [ f ] -> Llhsc.Frame.unseal ~key ~seq:3 f = None
        | _ -> false)
      | _ ->
        (* Corrupted or truncated wire bytes never produce a frame (a
           chance CRC collision is a 2^-32 event). *)
        frames = [])

(* --- worker backoff ----------------------------------------------------------- *)

let test_backoff_bounds () =
  for seed = 1 to 50 do
    for attempt = 1 to 12 do
      let base = Float.min 5.0 (0.2 *. (2. ** float_of_int (attempt - 1))) in
      let d = Fleet.Worker.backoff_delay ~seed ~attempt in
      if d < (0.75 *. base) -. 1e-9 || d >= (1.25 *. base) +. 1e-9 then
        Alcotest.failf "seed %d attempt %d: %g outside [%g, %g)" seed attempt d
          (0.75 *. base) (1.25 *. base)
    done
  done;
  (* The jitter must actually depend on the seed (no thundering herd). *)
  let ds =
    List.init 20 (fun seed -> Fleet.Worker.backoff_delay ~seed:(seed + 1) ~attempt:5)
  in
  Alcotest.(check bool) "seed-dependent" true
    (List.exists (fun d -> d <> List.hd ds) ds)

(* --- supervision core -------------------------------------------------------- *)

let test_supervise_first_wins () =
  let st : string Supervise.t = Supervise.create 3 in
  Alcotest.(check bool) "has pending" true (Supervise.has_pending st);
  Alcotest.(check (option int)) "pops in order" (Some 0) (Supervise.next st);
  (match Supervise.resolve st 0 "first" with
   | `Fresh -> ()
   | `Duplicate -> Alcotest.fail "first result flagged duplicate");
  (match Supervise.resolve st 0 "second" with
   | `Duplicate -> ()
   | `Fresh -> Alcotest.fail "duplicate result accepted");
  Alcotest.(check (option string)) "first result kept" (Some "first")
    (Supervise.results st).(0)

let test_supervise_crash_quarantine () =
  let st : unit Supervise.t = Supervise.create 2 in
  ignore (Supervise.next st);
  (match Supervise.record_crash st 0 with
   | `Reassign -> ()
   | _ -> Alcotest.fail "first crash should reassign");
  (* Reassigned to the front of the queue. *)
  Alcotest.(check (option int)) "requeued first" (Some 0) (Supervise.next st);
  (match Supervise.record_crash st 0 with
   | `Quarantine 2 -> ()
   | _ -> Alcotest.fail "second crash should quarantine");
  Alcotest.(check bool) "quarantined" true (Supervise.is_quarantined st 0);
  (* Quarantined tasks are out of the queue but still unresolved. *)
  Alcotest.(check (option int)) "queue skips poison" (Some 1) (Supervise.next st);
  ignore (Supervise.resolve st 1 ());
  Alcotest.(check bool) "pool-side work done" false (Supervise.unfinished st);
  Alcotest.(check (list int)) "sweep list" [ 0 ] (Supervise.unresolved st);
  (* A crash on an already-resolved task is a no-op. *)
  (match Supervise.record_crash st 1 with
   | `Resolved -> ()
   | _ -> Alcotest.fail "crash after resolve should be `Resolved")

let test_lease_clock () =
  let l = Supervise.Lease.create () in
  Alcotest.(check (option int)) "idle" None (Supervise.Lease.task l);
  Supervise.Lease.start l 7 100.0;
  Alcotest.(check (option int)) "leased" (Some 7) (Supervise.Lease.task l);
  (* A heartbeat for another task is ignored: task 7's clock runs on. *)
  Supervise.Lease.beat l 42 102.0;
  Alcotest.(check (option int)) "expired at 103" (Some 7)
    (Supervise.Lease.expired l ~deadline:2.5 ~now:103.0);
  (* A heartbeat for the leased task restarts its clock. *)
  Supervise.Lease.beat l 7 103.0;
  Alcotest.(check (option int)) "beat deferred expiry" None
    (Supervise.Lease.expired l ~deadline:2.5 ~now:104.0);
  Alcotest.(check (option (float 1e-9))) "next expiry" (Some 1.5)
    (Supervise.Lease.next_expiry l ~deadline:2.5 ~now:104.0);
  (* Finishing another task leaves the slot alone; finishing 7 frees it. *)
  Supervise.Lease.finish l 9;
  Alcotest.(check (option int)) "other finish ignored" (Some 7) (Supervise.Lease.task l);
  Supervise.Lease.finish l 7;
  Alcotest.(check (option int)) "finish frees the slot" None (Supervise.Lease.task l);
  Alcotest.(check (option (float 1e-9))) "idle never expires" None
    (Supervise.Lease.next_expiry l ~deadline:2.5 ~now:200.0)

(* The shared supervisor loop against a scripted fake worker on a
   socketpair: a bad CRC, a result for the wrong product, and a result
   for a task it was not leased each cost the connection, and its lease
   is reassigned (on the second crash, quarantined); a duplicate result
   is ignored and the worker keeps serving. *)

let fake_task i =
  let owner = Printf.sprintf "p%d" i in
  { Llhsc.Shard.owner;
    run =
      (fun () ->
        { Llhsc.Shard.product = owner; findings = []; errors = []; queries = i;
          certs = []; cert_failures = []; retried = [] }) }

let test_loop_fake_worker () =
  let module Shard = Llhsc.Shard in
  let spec = "fake" in
  let tasks = Array.init 3 fake_task in
  let result_msg i (r : Shard.result) =
    Json.Obj
      [ ( "result",
          Json.Obj
            [ ("task", Json.Int i); ("spec", Json.Str spec);
              ("r", Shard.result_to_json r) ] ) ]
  in
  let leased c =
    match Option.bind (Shard.recv c) (Json.member "task") with
    | Some (Json.Int i) -> i
    | _ -> Alcotest.fail "fake worker: expected a lease"
  in
  (* Each script runs in a forked child on its end of the socketpair;
     after misbehaving it waits for the supervisor to hang up. *)
  let scripts =
    [ (fun c fd ->
        ignore (leased c);
        let bad = Bytes.of_string (Llhsc.Frame.encode "{\"hb\":{}}") in
        Bytes.set bad 4 (Char.chr (Char.code (Bytes.get bad 4) lxor 0xff));
        ignore (Unix.write fd bad 0 (Bytes.length bad)));
      (fun c _ ->
        let i = leased c in
        Shard.send c (result_msg i { ((fake_task i).run ()) with product = "bogus" }));
      (fun c _ ->
        let i = leased c in
        let j = (i + 1) mod 3 in
        Shard.send c (result_msg j { ((fake_task j).run ()) with queries = 99 }));
      (fun c _ ->
        Unix.putenv "LLHSC_FAULT" "dup-result-worker@1";
        ignore (Shard.serve ~spec ~mem_limit:None tasks c)) ]
  in
  let remaining = ref scripts and pids = ref [] and lost_count = ref 0 in
  let fork_script pool script =
    flush_all ();
    let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.fork () with
    | 0 ->
      Unix.close mine;
      let c = Shard.conn theirs in
      (try
         script c theirs;
         while Shard.recv c <> None do () done
       with _ -> ());
      Unix._exit 0
    | pid ->
      Unix.close theirs;
      pids := (Shard.add pool ~peer:"fake" mine, pid) :: !pids
  in
  let replace pool lost =
    lost_count := !lost_count + List.length lost;
    List.iter (fun c -> ignore (Unix.waitpid [] (List.assq c !pids))) lost;
    (match !remaining with
     | script :: rest when Shard.live pool = 0 ->
       remaining := rest;
       fork_script pool script
     | _ -> ());
    Shard.live pool > 0
  in
  let st = Supervise.create 3 in
  (* Every fault must be acted on when it arrives, not when a lease
     expires. *)
  let t0 = Unix.gettimeofday () in
  let got =
    Shard.supervise ~deadline:3. ~spec ~admit:(fun _ -> None) ~replace
      ~fresh:(fun _ _ -> ()) st tasks
  in
  Alcotest.(check bool) "no lease expired" true (Unix.gettimeofday () -. t0 < 2.);
  let last = snd (List.hd !pids) in
  (match Unix.waitpid [] last with
   | _, Unix.WEXITED 0 -> ()
   | _ -> Alcotest.fail "the dup-sending worker was not retired cleanly");
  Alcotest.(check int) "three connections dropped" 3 !lost_count;
  Alcotest.(check (list int)) "crashes per task" [ 2; 1; 0 ]
    (List.init 3 (Supervise.crashes st));
  Alcotest.(check bool) "task 0 quarantined" true (Supervise.is_quarantined st 0);
  let render = Option.map (fun r -> Json.to_string (Shard.result_to_json r)) in
  Alcotest.(check (array (option string))) "results as in-process"
    (Array.map render (Shard.run_tasks ~jobs:1 tasks))
    (Array.map render got)

(* --- journal per-line checksums ---------------------------------------------- *)

let entry name : Journal.entry =
  { Journal.kind = Journal.Product; name; hash = "h-" ^ name; features = [ "f" ];
    order = []; findings = []; certified = false; cert_failures = 0 }

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let with_tmp f =
  let path = Filename.temp_file "llhsc-journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_journal_checksummed_lines () =
  with_tmp @@ fun path ->
  let sink = Journal.open_ ~path ~inputs_hash:"ih" in
  Journal.record sink (entry "vm1");
  Journal.record sink (entry "vm2");
  Journal.close sink;
  (match read_lines path with
   | [ _header; l1; l2 ] ->
     List.iter
       (fun l ->
         match String.rindex_opt l '\t' with
         | None -> Alcotest.fail "record line has no checksum"
         | Some t ->
           let body = String.sub l 0 t in
           let crc = String.sub l (t + 1) (String.length l - t - 1) in
           Alcotest.(check string) "crc suffix"
             (Printf.sprintf "%08x" (Util.crc32 body)) crc)
       [ l1; l2 ]
   | ls -> Alcotest.failf "expected 3 lines, got %d" (List.length ls));
  let loaded = Journal.load ~path ~inputs_hash:"ih" in
  Alcotest.(check (list string)) "loads back" [ "vm1"; "vm2" ]
    (List.map (fun (e : Journal.entry) -> e.Journal.name) loaded)

let test_journal_corrupt_line_skipped () =
  with_tmp @@ fun path ->
  let sink = Journal.open_ ~path ~inputs_hash:"ih" in
  Journal.record sink (entry "vm1");
  Journal.record sink (entry "vm2");
  Journal.close sink;
  (* Corrupt one byte inside vm1's record body while keeping its old
     checksum: the result is still valid JSON, so only the CRC can tell. *)
  let lines = read_lines path in
  let oc = open_out path in
  List.iter
    (fun l ->
      let l =
        if contains l "vm1" then (
          let b = Bytes.of_string l in
          let i =
            let rec find i = if Bytes.get b i = '1' then i else find (i + 1) in
            find 0
          in
          Bytes.set b i '7';
          Bytes.to_string b)
        else l
      in
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  let loaded = Journal.load ~path ~inputs_hash:"ih" in
  Alcotest.(check (list string)) "corrupt record skipped, rest kept" [ "vm2" ]
    (List.map (fun (e : Journal.entry) -> e.Journal.name) loaded)

let test_journal_backward_compat () =
  with_tmp @@ fun path ->
  (* Hand-write an old-format (checksum-less) journal; load must accept it. *)
  let oc = open_out path in
  output_string oc "{\"llhsc-journal\":1,\"inputs\":\"ih\"}\n";
  output_string oc
    "{\"kind\":\"product\",\"name\":\"old\",\"hash\":\"h\",\"features\":[],\
     \"order\":[],\"findings\":[],\"certified\":false,\"cert_failures\":0}\n";
  close_out oc;
  let loaded = Journal.load ~path ~inputs_hash:"ih" in
  Alcotest.(check (list string)) "old lines accepted" [ "old" ]
    (List.map (fun (e : Journal.entry) -> e.Journal.name) loaded)

(* --- spec round-trip ---------------------------------------------------------- *)

let sample_spec =
  { Fleet.Spec.core = { Fleet.Spec.file = "core.dts"; text = "/dts-v1/;\n/ { };\n" };
    deltas = { Fleet.Spec.file = "b.deltas"; text = "" };
    model = "model m\n";
    schemas = [ "s1"; "s2" ];
    files = [ ("inc.dtsi", "/* inc */") ];
    vms = [ [ "a"; "b" ]; [ "c" ] ];
    exclusive = [ "cpus" ];
    certify = true;
    retry = Some 3;
    max_conflicts = None;
    solver_timeout = Some 1.5;
    unsound = None;
    skip = [ "vm2" ] }

let test_spec_roundtrip () =
  let j = Fleet.Spec.to_wire sample_spec in
  (match Json.parse (Json.to_string j) with
   | Error e -> Alcotest.failf "spec JSON does not reparse: %s" e
   | Ok j' -> (
     match Fleet.Spec.of_wire j' with
     | None -> Alcotest.fail "spec does not decode"
     | Some s ->
       Alcotest.(check bool) "round-trips" true (s = sample_spec);
       Alcotest.(check string) "hash stable" (Fleet.Spec.hash sample_spec)
         (Fleet.Spec.hash s)));
  (* The hash must see every verdict-affecting field. *)
  Alcotest.(check bool) "hash covers certify" true
    (Fleet.Spec.hash sample_spec
    <> Fleet.Spec.hash { sample_spec with Fleet.Spec.certify = false });
  Alcotest.(check bool) "hash covers skip" true
    (Fleet.Spec.hash sample_spec
    <> Fleet.Spec.hash { sample_spec with Fleet.Spec.skip = [] })

(* A worker decodes a shipped spec's flags with the CLI's own decoders,
   so a bad value arriving over the wire is refused, not planned. *)
let test_spec_rejects_bad_flags () =
  let module Q = Llhsc.Quad_rv64 in
  let quad =
    { Fleet.Spec.core = { Fleet.Spec.file = "quad-rv64.dts"; text = Q.core_dts };
      deltas = { Fleet.Spec.file = "quad-rv64.deltas"; text = Q.deltas_src };
      model = Q.feature_model_src; schemas = []; files = [];
      vms = [ Q.vm1_features; Q.vm2_features; Q.vm3_features ];
      exclusive = Q.exclusive; certify = false; retry = None; max_conflicts = None;
      solver_timeout = None; unsound = None; skip = [] }
  in
  Alcotest.(check bool) "a good spec builds" true
    (Result.is_ok (Fleet.Spec.build { quad with Fleet.Spec.retry = Some 2 }));
  Alcotest.(check bool) "retry 1 refused" true
    (Result.is_error (Fleet.Spec.build { quad with Fleet.Spec.retry = Some 1 }));
  Alcotest.(check bool) "unknown unsound kind refused" true
    (Result.is_error (Fleet.Spec.build { quad with Fleet.Spec.unsound = Some "bogus:1" }))

(* --- the run spec of a set of files ----------------------------------------- *)

(* A board in a fresh directory: a core that /include/s inc/a.dtsi, which
   /include/s inc/b.dtsi (resolved, like every include, against the
   core's directory), plus an unrelated .dtsi next to the core. *)
let with_board f =
  let dir = Filename.temp_dir "llhsc-spec" "" in
  let path name = Filename.concat dir name in
  let write name text = Out_channel.with_open_bin (path name) (fun oc -> output_string oc text) in
  Sys.mkdir (path "inc") 0o755;
  write "board.dts" "/dts-v1/;\n/include/ \"inc/a.dtsi\"\n/ { model = \"t\"; };\n";
  write "inc/a.dtsi" "/include/ \"inc/b.dtsi\"\n/ { a = <1>; };\n";
  write "inc/b.dtsi" "/ { b = <2>; };\n";
  write "spare.dtsi" "/ { spare = <3>; };\n";
  write "board.deltas" Llhsc.Quad_rv64.deltas_src;
  write "board.fm" Llhsc.Quad_rv64.feature_model_src;
  let load () =
    fst
      (Fleet.Spec.load ~core:(path "board.dts") ~deltas:(path "board.deltas")
         ~model:(path "board.fm") ~schemas:[] ~vms:[ [ "memory" ] ] ~exclusive:[]
         ~certify:false ~retry:None ~max_conflicts:None ~solver_timeout:None
         ~unsound:None)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun n -> Sys.remove (path n))
        [ "board.dts"; "inc/a.dtsi"; "inc/b.dtsi"; "spare.dtsi"; "board.deltas"; "board.fm" ];
      Sys.rmdir (path "inc");
      Sys.rmdir dir)
    (fun () -> f ~write ~load)

let test_spec_records_includes () =
  with_board @@ fun ~write:_ ~load ->
  let spec = load () in
  Alcotest.(check (list (pair string string)))
    "every include, nested too, under its literal name"
    [ ("inc/a.dtsi", "/include/ \"inc/b.dtsi\"\n/ { a = <1>; };\n");
      ("inc/b.dtsi", "/ { b = <2>; };\n") ]
    spec.Fleet.Spec.files;
  Alcotest.(check bool) "a worker plans the recorded spec" true
    (Result.is_ok (Fleet.Spec.build spec))

let test_spec_digest_follows_includes () =
  with_board @@ fun ~write ~load ->
  let before = Fleet.Spec.hash (load ()) in
  write "inc/b.dtsi" "/ { b = <4>; };\n";
  let edited = Fleet.Spec.hash (load ()) in
  Alcotest.(check bool) "an edited nested include changes the digest" true
    (edited <> before);
  write "spare.dtsi" "/ { spare = <5>; };\n";
  Alcotest.(check string) "an unrelated .dtsi next to the core does not" edited
    (Fleet.Spec.hash (load ()))

(* --- the served request --------------------------------------------------------- *)

let request_body fields =
  let module Q = Llhsc.Quad_rv64 in
  Json.to_string
    (Json.Obj
       ([ ("core", Json.Str Q.core_dts); ("deltas", Json.Str Q.deltas_src);
          ("model", Json.Str Q.feature_model_src);
          ("vms", Json.List [ Json.List [ Json.Str "memory" ] ]) ]
       @ fields))

(* A body decodes to the names a served job always reported, schemas in
   file-name order and the pool clamped; a core's /include/ resolves among
   the shipped files only. *)
let test_request_decodes () =
  match
    Fleet.Spec.of_request ~max_jobs:4
      (request_body
         [ ("schemas", Json.Obj [ ("b.yaml", Json.Str "B"); ("a.yml", Json.Str "A") ]);
           ("files", Json.Obj [ ("x.dtsi", Json.Str "/ { x = <1>; };\n") ]);
           ("retry", Json.Int 3); ("max_conflicts", Json.Int 0); ("solver_timeout", Json.Int 5);
           ("jobs", Json.Int 9); ("mem_limit", Json.Int (-1)); ("cpu_limit", Json.Int 7) ])
  with
  | Error e -> Alcotest.failf "refused: %s" e
  | Ok (spec, pool) ->
    Alcotest.(check (list string)) "names" [ "core.dts"; "board.deltas" ]
      [ spec.Fleet.Spec.core.file; spec.deltas.file ];
    Alcotest.(check (list string)) "schemas in name order" [ "A"; "B" ] spec.schemas;
    Alcotest.(check bool) "flags" true
      (spec.retry = Some 3 && spec.max_conflicts = None && spec.solver_timeout = Some 5.);
    Alcotest.(check bool) "pool" true
      (pool.Fleet.Spec.jobs = 4 && pool.mem_limit = None && pool.cpu_limit = Some 7);
    let with_core core =
      { spec with Fleet.Spec.core = { spec.core with text = core }; schemas = [] }
    in
    let resolves name =
      match Fleet.Spec.build (with_core ("/dts-v1/;\n/include/ \"" ^ name ^ "\"\n")) with
      | Ok _ -> true
      | Error e when contains e "cannot resolve /include/" -> false
      | Error e -> Alcotest.failf "include %s: %s" name e
    in
    Alcotest.(check (list bool)) "includes resolve among files only" [ true; false; false; false ]
      (List.map resolves [ "x.dtsi"; "./x.dtsi"; "board.deltas"; "../x.dtsi" ])

let test_request_refusals () =
  let refusal fields =
    match Fleet.Spec.of_request ~max_jobs:4 (request_body fields) with
    | Ok _ -> "accepted"
    | Error e -> e
  in
  Alcotest.(check (list string)) "the 400 PARSE reasons"
    [ "bad schema entry \"x.txt\""; "bad schema entry \"a.yaml\"";
      "malformed \"schemas\" (want an object of file -> contents)";
      "bad file entry \"core.dts\""; "bad file entry \"../x\"";
      "malformed \"files\" (want an object of file -> contents)";
      "bad schema entry \"..yaml\"" ]
    [ refusal [ ("schemas", Json.Obj [ ("x.txt", Json.Str "") ]) ];
      refusal [ ("schemas", Json.Obj [ ("a.yaml", Json.Str ""); ("a.yaml", Json.Str "") ]) ];
      refusal [ ("schemas", Json.List []) ];
      refusal [ ("files", Json.Obj [ ("core.dts", Json.Str "") ]) ];
      refusal [ ("files", Json.Obj [ ("../x", Json.Str "") ]) ];
      refusal [ ("files", Json.Str "") ];
      refusal
        [ ("schemas", Json.Obj [ ("..yaml", Json.Str "") ]);
          ("files", Json.Obj [ ("core.dts", Json.Str "") ]) ] ];
  let whole body =
    match Fleet.Spec.of_request ~max_jobs:4 body with Ok _ -> "accepted" | Error e -> e
  in
  Alcotest.(check (list string)) "bodies"
    [ "missing \"core\"/\"deltas\"/\"model\" inputs";
      "missing or malformed \"vms\" (want a non-empty list of feature lists)" ]
    [ whole "{\"core\": \"x\"}";
      whole "{\"core\": \"x\", \"deltas\": \"\", \"model\": \"\", \"vms\": [[\"a\"], 1]}" ];
  Alcotest.(check bool) "bad JSON" true
    (contains (whole "{ not json") "request body: ")

(* The daemon decodes every body in its one loop, so decoding is linear
   in the entries: 50,000 distinct names decode, and a duplicate after
   them is refused, within a CPU-time bound a quadratic scan misses by
   far. *)
let test_request_many_entries () =
  let n = 50_000 in
  let files = List.init n (fun i -> (Printf.sprintf "f%05d.dtsi" i, Json.Str "")) in
  let decode files = Fleet.Spec.of_request ~max_jobs:4 (request_body [ ("files", Json.Obj files) ]) in
  let t0 = Sys.time () in
  (match decode files with
   | Ok (spec, _) -> Alcotest.(check int) "every entry" n (List.length spec.Fleet.Spec.files)
   | Error e -> Alcotest.failf "refused: %s" e);
  (match decode (files @ [ ("f00000.dtsi", Json.Str "") ]) with
   | Ok _ -> Alcotest.fail "a duplicate was accepted"
   | Error e -> Alcotest.(check string) "duplicate" "bad file entry \"f00000.dtsi\"" e);
  let cpu = Sys.time () -. t0 in
  if cpu > 2. then Alcotest.failf "decoding took %.1f s of CPU" cpu

let () =
  Alcotest.run "fleet"
    [
      ( "crc32",
        [ Alcotest.test_case "known answer" `Quick test_crc_known_answer;
          Alcotest.test_case "incremental" `Quick test_crc_incremental ] );
      ( "hmac",
        [ Alcotest.test_case "sha256 vectors" `Quick test_sha256_known;
          Alcotest.test_case "rfc 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "constant-time equal + nonce" `Quick
            test_constant_time_equal ] );
      ( "frame",
        [ Alcotest.test_case "roundtrip split reads" `Quick test_frame_roundtrip;
          Alcotest.test_case "corruption" `Quick test_frame_corruption;
          Alcotest.test_case "seal/unseal" `Quick test_seal_unseal;
          QCheck_alcotest.to_alcotest prop_adversarial_frames ] );
      ( "backoff",
        [ Alcotest.test_case "jitter bounds" `Quick test_backoff_bounds ] );
      ( "supervise",
        [ Alcotest.test_case "first result wins" `Quick test_supervise_first_wins;
          Alcotest.test_case "crash and quarantine" `Quick test_supervise_crash_quarantine;
          Alcotest.test_case "lease clock" `Quick test_lease_clock;
          Alcotest.test_case "loop vs a scripted fake worker" `Quick
            test_loop_fake_worker ] );
      ( "journal-crc",
        [ Alcotest.test_case "lines checksummed" `Quick test_journal_checksummed_lines;
          Alcotest.test_case "corrupt line skipped" `Quick test_journal_corrupt_line_skipped;
          Alcotest.test_case "old format accepted" `Quick test_journal_backward_compat ] );
      ( "spec",
        [ Alcotest.test_case "json roundtrip + hash" `Quick test_spec_roundtrip;
          Alcotest.test_case "bad flags refused" `Quick test_spec_rejects_bad_flags;
          Alcotest.test_case "includes under literal names" `Quick
            test_spec_records_includes;
          Alcotest.test_case "digest follows includes only" `Quick
            test_spec_digest_follows_includes;
          Alcotest.test_case "a served request decodes" `Quick test_request_decodes;
          Alcotest.test_case "a served request's refusals" `Quick test_request_refusals;
          Alcotest.test_case "a served request of many entries" `Quick
            test_request_many_entries ] );
    ]
