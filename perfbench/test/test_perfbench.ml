open Benchlib

let bench = Harness.load_benchmark "../../BENCHMARK.json"
let expected f = Harness.read_file (Filename.concat "../expected" f)
let flt = Alcotest.float 1e-9

(* --- statistics ---------------------------------------------------------- *)

(* Reference values from Python's statistics.quantiles(v, n=4). *)
let test_quartiles () =
  List.iter
    (fun (v, (q1, q2, q3)) ->
      let a, b, c = Stats.quartiles v in
      Alcotest.check flt "q1" q1 a;
      Alcotest.check flt "q2" q2 b;
      Alcotest.check flt "q3" q3 c)
    [ ([ 1.; 2.; 3.; 4. ], (1.25, 2.5, 3.75));
      ([ 5.; 1.; 4.; 2.; 3. ], (1.5, 3.0, 4.5));
      ([ 2.5; 10.; 7.; 1.; 9.; 3.; 8. ], (2.5, 7.0, 9.0));
      ([ 1.; 2. ], (0.75, 1.5, 2.25)) ];
  Alcotest.check flt "median of one" 4. (Stats.median [ 4. ]);
  Alcotest.check flt "spread is IQR over median" 1.0 (Stats.spread [ 1.; 2.; 3.; 4. ])

let test_percentile () =
  let samples n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check int) "p95 needs 200 samples" 200 (Stats.samples_for 95.);
  (match Stats.percentile (samples 200) 95. with
   | Ok v -> Alcotest.check flt "nearest rank" 190. v
   | Error e -> Alcotest.fail e);
  (match Stats.percentile (samples 199) 95. with
   | Ok _ -> Alcotest.fail "p95 of 199 samples has only 9 beyond it"
   | Error _ -> ());
  match Stats.percentile (samples 20) 50. with
  | Ok v -> Alcotest.check flt "p50 of 1..20" 10. v
  | Error e -> Alcotest.fail e

(* --- compare ---------------------------------------------------------------- *)

let verdict ?(better = "lower") ?(bound = Some 0.1) base next =
  Compare.verdict_name (Compare.verdict ~better ~bound ~base ~next)

let test_compare () =
  let base = [ 100.; 101.; 99.; 100.5; 99.5; 100.2; 99.8; 100.1; 99.9; 100. ] in
  let shift k = List.map (fun x -> x +. k) base in
  Alcotest.(check string) "clearly faster" "improved" (verdict base (shift (-20.)));
  Alcotest.(check string) "higher is better" "improved" (verdict ~better:"higher" base (shift 20.));
  Alcotest.(check string) "same runs" "unchanged" (verdict base base);
  Alcotest.(check string) "within the bound" "unchanged" (verdict base (shift 5.));
  Alcotest.(check string) "beyond the bound" "regressed" (verdict base (shift 15.));
  let noisy = [ 60.; 140.; 80.; 120.; 100.; 70.; 130.; 90.; 110.; 100. ] in
  Alcotest.(check string) "spread wider than bound" "unresolved" (verdict noisy (shift 1.));
  Alcotest.(check string) "every run better despite spread" "improved"
    (verdict noisy (List.map (fun x -> x -. 100.) base));
  Alcotest.(check string) "per-layer: mirrored gain rule" "regressed"
    (verdict ~bound:None base (shift 20.));
  Alcotest.check flt "win share pairs in order" 0.5
    (Compare.win_share ~better:"lower" ~base:[ 1.; 1. ] ~next:[ 0.; 2. ]);
  let record =
    Result.get_ok
      (Bjson.parse {|{"workload":"w","metrics":{"setup_s":{"value":0.5,"unit":"s"}}}|})
  in
  Alcotest.(check (option flt)) "recorded metric" (Some 0.5) (Compare.value record "setup_s");
  Alcotest.(check (option flt)) "metric of another kind of run" None
    (Compare.value record "verdict_p50_ms")

(* A result must hold exactly the metrics BENCHMARK.json lists. *)
let test_report_names () =
  let r metrics = { Harness.correct = true; attempted = 1; failed = 0; metrics } in
  let all = List.map (fun m -> (m.Harness.name, 1.)) bench.Harness.end_to_end in
  let refused metrics =
    match Harness.report ~workload:"w" ~registered:bench.Harness.end_to_end (r metrics) with
    | _ -> false
    | exception Failure _ -> true
  in
  Alcotest.(check bool) "every listed metric" false (refused all);
  Alcotest.(check bool) "one missing" true (refused (List.tl all));
  Alcotest.(check bool) "one unlisted" true (refused (("unlisted_ms", 1.) :: all));
  Alcotest.(check bool) "a per-layer metric in an untraced result" true
    (refused (("verdict_p50_ms", 1.) :: all));
  Alcotest.(check bool) "not a number" true (refused (("setup_s", nan) :: List.tl all))

(* The served traffic fits in a run of BENCHMARK.json's length: the
   fixed steps take nine tenths of it, and the step the percentiles
   come from holds the 200 requests p95 needs. *)
let test_serve_plan () =
  let seconds = float_of_int bench.Harness.run_seconds in
  let steps = Workloads.serve_steps ~seconds in
  Alcotest.(check (list (float 0.))) "fixed rates" [ 20.; 40.; 60. ] (List.map fst steps);
  let planned = List.fold_left (fun acc (rate, n) -> acc +. (float_of_int n /. rate)) 0. steps in
  Alcotest.(check bool) "fixed steps fit in the run" true (planned <= 0.9 *. seconds +. 1e-9);
  Alcotest.(check bool) "p95 step has 200 requests" true
    (List.assoc Workloads.measured_rate steps >= Workloads.min_samples);
  (* Whole blocks of the mix, so every step carries the exact shares. *)
  List.iter
    (fun (_, n) -> Alcotest.(check int) "whole blocks" 0 (n mod Inputs.block_size))
    steps

(* The search for the highest rate within the latency limit, on a
   service whose limit sits at [limit] requests per second. *)
let test_knee () =
  let step limit rate = { Workloads.offered = rate; results = []; meets_limit = rate <= limit } in
  let knee ?fixed limit =
    let fixed = Option.value fixed ~default:(List.map (step limit) [ 20.; 40.; 60. ]) in
    let tried = ref [] in
    let rate, _ =
      Workloads.knee
        (fun r ->
          tried := r :: !tried;
          step limit r)
        ~fixed ~budget:60.
    in
    (rate, List.rev !tried)
  in
  let rate, tried = knee 70. in
  Alcotest.check flt "+5% steps past 60/s" (60. *. (1.05 ** 3.)) rate;
  Alcotest.(check int) "until one misses" 4 (List.length tried);
  let rate, tried = knee 47. in
  Alcotest.(check (list flt)) "halving 40..60" [ 50.; 45.; 47.5 ] tried;
  Alcotest.check flt "last rate within the limit" 45. rate;
  Alcotest.check flt "nothing within the limit" 0. (fst (knee 10.));
  let transient = [ step 0. 20.; step 47. 40.; step 47. 60. ] in
  Alcotest.check flt "a slower step's miss does not hide a faster one's pass" 45.
    (fst (knee ~fixed:transient 47.))

(* --- BENCHMARK.json ------------------------------------------------------------ *)

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let test_benchmark_json () =
  let metrics = bench.Harness.end_to_end @ bench.Harness.per_layer in
  let names = List.map fst bench.Harness.workloads @ List.map (fun m -> m.Harness.name) metrics in
  List.iter (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (valid_name n)) names;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check (list string)) "workloads" Workloads.names (List.map fst bench.Harness.workloads);
  List.iter
    (fun m ->
      match m.Harness.bound with
      | Some b -> Alcotest.(check bool) (m.Harness.name ^ " bound") true (b >= 0. && b <= 0.25)
      | None -> Alcotest.fail (m.Harness.name ^ " has no bound"))
    bench.Harness.end_to_end;
  List.iter
    (fun m -> Alcotest.(check bool) (m.Harness.name ^ " has no bound") true (m.Harness.bound = None))
    bench.Harness.per_layer;
  match List.find_opt (fun m -> m.Harness.name = "setup_s") bench.Harness.end_to_end with
  | Some m ->
    Alcotest.(check string) "setup_s unit" "s" m.Harness.unit_;
    Alcotest.(check string) "setup_s better" "lower" m.Harness.better
  | None -> Alcotest.fail "setup_s is missing"

(* --- trace ------------------------------------------------------------------------ *)

let test_trace_format () =
  let tr = Trace.create ~enabled:true in
  let report =
    Trace.operation tr "op.pipeline_quad" (fun () ->
        Replay.pipeline tr (Replay.counters ()) ~certify:false)
  in
  Alcotest.(check string) "traced replay finds what the untraced run finds"
    (expected Inputs.pipeline_golden) report;
  let json = Bjson.to_string (Trace.to_chrome tr) in
  match Bjson.parse json with
  | Error e -> Alcotest.fail e
  | Ok j ->
    let events = Option.bind (Bjson.member "traceEvents" j) Bjson.to_list |> Option.get in
    Alcotest.(check bool) "has events" true (List.length events > 10);
    let ids =
      List.map
        (fun e -> Option.get (Option.bind (Bjson.member "args" e) (Bjson.member "id")))
        events
    in
    List.iter
      (fun e ->
        let num k = Option.bind (Bjson.member k e) Bjson.to_num in
        Alcotest.(check (option string)) "complete event" (Some "X")
          (Option.bind (Bjson.member "ph" e) Bjson.to_str);
        Alcotest.(check bool) "ts and dur" true (num "ts" <> None && num "dur" <> None);
        match Option.bind (Bjson.member "args" e) (Bjson.member "parent") with
        | Some (Bjson.Int -1) -> ()
        | Some p -> Alcotest.(check bool) "parent is a span" true (List.mem p ids)
        | None -> Alcotest.fail "event without parent")
      events;
    let layers = Hashtbl.fold (fun _ (s, _, _) acc -> acc +. s) (Trace.self_times tr) 0. in
    Alcotest.(check bool) "layer self times fit in the operation" true
      (layers > 0. && layers <= Trace.op_time tr)

(* --- known answers ------------------------------------------------------------------ *)

let count_lines prefix s =
  List.length
    (List.filter (fun l -> String.starts_with ~prefix l) (String.split_on_char '\n' s))

let served kind =
  Option.get (Inputs.served_verdict (expected (Inputs.serve_golden kind)))

(* Checked once against the paper's answers: the quad product line is
   green with zero cross-VM findings (E14); the uart0 clash is exactly
   one overlap error at 0x60000000, exit 1 (E5). *)
let test_known_answers () =
  let quad = expected Inputs.pipeline_golden in
  Alcotest.(check int) "four products" 4 (count_lines "product " quad);
  Alcotest.(check int) "all green" 4 (count_lines "  all checks passed" quad);
  Alcotest.(check bool) "no cross-VM findings" false (Llhsc.Util.contains quad "cross-VM");
  Alcotest.(check string) "in-process run" quad (Workloads.render (Llhsc.Quad_rv64.run_pipeline ()));
  let certified = expected Inputs.certify_golden in
  Alcotest.(check bool) "certify report starts with the plain one" true
    (String.starts_with ~prefix:quad certified);
  Alcotest.(check bool) "every verdict certified" true
    (Llhsc.Util.contains certified "queries certified, 0 failures");
  Alcotest.(check (pair string int)) "served pipeline" (quad, 0) (served Inputs.Pipeline_quad);
  List.iter
    (fun k ->
      Alcotest.(check (pair string int)) (Inputs.kind_name k) ("request.dts: all checks passed\n", 0)
        (served k))
    [ Inputs.Check_sbc; Inputs.Check_quad ];
  let clash, code = served Inputs.Check_clash in
  Alcotest.(check int) "clash exits 1" 1 code;
  Alcotest.(check int) "exactly one error" 1 (count_lines "[error]" clash);
  Alcotest.(check bool) "overlap at 0x60000000" true
    (Llhsc.Util.contains clash "overlaps /uart@20000000 [0x60000000, 0x60001000) at address 0x60000000")

let test_json_numbers () =
  List.iter
    (fun f ->
      match Bjson.parse (Bjson.to_string (Bjson.Float f)) with
      | Ok (Bjson.Float g) -> Alcotest.check flt "round trip" f g
      | _ -> Alcotest.fail "float did not round-trip")
    [ 0.1; 1. /. 3.; 12.5; 1e-7; 123456.789 ]

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "quartiles as Python computes them" `Quick test_quartiles;
          Alcotest.test_case "nearest-rank percentile refuses thin tails" `Quick test_percentile ] );
      ("compare", [ Alcotest.test_case "verdicts on synthetic samples" `Quick test_compare ]);
      ( "benchmark",
        [ Alcotest.test_case "BENCHMARK.json names and bounds" `Quick test_benchmark_json;
          Alcotest.test_case "results hold exactly the listed metrics" `Quick test_report_names;
          Alcotest.test_case "served traffic fits the run" `Quick test_serve_plan;
          Alcotest.test_case "highest rate within the latency limit" `Quick test_knee;
          Alcotest.test_case "known answers match the paper" `Quick test_known_answers;
          Alcotest.test_case "trace is trace-event JSON" `Quick test_trace_format;
          Alcotest.test_case "numbers round-trip" `Quick test_json_numbers ] ) ]
