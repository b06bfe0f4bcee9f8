(* `compare`: results of a base and a new commit, per workload and metric,
   judged under the bounds of BENCHMARK.json.

   - improved: the new side wins at least nine tenths of the pairs (ties
     count for neither) and the medians differ by more than the base's
     own interquartile distance;
   - unresolved: the base's spread (interquartile distance over median)
     is wider than the bound, unless every new run beats every base run;
   - regressed: the new median is worse than the base median by more
     than the bound;
   - unchanged: otherwise.
   Per-layer metrics have no bound: they are improved, regressed (the
   improved rule mirrored) or unchanged.  Only the metrics BENCHMARK.json
   lists are judged; the end-to-end ones come from untraced results, the
   per-layer ones from traced results. *)

type verdict = Improved | Regressed | Unchanged | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

let beats ~better a b = if better = "lower" then a < b else a > b

(* Share of pairs the [next] side wins.  Runs pair up in order when both
   sides ran equally often (alternating base and new), otherwise every
   new run meets every base run. *)
let win_share ~better ~base ~next =
  let pairs =
    if List.length base = List.length next then List.combine next base
    else List.concat_map (fun n -> List.map (fun b -> (n, b)) base) next
  in
  let wins = List.length (List.filter (fun (n, b) -> beats ~better n b) pairs) in
  float_of_int wins /. float_of_int (List.length pairs)

let gain ~better ~base ~next =
  let mb = Stats.median base and mn = Stats.median next in
  let q1, _, q3 = Stats.quartiles base in
  win_share ~better ~base ~next >= 0.9 && beats ~better mn mb && Float.abs (mn -. mb) > q3 -. q1

let verdict ~better ~bound ~base ~next =
  if gain ~better ~base ~next then Improved
  else
    match bound with
    | None -> if gain ~better ~base:next ~next:base then Regressed else Unchanged
    | Some bound ->
      let mb = Stats.median base and mn = Stats.median next in
      let worse_by = (if better = "lower" then mn -. mb else mb -. mn) /. Float.abs mb in
      let all_better = List.for_all (fun n -> List.for_all (fun b -> beats ~better n b) base) next in
      if Stats.spread base > bound && not all_better then Unresolved
      else if worse_by > bound then Regressed
      else Unchanged

(* --- result files --------------------------------------------------------- *)

(* A file written by `run --out`: one record or a list of them. *)
let load_records path =
  match Bjson.parse (Harness.read_file path) with
  | Ok (Bjson.List l) -> l
  | Ok o -> [ o ]
  | Error e -> failwith (path ^ ": " ^ e)

let value record metric =
  match Bjson.member "metrics" record with
  | Some metrics ->
    Option.bind (Option.bind (Bjson.member metric metrics) (Bjson.member "value")) Bjson.to_num
  | None -> None

let workload record = Option.bind (Bjson.member "workload" record) Bjson.to_str

let main ~(bench : Harness.benchmark) ~base_files ~new_files =
  let base = List.concat_map load_records base_files
  and next = List.concat_map load_records new_files in
  let cpus =
    List.sort_uniq compare
      (List.map (fun r -> Option.bind (Bjson.member "online_cpus" r) Bjson.to_int) (base @ next))
  in
  (match cpus with
   | [ Some _ ] -> ()
   | _ -> failwith "refusing to compare results recorded with different (or unknown) online_cpus");
  let summary xs =
    let q1, q2, q3 = Stats.quartiles xs in
    Printf.sprintf "%s [%s, %s]" (Bjson.float_repr q2) (Bjson.float_repr q1) (Bjson.float_repr q3)
  in
  Printf.printf "# workload metric | base median [q1, q3] | new median [q1, q3] | new win share | verdict\n";
  List.iter
    (fun (w, _) ->
      List.iter
        (fun (m : Harness.metric) ->
          let side records =
            List.filter_map (fun r -> if workload r = Some w then value r m.name else None) records
          in
          let b = side base and n = side next in
          if List.length b >= 2 && List.length n >= 2 then
            Printf.printf "%s %s | %s | %s | %.2f | %s\n" w m.name (summary b) (summary n)
              (win_share ~better:m.better ~base:b ~next:n)
              (verdict_name (verdict ~better:m.better ~bound:m.bound ~base:b ~next:n)))
        (bench.end_to_end @ bench.per_layer))
    bench.workloads
