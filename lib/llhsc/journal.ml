(* The append-only JSONL journal of crash-safe runs.  See the .mli for
   the format contract and the open policy.  A core over JSON bodies
   (header binding, line checksums, fail-operational degradation, fault
   hooks) comes first, the pipeline's product entries on top.  The
   important invariants live in [append]: one complete line per record,
   fsync'd before control returns, so the window a SIGKILL can lose is
   exactly one in-flight record. *)

(* --- core: a journal of JSON bodies ----------------------------------------- *)

let version = 1
let tag = "llhsc-journal"

let header binding =
  Json.Obj [ (tag, Json.Int version); ("inputs", Json.Str binding) ]

(* [Some binding] when [line] is a current-version header. *)
let binding_of line =
  match Json.parse line with
  | Ok (Json.Obj [ (t, Json.Int v); ("inputs", Json.Str b) ])
    when t = tag && v = version ->
    Some b
  | _ -> None

(* Any version, any binding: the file is some run's journal. *)
let is_header line =
  match Json.parse line with
  | Ok (Json.Obj ((t, _) :: _)) -> t = tag
  | _ -> false

(* A record line is "<json>\t<crc32 of json, 8 lowercase hex digits>".
   [Json.to_string] escapes control characters, so a raw tab can never
   appear inside the JSON itself and the last tab splits unambiguously.
   The checksum catches corrupt-but-still-parseable lines (bit rot, a
   partial overwrite that happens to stay valid JSON) that the parse
   failure heuristic cannot; lines without a tab are accepted as the
   older checksum-less format. *)
let checksummed line = Printf.sprintf "%s\t%08x" line (Util.crc32 line)

(* [Some body] when the line is an old-format line or a checksummed line
   whose CRC verifies; [None] when the checksum is torn or wrong. *)
let verify_line line =
  match String.rindex_opt line '\t' with
  | None -> Some line (* pre-checksum journal *)
  | Some t ->
    let body = String.sub line 0 t in
    let crc = String.sub line (t + 1) (String.length line - t - 1) in
    if
      String.length crc = 8
      && String.for_all
           (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
           crc
      && int_of_string_opt ("0x" ^ crc) = Some (Util.crc32 body)
    then Some body
    else None

(* A degradation marker is appended (best-effort, no durability claim)
   when a journal write or fsync fails mid-run: the run carried on but
   stopped journaling, so the file must never be trusted by [--resume]
   again.  [compact] is the explicit operator path that drops it. *)
let marker reason = Json.Obj [ ("llhsc-degraded", Json.Str reason) ]

(* What one record line holds. *)
let verdict line =
  match verify_line line with
  | None -> `Torn
  | Some body -> (
    match Json.parse body with
    | Error _ -> `Invalid (* torn final record, or garbage *)
    | Ok j -> (
      match Option.bind (Json.member "llhsc-degraded" j) Json.to_str with
      | Some reason -> `Marker reason
      | None -> `Body j))

let marked lines =
  List.exists (fun l -> match verdict l with `Marker _ -> true | _ -> false) lines

let bodies_of lines =
  List.filter_map (fun l -> match verdict l with `Body j -> Some j | _ -> None) lines

(* The lines of a file's contents; a final newline ends the last line
   rather than starting an empty one. *)
let lines_of s =
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rest -> List.rev rest
  | ls -> List.rev ls

let read_lines path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | s -> Some (lines_of s)

let reason_of_exn = function
  | Unix.Unix_error (e, op, _) -> Printf.sprintf "%s: %s" op (Unix.error_message e)
  | Sys_error m -> m
  | e -> Printexc.to_string e

type sink = { oc : out_channel; mutable degraded : string option }

(* Fail-operational: remember why journaling stopped, leave a marker so
   no reader trusts the file, and let the run carry on unjournaled.  The
   marker write is best-effort over the raw channel (the disk is already
   failing; the leading newline terminates any torn line the failed
   write left behind). *)
let degrade sink reason =
  sink.degraded <- Some reason;
  try
    output_char sink.oc '\n';
    output_string sink.oc (checksummed (Json.to_string (marker reason)));
    output_char sink.oc '\n';
    flush sink.oc
  with Sys_error _ -> ()

let degradation sink = sink.degraded

(* The open policy, read from the file itself.  The file is only opened
   for writing once it is known to be a journal, so a refused file is
   never touched. *)
let open_ ~path ~inputs_hash =
  let policy =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ when not (Sys.file_exists path) -> `Start_over
    | "" -> `Start_over
    | s ->
      let lines = lines_of s in
      let first = List.hd lines in
      if marked lines then `Start_over
      else if binding_of first = Some inputs_hash then
        `Append (s.[String.length s - 1] <> '\n')
      else if is_header first then `Start_over
      else raise (Sys_error (path ^ ": not an llhsc journal; refusing to overwrite it"))
  in
  let oc = Durable.open_for_append ~truncate:(policy = `Start_over) path in
  let sink = { oc; degraded = None } in
  (match policy with
   | `Append torn_tail ->
     (* A crash mid-record left a fragment: the next record must start
        its own line, or it would be glued onto the fragment and never
        verify. *)
     if torn_tail then output_char oc '\n'
   | `Start_over -> (
     (* fsync failure PROPAGATES from [Durable.sync]; a failed header
        degrades the sink instead of failing the run. *)
     try
       Durable.out_string oc (Json.to_string (header inputs_hash) ^ "\n");
       Durable.sync oc
     with (Unix.Unix_error _ | Sys_error _) as e -> degrade sink (reason_of_exn e)));
  sink

(* The fault harness simulates a crash at a seeded point by having the
   journal SIGKILL its own process: either right after the n-th record
   lands (clean cut between lines) or halfway through writing it (torn
   final line, which readers must skip).  Records are counted per
   process. *)
let appended = Fault.counter ()

let append sink body =
  if sink.degraded = None then begin
    let line = checksummed (Json.to_string body) in
    incr appended;
    if Fault.fires Fault.Kill_mid_record !appended then begin
      (* Torn write: half the record, no newline, then die. *)
      output_string sink.oc (String.sub line 0 (String.length line / 2));
      flush sink.oc;
      (try Durable.sync sink.oc with Unix.Unix_error _ | Sys_error _ -> ());
      Fault.kill_self ()
    end;
    (match
       Durable.out_string sink.oc (line ^ "\n");
       Durable.sync sink.oc
     with
     | () -> ()
     | exception ((Unix.Unix_error _ | Sys_error _) as e) ->
       degrade sink (reason_of_exn e));
    if sink.degraded = None then begin
      if Fault.fires Fault.Kill_after_records !appended then Fault.kill_self ();
      (* Unlike the SIGKILL hooks above, this one is catchable: it
         exercises the graceful-interrupt path (close the journal, exit
         128+15) rather than simulating a crash. *)
      if Fault.fires Fault.Term_after_records !appended then
        Unix.kill (Unix.getpid ()) Sys.sigterm
    end
  end

(* Every record was fsync'd when it was appended, so a failing close
   loses nothing durable: after a degradation the channel may hold the
   tail of a failed write whose flush would raise again. *)
let close sink = close_out_noerr sink.oc

(* --- the product journal -------------------------------------------------- *)

type kind = Product | Partition

type entry = {
  kind : kind;
  name : string;
  hash : string;
  features : string list;
  order : string list;
  findings : Report.finding list;
  certified : bool;
  cert_failures : int;
}

(* --- hashes ---------------------------------------------------------------- *)

(* '\x00' cannot appear in names/features (they come from identifiers and
   file bytes are hashed before joining), so the join is injective enough
   for staleness detection. *)
let digest_parts parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))
let inputs_hash ~parts = digest_parts ("llhsc-inputs" :: parts)

let product_hash ~inputs_hash ~name ~features =
  digest_parts ("product" :: inputs_hash :: name :: features)

let partition_hash ~inputs_hash ~products =
  digest_parts
    ("partition" :: inputs_hash
    :: List.concat_map (fun (name, features) -> name :: features) products)

(* --- entry <-> JSON -------------------------------------------------------- *)

let severity_to_string : Report.severity -> string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_of_string = function
  | "error" -> Some Report.Error
  | "warning" -> Some Report.Warning
  | "info" -> Some Report.Info
  | _ -> None

let finding_to_json (f : Report.finding) =
  Json.Obj
    [
      ("severity", Json.Str (severity_to_string f.severity));
      ("checker", Json.Str f.checker);
      ("node_path", Json.Str f.node_path);
      ("message", Json.Str f.message);
      ( "loc",
        Json.Obj
          [
            ("file", Json.Str f.loc.Devicetree.Loc.file);
            ("line", Json.Int f.loc.Devicetree.Loc.line);
            ("col", Json.Int f.loc.Devicetree.Loc.col);
          ] );
      ("core", Json.List (List.map (fun s -> Json.Str s) f.core));
    ]

let ( let* ) = Option.bind

let finding_of_json j =
  let* severity = Option.bind Json.(member "severity" j) Json.to_str in
  let* severity = severity_of_string severity in
  let* checker = Option.bind Json.(member "checker" j) Json.to_str in
  let* node_path = Option.bind Json.(member "node_path" j) Json.to_str in
  let* message = Option.bind Json.(member "message" j) Json.to_str in
  let* loc = Json.member "loc" j in
  let* file = Option.bind (Json.member "file" loc) Json.to_str in
  let* line = Option.bind (Json.member "line" loc) Json.to_int in
  let* col = Option.bind (Json.member "col" loc) Json.to_int in
  let* core = Option.bind Json.(member "core" j) Json.to_str_list in
  Some
    {
      Report.severity;
      checker;
      node_path;
      message;
      loc = Devicetree.Loc.make ~file ~line ~col;
      core;
    }

let kind_to_string = function Product -> "product" | Partition -> "partition"

let kind_of_string = function
  | "product" -> Some Product
  | "partition" -> Some Partition
  | _ -> None

let entry_to_json e =
  Json.Obj
    [
      ("kind", Json.Str (kind_to_string e.kind));
      ("name", Json.Str e.name);
      ("hash", Json.Str e.hash);
      ("features", Json.List (List.map (fun s -> Json.Str s) e.features));
      ("order", Json.List (List.map (fun s -> Json.Str s) e.order));
      ("findings", Json.List (List.map finding_to_json e.findings));
      ("certified", Json.Bool e.certified);
      ("cert_failures", Json.Int e.cert_failures);
    ]

let entry_of_json j =
  let* kind = Option.bind Json.(member "kind" j) Json.to_str in
  let* kind = kind_of_string kind in
  let* name = Option.bind Json.(member "name" j) Json.to_str in
  let* hash = Option.bind Json.(member "hash" j) Json.to_str in
  let* features = Option.bind Json.(member "features" j) Json.to_str_list in
  let* order = Option.bind Json.(member "order" j) Json.to_str_list in
  let* findings = Option.bind Json.(member "findings" j) Json.to_list in
  let findings' = List.filter_map finding_of_json findings in
  if List.length findings' <> List.length findings then None
  else
    let* certified = Option.bind Json.(member "certified" j) Json.to_bool in
    let* cert_failures = Option.bind Json.(member "cert_failures" j) Json.to_int in
    Some { kind; name; hash; features; order; findings = findings'; certified; cert_failures }

(* --- writing and loading entries ------------------------------------------ *)

let record sink entry = append sink (entry_to_json entry)

(* Last record wins per (kind, name): a resumed run appends fresher
   verdicts rather than rewriting the file. *)
let last_wins bodies =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun j ->
      match entry_of_json j with
      | None -> ()
      | Some e ->
        let key = (e.kind, e.name) in
        if not (Hashtbl.mem tbl key) then order := key :: !order;
        Hashtbl.replace tbl key e)
    bodies;
  List.rev_map (fun key -> Hashtbl.find tbl key) !order

(* Nothing from a marked journal: it stopped being complete at an
   unknowable point. *)
let load ~path ~inputs_hash =
  match read_lines path with
  | Some (first :: rest)
    when binding_of first = Some inputs_hash && not (marked rest) ->
    last_wins (bodies_of rest)
  | _ -> []

let find entries kind name =
  List.find_opt (fun e -> e.kind = kind && e.name = name) entries

(* --- fsck / compact -------------------------------------------------------- *)

type fsck_report = {
  header : [ `Ok of string | `Bad | `Missing ];
  records : int;
  entries : int;
  legacy : int;
  torn : int;
  invalid : int;
  degraded_reason : string option;
}

let fsck_issues r = r.torn > 0 || r.invalid > 0 || r.degraded_reason <> None

(* Split a journal into (header verdict, record lines).  [None]
   when the file is missing or unreadable. *)
let scan path =
  match read_lines path with
  | None -> None
  | Some [] -> Some (`Missing, [])
  | Some (first :: rest) ->
    Some
      ( (match binding_of first with Some ih -> `Ok ih | None -> `Bad),
        rest )

let fsck ~path =
  match scan path with
  | None -> None
  | Some (header, rest) ->
    let records = ref 0 in
    let legacy = ref 0 in
    let torn = ref 0 in
    let invalid = ref 0 in
    let degraded = ref None in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun line ->
        if String.trim line = "" then () (* separator left by a degradation *)
        else
          match verdict line with
          | `Torn -> incr torn
          | `Invalid -> incr invalid
          | `Marker r -> degraded := Some r
          | `Body j -> (
            match entry_of_json j with
            | None -> incr invalid
            | Some e ->
              incr records;
              if not (String.contains line '\t') then incr legacy;
              Hashtbl.replace tbl (e.kind, e.name) ()))
      rest;
    Some
      { header; records = !records; entries = Hashtbl.length tbl;
        legacy = !legacy; torn = !torn; invalid = !invalid;
        degraded_reason = !degraded }

let compact ~path =
  match scan path with
  | None -> Error (path ^ ": cannot read journal")
  | Some (`Missing, _) -> Error (path ^ ": empty journal, nothing to compact")
  | Some (`Bad, _) -> Error (path ^ ": unrecognised journal header")
  | Some (`Ok ih, rest) ->
    let entries = last_wins (bodies_of rest) in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (Json.to_string (header ih));
    Buffer.add_char buf '\n';
    List.iter
      (fun e ->
        Buffer.add_string buf (checksummed (Json.to_string (entry_to_json e)));
        Buffer.add_char buf '\n')
      entries;
    (* Atomic rewrite: a crash mid-compact leaves the old journal intact.
       Dropping the degradation marker here is deliberate — compacting is
       the explicit operator act that re-blesses the surviving entries. *)
    Durable.write_file ~path (Buffer.contents buf);
    Ok (List.length rest, List.length entries)
