(* The LLHSC_FAULT schedule: one grammar, one reader.  See the .mli for
   the table of kinds. *)

type kind =
  | Enospc
  | Short
  | Eio_fsync
  | Crash_rename
  | Erofs
  | Kill_mid_record
  | Kill_after_records
  | Term_after_records
  | Kill_worker
  | Hang_worker
  | Oom_worker
  | Drop_conn_worker
  | Delay_result_worker
  | Dup_result_worker
  | Kill_job
  | Hang_job

let kinds =
  [ ("enospc", Enospc); ("short", Short); ("eio-fsync", Eio_fsync);
    ("crash-rename", Crash_rename); ("erofs", Erofs);
    ("kill-mid-record", Kill_mid_record);
    ("kill-after-records", Kill_after_records);
    ("term-after-records", Term_after_records);
    ("kill-worker", Kill_worker); ("hang-worker", Hang_worker);
    ("oom-worker", Oom_worker); ("drop-conn-worker", Drop_conn_worker);
    ("delay-result-worker", Delay_result_worker);
    ("dup-result-worker", Dup_result_worker); ("kill-job", Kill_job);
    ("hang-job", Hang_job) ]

let var = "LLHSC_FAULT"

let parse_token tok =
  let tok = String.trim tok in
  let bad why = Error (Printf.sprintf "%s: %S: %s" var tok why) in
  match String.index_opt tok '@' with
  | None -> bad "missing @<n>"
  | Some i -> (
    let name = String.sub tok 0 i in
    let n = String.sub tok (i + 1) (String.length tok - i - 1) in
    match List.assoc_opt name kinds with
    | None -> bad (Printf.sprintf "unknown fault kind %S" name)
    | Some kind -> (
      (* Decimal digits only: int_of_string alone would also take a sign,
         a 0x prefix or underscores. *)
      let digits = n <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) n in
      match if digits then int_of_string_opt n else None with
      | Some n -> Ok (kind, n)
      | None -> bad "n must be a non-negative integer"))

let parse raw =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> Result.bind (parse_token tok) (fun f -> go (f :: acc) rest)
  in
  if String.trim raw = "" then Ok [] else go [] (String.split_on_char ',' raw)

let schedule () = parse (Option.value ~default:"" (Sys.getenv_opt var))

let check () = Result.map ignore (schedule ())

let fires kind n =
  match schedule () with
  | Ok faults -> List.mem (kind, n) faults
  | Error msg -> invalid_arg msg

let kill_self () = Unix.kill (Unix.getpid ()) Sys.sigkill
