(* Durable I/O with seeded fault injection.  See the .mli for the two
   disciplines (atomic whole-file replace, checked journal append) and
   the LLHSC_FAULT_FS schedule grammar.  The design constraint inherited
   from the other LLHSC_FAULT_* hooks: with the variable unset this
   module must behave exactly like the stdlib calls it wraps, and under
   a schedule the n-th operation of each kind must fail identically
   across runs, so harness failures reproduce from the seed alone. *)

(* --- fault schedule ---------------------------------------------------------- *)

type fault =
  | Enospc of int (* n-th write fails ENOSPC before writing *)
  | Short of int (* n-th write persists half, then ENOSPC *)
  | Eio_fsync of int (* n-th fsync fails EIO *)
  | Crash_rename of int (* n-th atomic commit dies before the rename *)
  | Erofs of int (* n-th open-for-write fails EROFS *)

let parse_schedule raw =
  List.filter_map
    (fun tok ->
      let tok = String.trim tok in
      match String.index_opt tok '@' with
      | None -> None
      | Some i -> (
        let kind = String.sub tok 0 i in
        let n = int_of_string_opt (String.sub tok (i + 1) (String.length tok - i - 1)) in
        match (kind, n) with
        | "enospc", Some n -> Some (Enospc n)
        | "short", Some n -> Some (Short n)
        | "eio-fsync", Some n -> Some (Eio_fsync n)
        | "crash-rename", Some n -> Some (Crash_rename n)
        | "erofs", Some n -> Some (Erofs n)
        | _ -> None))
    (String.split_on_char ',' raw)

(* Re-read the environment on every operation (a putenv-driven unit test
   may change the schedule mid-process) but only re-parse when the raw
   string actually changed. *)
let parsed : (string * fault list) option ref = ref None

let schedule () =
  match Sys.getenv_opt "LLHSC_FAULT_FS" with
  | None -> []
  | Some raw -> (
    match !parsed with
    | Some (r, fs) when r = raw -> fs
    | _ ->
      let fs = parse_schedule raw in
      parsed := Some (raw, fs);
      fs)

(* Operation counters, process-global so a schedule addresses the n-th
   write/fsync/commit/open of the whole run, whichever file it lands on. *)
let writes = ref 0
let fsyncs = ref 0
let commits = ref 0
let opens = ref 0

let reset_faults () =
  writes := 0;
  fsyncs := 0;
  commits := 0;
  opens := 0

let fires counter pred =
  incr counter;
  let n = !counter in
  List.exists (fun f -> pred f n) (schedule ())

let kill_self () = Unix.kill (Unix.getpid ()) Sys.sigkill

(* --- checked journal primitives ---------------------------------------------- *)

let open_for_append ?(truncate = false) path =
  if fires opens (fun f n -> match f with Erofs m -> m = n | _ -> false) then
    raise (Sys_error (path ^ ": Read-only file system"));
  open_out_gen
    ((if truncate then [ Open_trunc ] else [])
    @ [ Open_wronly; Open_append; Open_creat; Open_binary ])
    0o644 path

let out_string oc s =
  let enospc = fires writes (fun f n -> match f with Enospc m -> m = n | _ -> false) in
  let short =
    List.exists (function Short m -> m = !writes | _ -> false) (schedule ())
  in
  if short then begin
    (* A torn write: half the bytes land on disk, then the device is full. *)
    output_string oc (String.sub s 0 (String.length s / 2));
    (try flush oc with Sys_error _ -> ());
    raise (Unix.Unix_error (Unix.ENOSPC, "write", ""))
  end
  else if enospc then raise (Unix.Unix_error (Unix.ENOSPC, "write", ""))
  else output_string oc s

let sync oc =
  flush oc;
  if fires fsyncs (fun f n -> match f with Eio_fsync m -> m = n | _ -> false) then
    raise (Unix.Unix_error (Unix.EIO, "fsync", ""));
  Util.retry_eintr (fun () -> Unix.fsync (Unix.descr_of_out_channel oc))

(* --- atomic whole-file replace ------------------------------------------------ *)

(* Directory fsync makes the rename itself durable.  Some filesystems
   refuse fsync on a directory fd; those refusals are not data loss, so
   only genuine I/O errors propagate. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try Util.retry_eintr (fun () -> Unix.fsync fd)
        with
        | Unix.Unix_error
            ( ( Unix.EINVAL | Unix.ENOSYS | Unix.EBADF | Unix.EACCES
              | Unix.EPERM | Unix.EROFS | Unix.EOPNOTSUPP ),
              _,
              _ ) ->
          ())

let with_file ~path f =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  if fires opens (fun fl n -> match fl with Erofs m -> m = n | _ -> false) then
    raise (Sys_error (tmp ^ ": Read-only file system"));
  let oc = open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644 tmp in
  (try
     f oc;
     sync oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  if fires commits (fun fl n -> match fl with Crash_rename m -> m = n | _ -> false)
  then kill_self ();
  (try Unix.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  fsync_dir (Filename.dirname path)

let write_file ~path data = with_file ~path (fun oc -> out_string oc data)
