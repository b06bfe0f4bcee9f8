(* Durable I/O with seeded fault injection.  See the .mli for the two
   disciplines (atomic whole-file replace, checked journal append); the
   disk-fault kinds and what their n counts are in fault.mli.  With no
   schedule this module must behave exactly like the stdlib calls it
   wraps. *)

(* Operation counters, process-global so a schedule addresses the n-th
   write/fsync/commit/open of the whole run, whichever file it lands on. *)
let writes = Fault.counter ()
let fsyncs = Fault.counter ()
let commits = Fault.counter ()
let opens = Fault.counter ()

let fires counter kind =
  incr counter;
  Fault.fires kind !counter

(* --- checked journal primitives ---------------------------------------------- *)

let open_for_append ?(truncate = false) path =
  if fires opens Fault.Erofs then raise (Sys_error (path ^ ": Read-only file system"));
  open_out_gen
    ((if truncate then [ Open_trunc ] else [])
    @ [ Open_wronly; Open_append; Open_creat; Open_binary ])
    0o644 path

let out_string oc s =
  let enospc = fires writes Fault.Enospc in
  if Fault.fires Fault.Short !writes then begin
    (* A torn write: half the bytes land on disk, then the device is full. *)
    output_string oc (String.sub s 0 (String.length s / 2));
    (try flush oc with Sys_error _ -> ());
    raise (Unix.Unix_error (Unix.ENOSPC, "write", ""))
  end
  else if enospc then raise (Unix.Unix_error (Unix.ENOSPC, "write", ""))
  else output_string oc s

let sync oc =
  flush oc;
  if fires fsyncs Fault.Eio_fsync then raise (Unix.Unix_error (Unix.EIO, "fsync", ""));
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

let write_file ~path data =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  if fires opens Fault.Erofs then raise (Sys_error (tmp ^ ": Read-only file system"));
  let oc = open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644 tmp in
  (try
     out_string oc data;
     sync oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  if fires commits Fault.Crash_rename then Fault.kill_self ();
  (try Unix.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  fsync_dir (Filename.dirname path)
