(* Small string helpers shared by the llhsc modules. *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let include_loader path name =
  let candidate = Filename.concat (Filename.dirname path) name in
  if Sys.file_exists candidate then Some (read_file candidate) else None

(* A stray signal (SIGCHLD from a reaped worker, a profiler's SIGPROF, ...)
   interrupts slow syscalls with EINTR; every [Unix.read]/[select]/[waitpid]
   /[fsync] in the pool and the journal must retry instead of surfacing a
   spurious error. *)
let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

(* A write to a half-closed pipe or socket raises SIGPIPE, whose default
   disposition kills the process.  Every socket-writing path (the shard
   supervisor, the serve daemon, the fleet dispatcher and workers)
   ignores it for its lifetime so a peer disconnect mid-write surfaces
   as EPIPE — a per-connection error — instead of process death. *)
let ignore_sigpipe () =
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  fun () -> ignore (Sys.signal Sys.sigpipe prev : Sys.signal_behavior)

(* --- CRC32 ------------------------------------------------------------------ *)

(* Standard table-driven CRC-32 (IEEE 802.3, reflected polynomial
   0xEDB88320) — the checksum of zlib/PNG/ethernet.  Used for per-line
   journal checksums and for fleet frame integrity; it catches the
   corrupt-but-still-parseable lines a JSON parse failure cannot. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_update crc s off len =
  let table = Lazy.force crc_table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
         lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_update 0 s 0 (String.length s)
