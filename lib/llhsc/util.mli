(** Small string helpers shared by the llhsc modules. *)

(** Substring search. *)
val contains : string -> string -> bool

val starts_with : prefix:string -> string -> bool

(** The whole contents of a file.  Raises [Sys_error]. *)
val read_file : string -> string

(** [include_loader path name] resolves [/include/ "name"] in the DTS
    at [path]: the contents of [name] relative to [path]'s directory,
    [None] when there is no such file. *)
val include_loader : string -> string -> string option

(** Run a syscall thunk, retrying as long as it fails with
    [Unix.EINTR].  Wrap every blocking [Unix.read]/[select]/[waitpid]/
    [fsync] call site: a stray signal must not abort a drain. *)
val retry_eintr : (unit -> 'a) -> 'a

(** Ignore SIGPIPE and return a closure restoring the previous
    disposition.  Call at the start of any code path that writes to
    pipes or sockets whose peer may vanish (shard supervisor, serve
    daemon, fleet dispatcher/worker): a disconnect mid-write must
    surface as [EPIPE] on that one descriptor, not kill the process. *)
val ignore_sigpipe : unit -> unit -> unit

(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a whole string —
    [crc32 "123456789" = 0xCBF43926].  Guards journal lines and fleet
    frames against corrupt-but-parseable bytes. *)
val crc32 : string -> int

(** Streaming variant: fold a substring into a running checksum
    (starting from [0] for an empty prefix). *)
val crc32_update : int -> string -> int -> int -> int
