(** Length-framed, checksummed messages over a byte stream.

    One frame is [u32be length | u32be crc32(payload) | payload].  The
    length restores message boundaries over a stream socket; the CRC
    (same IEEE 802.3 polynomial as the journal's per-line checksum) turns
    silent payload corruption into a detectable protocol error, so a
    peer drops the connection instead of acting on garbage.  Every
    worker connection speaks it: {!Shard}'s forked children over a
    socketpair and fleet workers over TCP. *)

(** Hard cap on one payload (64 MiB).  A declared length above this is
    reported as [`Corrupt] without buffering. *)
val max_payload : int

(** Encode one payload as a complete frame.  Raises [Invalid_argument]
    above {!max_payload}. *)
val encode : string -> string

(** Incremental frame parser: feed raw bytes in whatever chunks the
    socket produced, pull complete frames out. *)
module Decoder : sig
  type t

  val create : unit -> t

  (** [feed t s off n] appends [n] bytes of [s] starting at [off]. *)
  val feed : t -> string -> int -> int -> unit

  (** Extract the next complete frame, if any.  [`Corrupt] (bad length
      or checksum) is sticky in practice: the stream cannot be
      resynchronised, so the caller should drop the connection. *)
  val next : t -> [ `Frame of string | `Awaiting | `Corrupt of string ]
end

(** {1 Session MACs}

    After the fleet's authenticated handshake every frame body is
    prefixed with [HMAC-SHA256(session_key, u64be(seq) || body)] — 32
    raw bytes — where [seq] counts frames per direction.  Forged, spliced, and
    replayed frames all fail {!unseal} and collapse to dead-worker
    handling. *)

(** Byte length of the MAC prefix (32). *)
val mac_len : int

val seal : key:string -> seq:int -> string -> string

(** [None] if the payload is too short or the MAC does not verify
    (constant-time compare). *)
val unseal : key:string -> seq:int -> string -> string option

(** Blocking write of one complete frame.  Retries [EINTR]; any other
    error ([EPIPE], [ECONNRESET], ...) propagates as [Unix_error] for
    per-connection handling — workers and supervisors run with SIGPIPE
    ignored. *)
val write : Unix.file_descr -> string -> unit

(** One [read(2)] into the decoder: [`Eof] on a closed peer, [`Data n]
    otherwise ([`Data 0] for a spuriously-readable nonblocking fd). *)
val read_chunk : Unix.file_descr -> Decoder.t -> [ `Eof | `Data of int ]
