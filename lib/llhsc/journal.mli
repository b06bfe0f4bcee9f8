(** The crash-safe journal: an append-only JSONL file with one fsync'd
    record per finished product, and one for the partition check,
    enabling [--resume] to skip work that already concluded before a
    crash.  This module is the only code that reads or writes a journal
    file ([--journal FILE] of [pipeline] and [dispatch]).

    File layout: the first line is a header naming the journal, its
    format version and a {e binding}: the run's inputs hash, which every
    record's content hash covers.  Every following line is one
    record, written as ["<json>\t<crc32 of json, 8 hex digits>"]; the
    per-line checksum catches corrupt-but-still-parseable lines that a
    JSON parse failure cannot.  Each record is written, flushed and
    [fsync]'d before the writer moves on, so a SIGKILL at any point
    loses at most the record being written.  Readers skip a truncated
    final line and lines whose checksum does not verify, and accept
    checksum-less lines written by older versions.

    {b Open policy}, decided by what the file holds, never by a flag:
    - missing or empty: write a fresh header;
    - a header binding this run and no degradation marker: append (a
      torn final line left by a crash is terminated first, so the next
      record starts its own line);
    - a journal of another run — another binding, another format
      version, or a degradation marker anywhere: start over with a
      fresh header;
    - anything else (a non-empty file that is not a journal): refuse
      with [Sys_error], leaving the file untouched. *)

(** {1 Product entries} *)

type kind = Product | Partition

type entry = {
  kind : kind;
  name : string; (** product name; ["partition"] for the partition record *)
  hash : string;
      (** content hash of everything this record's verdict depends on (see
          {!product_hash} / {!partition_hash}); a mismatch on resume means
          the entry is stale and the product is re-checked *)
  features : string list;
  order : string list; (** delta application order (products only) *)
  findings : Report.finding list;
  certified : bool; (** the run that wrote this record was certifying *)
  cert_failures : int;
      (** certification failures accumulated when the record was written;
          resumed certifying runs re-check any entry with failures (or
          written by a non-certifying run) rather than trusting it *)
}

(** {1 Content hashes}

    MD5 (via stdlib [Digest]) over a canonical rendering of the inputs —
    collision resistance against adversaries is not a goal; detecting
    changed inputs across runs is. *)

(** Hash of the raw run inputs plus verdict-affecting options; computed by
    the caller from file bytes and flags, threaded through the header and
    every per-product hash. *)
val inputs_hash : parts:string list -> string

(** [product_hash ~inputs_hash ~name ~features] — what a product verdict
    depends on: the run inputs and the product's completed feature set. *)
val product_hash : inputs_hash:string -> name:string -> features:string list -> string

(** The partition verdict depends on every completed product. *)
val partition_hash :
  inputs_hash:string -> products:(string * string list) list -> string

(** {1 Finding serialisation}

    The journal's JSON encoding of one finding, shared with the worker-pool
    wire protocol (see {!Shard}). *)

val finding_to_json : Report.finding -> Json.t

(** [None] on a structurally invalid encoding. *)
val finding_of_json : Json.t -> Report.finding option

(** {1 Writing} *)

type sink

(** [open_ ~path ~inputs_hash] applies the open policy above, binding
    the journal to [inputs_hash].  Raises [Sys_error] on unwritable
    paths (including {!Durable}'s injected [erofs@n] fault) and on a
    file that is not a journal.  A header write/fsync failure does not
    raise: the sink opens already degraded (see {!degradation}). *)
val open_ : path:string -> inputs_hash:string -> sink

(** Append one {!entry}: a single checksummed JSON line, flushed and
    fsync'd before returning.  The record kinds of the [LLHSC_FAULT]
    schedule ({!Fault}) fire here, counting the records of the process:
    [kill-after-records@n] and [kill-mid-record@n] simulate a SIGKILL
    after, or halfway through writing, the n-th record, and
    [term-after-records@n] raises SIGTERM in-process after it, exercising
    the graceful-interrupt path of [pipeline] and [dispatch].

    Fail-operational on disk errors: if the write or its fsync fails
    (ENOSPC, EIO, ...), the sink degrades instead of raising — a
    best-effort marker record is appended so no reader trusts the file
    again, every later [record] is a no-op, and {!degradation} reports
    the reason so the caller can surface a [warning[JOURNAL]].  A record
    is never reported durable when its fsync failed. *)
val record : sink -> entry -> unit

(** [Some reason] once a journal write or fsync has failed; the run
    carries on unjournaled and must report the degradation loudly. *)
val degradation : sink -> string option

(** Never raises: every record was already fsync'd by {!record}. *)
val close : sink -> unit

(** {1 Loading} *)

(** The verified entries of a journal whose header binds [inputs_hash].
    Later records win over earlier ones with the same (kind, name).
    [[]] when the file is missing, unreadable, bound to another run, or
    carries a degradation marker: the journal stopped being complete at
    an unknowable point, and {!compact} is the explicit operator path
    that re-blesses its surviving entries.  Torn and checksum-failing
    lines are skipped. *)
val load : path:string -> inputs_hash:string -> entry list

(** Lookup in a loaded journal. *)
val find : entry list -> kind -> string -> entry option

(** {1 fsck / compact}

    Offline integrity checking and recovery of a journal,
    exposed by the [llhsc journal] subcommand and run (quietly) before
    every [--resume]. *)

type fsck_report = {
  header : [ `Ok of string | `Bad | `Missing ];
      (** [`Ok hash] carries the inputs hash the journal claims; [`Bad]
          is an unparsable or wrong-version header; [`Missing] an empty
          file *)
  records : int; (** CRC-valid, well-formed entry records *)
  entries : int; (** distinct (kind, name) after last-wins merge *)
  legacy : int; (** records accepted in the older checksum-less format *)
  torn : int; (** lines whose checksum is present but does not verify *)
  invalid : int;
      (** lines whose checksum verifies (or is absent) but whose body is
          not a valid entry — torn final records land here too *)
  degraded_reason : string option;
      (** the degradation marker's reason, when the writing run recorded
          one *)
}

(** [true] when the journal has something to report: torn or invalid
    lines, or a degradation marker.  Drives the fsck exit-code contract
    (0 clean / 1 issues / 2 unusable). *)
val fsck_issues : fsck_report -> bool

(** Census a journal without loading it for resumption.  [None] when the
    file is missing or unreadable. *)
val fsck : path:string -> fsck_report option

(** Atomic last-wins rewrite: parse tolerantly (exactly like {!load},
    but also accepting a degraded journal), then atomically replace the
    file with a fresh header plus one checksummed line per surviving
    entry — dropping torn lines, superseded duplicates and any
    degradation marker.  [Ok (lines_before, entries_after)] on success;
    [Error reason] when the file is unreadable or its header is
    missing/unrecognised (the inputs hash to re-bless is unknowable).
    May raise [Sys_error]/[Unix.Unix_error] if the atomic rewrite itself
    fails. *)
val compact : path:string -> (int * int, string) result
