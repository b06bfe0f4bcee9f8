(* Length-framed, checksummed messages over a byte stream.

   A frame is [u32be payload-length | u32be crc32(payload) | payload].
   A stream socket guarantees ordered bytes but not message boundaries
   or payload integrity against bugs on either end (a worker that dies
   mid-write, a proxy that truncates); the length prefix restores
   boundaries and the CRC turns "parseable garbage" into a detectable
   protocol error so the supervisor can drop the connection instead of
   merging a corrupt result.  The decoder is incremental: feed it
   whatever [read] returned and pull zero or more complete frames out. *)

(* Generous cap: a shipped spec carries whole input files, but 64 MiB of
   DTS is far beyond anything real.  A length above this means a corrupt
   or hostile peer, not a big message. *)
let max_payload = 64 * 1024 * 1024

let put_u32be b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let get_u32be b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let encode payload =
  let n = String.length payload in
  if n > max_payload then invalid_arg "Frame.encode: oversized payload";
  let b = Bytes.create (8 + n) in
  put_u32be b 0 n;
  put_u32be b 4 (Util.crc32 payload);
  Bytes.blit_string payload 0 b 8 n;
  Bytes.unsafe_to_string b

module Decoder = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 4096; len = 0 }

  let feed t s off n =
    if n > 0 then begin
      let need = t.len + n in
      if need > Bytes.length t.buf then begin
        let cap = ref (Bytes.length t.buf) in
        while !cap < need do
          cap := !cap * 2
        done;
        let buf = Bytes.create !cap in
        Bytes.blit t.buf 0 buf 0 t.len;
        t.buf <- buf
      end;
      Bytes.blit_string s off t.buf t.len n;
      t.len <- t.len + n
    end

  (* Drop the first [n] consumed bytes.  A plain blit keeps the decoder
     allocation-free in the steady state (one frame in, one frame out). *)
  let consume t n =
    Bytes.blit t.buf n t.buf 0 (t.len - n);
    t.len <- t.len - n

  let next t =
    if t.len < 8 then `Awaiting
    else begin
      let plen = get_u32be t.buf 0 in
      if plen > max_payload then `Corrupt "oversized frame"
      else if t.len < 8 + plen then `Awaiting
      else begin
        let crc = get_u32be t.buf 4 in
        let payload = Bytes.sub_string t.buf 8 plen in
        if Util.crc32 payload <> crc then `Corrupt "frame checksum mismatch"
        else begin
          consume t (8 + plen);
          `Frame payload
        end
      end
    end
end

(* Session MACs.  After the authenticated handshake each direction
   carries a monotonically increasing sequence number; a frame's payload
   becomes [HMAC(session_key, u64be(seq) || body) | body] with the MAC's
   32 raw bytes in front.  Binding the sequence number into the MAC
   means a mid-stream injector can neither forge frames (no key), splice
   in a recorded frame from another position (wrong seq), nor replay one
   (seq already consumed) — any of those fails [unseal] and the peer is
   handled as a dead worker, never as a source of data. *)

let mac_len = 32

let u64be v =
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set b i (Char.chr ((v lsr (8 * (7 - i))) land 0xff))
  done;
  Bytes.unsafe_to_string b

let seal ~key ~seq body =
  Hmac.hmac ~key (u64be seq ^ body) ^ body

let unseal ~key ~seq payload =
  if String.length payload < mac_len then None
  else begin
    let mac = String.sub payload 0 mac_len in
    let body = String.sub payload mac_len (String.length payload - mac_len) in
    if Hmac.equal mac (Hmac.hmac ~key (u64be seq ^ body)) then
      Some body
    else None
  end

(* Blocking full write of one encoded frame.  EINTR is retried; every
   other write error (EPIPE with SIGPIPE ignored, ECONNRESET, ...)
   propagates for the caller's per-connection handling. *)
let write fd payload =
  let s = encode payload in
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    let written =
      Util.retry_eintr (fun () ->
          Unix.write_substring fd s !pos (n - !pos))
    in
    pos := !pos + written
  done

let scratch = Bytes.create 65536

(* One [read] into the decoder.  [`Eof] on a closed peer; [`Data 0] on a
   spuriously-readable nonblocking socket. *)
let read_chunk fd dec =
  match Util.retry_eintr (fun () -> Unix.read fd scratch 0 (Bytes.length scratch)) with
  | 0 -> `Eof
  | n ->
    Decoder.feed dec (Bytes.unsafe_to_string scratch) 0 n;
    `Data n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Data 0
