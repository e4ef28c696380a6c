(* SHA-256 (FIPS 180-4), implemented from scratch on 32-bit words.

   The compression function is [Sha256_block.compress]: straight-line
   code over let-bound [Int32] locals, printed at build time by
   gen/gen_sha256_block.ml. ocamlopt keeps such locals unboxed in
   registers, so 32-bit wrap-around is free and nothing is masked or
   allocated per round. The same rounds written as a [for] loop over
   [int32 ref]s, with the schedule in [Bytes], measured no faster than
   the older tagged-[int] loop: every round then reloads or reboxes its
   state. Only the unrolled form gets the speed-up, so the rounds are
   generated rather than written out by hand.

   A context holds the chaining state as 32 big-endian bytes, which is
   also the digest layout, and a 64-byte staging buffer. There is no
   module-level mutable state: the message schedule lives in the
   compression function's locals, so contexts on different domains never
   share memory. Full blocks arriving through [update_sub] are
   compressed straight out of the source string. [copy] clones a
   context mid-stream, which is what lets {!Hmac} precompute the
   ipad/opad midstates once per key. *)

type ctx = {
  st : Bytes.t; (* h0..h7, big-endian *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes so far *)
}

let initial_state =
  "\x6a\x09\xe6\x67\xbb\x67\xae\x85\x3c\x6e\xf3\x72\xa5\x4f\xf5\x3a\
   \x51\x0e\x52\x7f\x9b\x05\x68\x8c\x1f\x83\xd9\xab\x5b\xe0\xcd\x19"

let init () =
  { st = Bytes.of_string initial_state; buf = Bytes.create 64; buf_len = 0; total = 0 }

let copy ctx = { ctx with st = Bytes.copy ctx.st; buf = Bytes.copy ctx.buf }

let compress_buf ctx = Sha256_block.compress ctx.st ctx.buf 0

let update_sub ctx s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Sha256.update_sub: range out of bounds";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* top up a partially filled block buffer first *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit_string s !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress_buf ctx;
      ctx.buf_len <- 0
    end
  end;
  (* the string is only read *)
  let src = Bytes.unsafe_of_string s in
  while !remaining >= 64 do
    Sha256_block.compress ctx.st src !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit_string s !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update ctx s = update_sub ctx s 0 (String.length s)

(* Padding goes straight into the block buffer: 0x80, zeros, and the
   64-bit message bit length, spilling into a second block when fewer
   than 9 bytes are free. *)
let finalize ctx =
  let n = ctx.buf_len in
  Bytes.set ctx.buf n '\x80';
  if n >= 56 then begin
    Bytes.fill ctx.buf (n + 1) (63 - n) '\000';
    compress_buf ctx;
    Bytes.fill ctx.buf 0 56 '\000'
  end
  else Bytes.fill ctx.buf (n + 1) (55 - n) '\000';
  Bytes.set_int64_be ctx.buf 56 (Int64.of_int (ctx.total * 8));
  compress_buf ctx;
  ctx.buf_len <- 0;
  Bytes.to_string ctx.st

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let digest_list parts =
  let ctx = init () in
  List.iter (update ctx) parts;
  finalize ctx

let hex s = Hex.of_string (digest s)
