(* Block cipher modes over AES (128- or 256-bit keys; the secure
   store's pages use AES-256): CBC with PKCS#7 padding (the paper's
   SQLCipher setup uses AES-CBC per database page) and CTR for
   stream-style channel encryption.

   Both CBC directions write a single output buffer: the only
   allocations per call are the output itself (and one 16-byte block on
   decrypt) — no per-block temporaries, no staging copies of the
   message. This is the secure store's per-page hot path. The
   16-byte chaining xor is two 64-bit xors; byte order is irrelevant to
   a xor, so the loads and stores are native-endian.

   The block loops of each mode are a module of [kernels]: the OCaml
   loops over {!Aes} below, or one AES-NI kernel call per message
   (accel_stubs.c). Range checks, padding, unpadding and the counter
   set-up are written once, in [Make], and shared by both; the public
   functions are [Make] over the kernels {!Accel} selects, and
   [Reference] is [Make] over the OCaml loops. *)

let[@inline] xor_block_into dst doff src soff =
  Bytes.set_int64_ne dst doff
    (Int64.logxor (Bytes.get_int64_ne dst doff) (Bytes.get_int64_ne src soff));
  Bytes.set_int64_ne dst (doff + 8)
    (Int64.logxor
       (Bytes.get_int64_ne dst (doff + 8))
       (Bytes.get_int64_ne src (soff + 8)))

let[@inline] xor_block_str_into dst doff src soff =
  Bytes.set_int64_ne dst doff
    (Int64.logxor (Bytes.get_int64_ne dst doff) (String.get_int64_ne src soff));
  Bytes.set_int64_ne dst (doff + 8)
    (Int64.logxor
       (Bytes.get_int64_ne dst (doff + 8))
       (String.get_int64_ne src (soff + 8)))

(* -- Padding ------------------------------------------------------- *)

let pkcs7_pad s =
  let pad = 16 - (String.length s mod 16) in
  s ^ String.make pad (Char.chr pad)

let pkcs7_unpad s =
  let n = String.length s in
  if n = 0 || n mod 16 <> 0 then Error "cbc: ciphertext not block aligned"
  else begin
    let pad = Char.code s.[n - 1] in
    if pad = 0 || pad > 16 || pad > n then Error "cbc: bad padding"
    else begin
      let ok = ref true in
      for i = n - pad to n - 1 do
        if Char.code s.[i] <> pad then ok := false
      done;
      if !ok then Ok (String.sub s 0 (n - pad)) else Error "cbc: bad padding"
    end
  end

(* -- Block loops ---------------------------------------------------- *)

(* What a mode needs from the cipher, over ranges [Make] has checked:
   - [cbc_encrypt key iv buf n] CBC-encrypts [buf.[0 .. n-1]] in place
     ([n] a positive multiple of 16), chained from the 16-byte [iv];
   - [cbc_decrypt key iv iv_off src off out n] decrypts
     [src.[off .. off+n-1]] into [out.[0 .. n-1]], chained from
     [iv.[iv_off .. iv_off+15]];
   - [ctr key ctr src soff dst doff len] xors the keystream of the
     16-byte counter block [ctr] (incremented per block, mod 2^128) over
     [src.[soff .. soff+len-1]] into [dst] at [doff]; it may consume
     [ctr]. *)
module type KERNELS = sig
  val cbc_encrypt : Aes.key -> string -> Bytes.t -> int -> unit

  val cbc_decrypt :
    Aes.key -> string -> int -> string -> int -> Bytes.t -> int -> unit

  val ctr : Aes.key -> Bytes.t -> string -> int -> Bytes.t -> int -> int -> unit
end

let incr_counter ctr =
  let rec bump i =
    if i < 0 then ()
    else begin
      let v = (Char.code (Bytes.get ctr i) + 1) land 0xff in
      Bytes.set ctr i (Char.chr v);
      if v = 0 then bump (i - 1)
    end
  in
  bump 15

module Ocaml : KERNELS = struct
  (* each block is xored with the previous ciphertext block (already
     in [out]) and encrypted in place — [Aes] loads the whole block
     before writing *)
  let cbc_encrypt key iv out n =
    xor_block_str_into out 0 iv 0;
    Aes.Reference.encrypt_block_into key out 0 out 0;
    for i = 1 to (n / 16) - 1 do
      xor_block_into out (i * 16) out ((i - 1) * 16);
      Aes.Reference.encrypt_block_into key out (i * 16) out (i * 16)
    done

  (* The chaining block is just the previous ciphertext block, read
     straight from [src]: no rolling [prev] buffer, and no copy of the
     IV or the ciphertext out of a larger buffer such as a raw page. *)
  let cbc_decrypt key iv iv_off src off out n =
    Aes.Reference.decrypt_str_into key src off out 0;
    xor_block_str_into out 0 iv iv_off;
    for i = 1 to (n / 16) - 1 do
      Aes.Reference.decrypt_str_into key src (off + (i * 16)) out (i * 16);
      xor_block_str_into out (i * 16) src (off + ((i - 1) * 16))
    done

  let ctr key ctr src soff dst doff len =
    let keystream = Bytes.create 16 in
    let off = ref 0 in
    while !off < len do
      Aes.Reference.encrypt_block_into key ctr 0 keystream 0;
      let chunk = min 16 (len - !off) in
      if chunk = 16 then begin
        let d = doff + !off and s = soff + !off in
        Bytes.set_int64_ne dst d
          (Int64.logxor (Bytes.get_int64_ne keystream 0) (String.get_int64_ne src s));
        Bytes.set_int64_ne dst (d + 8)
          (Int64.logxor
             (Bytes.get_int64_ne keystream 8)
             (String.get_int64_ne src (s + 8)))
      end
      else
        for i = 0 to chunk - 1 do
          Bytes.unsafe_set dst
            (doff + !off + i)
            (Char.unsafe_chr
               (Char.code (String.unsafe_get src (soff + !off + i))
               lxor Char.code (Bytes.unsafe_get keystream i)))
        done;
      incr_counter ctr;
      off := !off + 16
    done
end

(* One kernel call per message; the 8-block decrypt and CTR lanes live
   in the C. *)
module Aesni : KERNELS = struct
  external cbc_encrypt_k :
    string -> string -> Bytes.t -> (int[@untagged]) -> unit
    = "ironsafe_aes_cbc_encrypt_byte" "ironsafe_aes_cbc_encrypt"
  [@@noalloc]

  external cbc_decrypt_k :
    string ->
    string ->
    (int[@untagged]) ->
    string ->
    (int[@untagged]) ->
    Bytes.t ->
    (int[@untagged]) ->
    (int[@untagged]) ->
    unit = "ironsafe_aes_cbc_decrypt_byte" "ironsafe_aes_cbc_decrypt"
  [@@noalloc]

  external ctr_k :
    string ->
    Bytes.t ->
    string ->
    (int[@untagged]) ->
    Bytes.t ->
    (int[@untagged]) ->
    (int[@untagged]) ->
    unit = "ironsafe_aes_ctr_byte" "ironsafe_aes_ctr"
  [@@noalloc]

  let cbc_encrypt key iv out n = cbc_encrypt_k (Aes.schedule key) iv out n

  let cbc_decrypt key iv iv_off src off out n =
    cbc_decrypt_k (Aes.schedule key) iv iv_off src off out 0 n

  let ctr key ctr src soff dst doff len =
    ctr_k (Aes.schedule key) ctr src soff dst doff len
end

(* -- The modes, over either set of kernels ---------------------------- *)

module Make (K : KERNELS) = struct
  let cbc_encrypt ~key ~iv plain =
    if String.length iv <> 16 then
      invalid_arg "Modes.cbc_encrypt: iv must be 16 bytes";
    let len = String.length plain in
    let pad = 16 - (len mod 16) in
    let n = len + pad in
    (* pad directly into the output, then encrypt it in place *)
    let out = Bytes.create n in
    Bytes.blit_string plain 0 out 0 len;
    Bytes.fill out len pad (Char.chr pad);
    K.cbc_encrypt key iv out n;
    Bytes.unsafe_to_string out

  let cbc_decrypt_sub ~key ~iv ~iv_off src off n =
    if iv_off < 0 || iv_off > String.length iv - 16 then
      invalid_arg "Modes.cbc_decrypt_sub: iv range out of bounds";
    if off < 0 || n < 0 || off > String.length src - n then
      invalid_arg "Modes.cbc_decrypt_sub: source range out of bounds";
    if n = 0 || n mod 16 <> 0 then Error "cbc: ciphertext not block aligned"
    else begin
      (* The last block first: its padding gives the plaintext length,
         so the plaintext is written once, into a string of its final
         size, with no unpadded copy. The last block chains on the
         ciphertext block before it, or on the IV. *)
      let last = Bytes.create 16 in
      if n = 16 then K.cbc_decrypt key iv iv_off src off last 16
      else K.cbc_decrypt key src (off + n - 32) src (off + n - 16) last 16;
      let pad = Char.code (Bytes.get last 15) in
      let ok = ref (pad > 0 && pad <= 16) in
      if !ok then
        for i = 16 - pad to 15 do
          if Char.code (Bytes.get last i) <> pad then ok := false
        done;
      if not !ok then Error "cbc: bad padding"
      else begin
        let out = Bytes.create (n - pad) in
        if n > 16 then K.cbc_decrypt key iv iv_off src off out (n - 16);
        Bytes.blit last 0 out (n - 16) (16 - pad);
        Ok (Bytes.unsafe_to_string out)
      end
    end

  let cbc_decrypt ~key ~iv cipher =
    if String.length iv <> 16 then
      invalid_arg "Modes.cbc_decrypt: iv must be 16 bytes";
    cbc_decrypt_sub ~key ~iv ~iv_off:0 cipher 0 (String.length cipher)

  let ctr_transform_into ~key ~nonce src soff dst doff len =
    if String.length nonce <> 16 then
      invalid_arg "Modes.ctr_transform_into: nonce must be 16 bytes";
    if soff < 0 || len < 0 || soff + len > String.length src then
      invalid_arg "Modes.ctr_transform_into: source range out of bounds";
    if doff < 0 || doff + len > Bytes.length dst then
      invalid_arg "Modes.ctr_transform_into: destination range out of bounds";
    K.ctr key (Bytes.of_string nonce) src soff dst doff len

  let ctr_transform ~key ~nonce data =
    let n = String.length data in
    let out = Bytes.create n in
    ctr_transform_into ~key ~nonce data 0 out 0 n;
    Bytes.unsafe_to_string out
end

module Reference = Make (Ocaml)

include Make
          ((val if Accel.aes then (module Aesni : KERNELS)
                else (module Ocaml : KERNELS)))
