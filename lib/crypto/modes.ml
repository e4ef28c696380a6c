(* Block cipher modes over AES (128- or 256-bit keys; the secure
   store's pages use AES-256): CBC with PKCS#7 padding (the paper's
   SQLCipher setup uses AES-CBC per database page) and CTR for
   stream-style channel encryption.

   Both CBC directions run in place over a single output buffer: the
   only allocations per call are the output itself (and the unpadded
   copy on decrypt) — no per-block temporaries, no staging copies of
   the message. This is the secure store's per-page hot path. The
   16-byte chaining xor is two 64-bit xors; byte order is irrelevant to
   a xor, so the loads and stores are native-endian. *)

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

(* -- CBC ----------------------------------------------------------- *)

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

let cbc_encrypt ~key ~iv plain =
  if String.length iv <> 16 then invalid_arg "Modes.cbc_encrypt: iv must be 16 bytes";
  let len = String.length plain in
  let pad = 16 - (len mod 16) in
  let n = len + pad in
  (* pad directly into the output; each block is then xored with the
     previous ciphertext block (already in [out]) and encrypted in
     place — [Aes] loads the whole block before writing *)
  let out = Bytes.create n in
  Bytes.blit_string plain 0 out 0 len;
  Bytes.fill out len pad (Char.chr pad);
  xor_block_str_into out 0 iv 0;
  Aes.encrypt_block_into key out 0 out 0;
  for i = 1 to (n / 16) - 1 do
    xor_block_into out (i * 16) out ((i - 1) * 16);
    Aes.encrypt_block_into key out (i * 16) out (i * 16)
  done;
  Bytes.unsafe_to_string out

(* The chaining block is just the previous ciphertext block, read
   straight from [src]: no rolling [prev] buffer, and no copy of the
   IV or the ciphertext out of a larger buffer such as a raw page. *)
let cbc_decrypt_sub ~key ~iv ~iv_off src off n =
  if iv_off < 0 || iv_off > String.length iv - 16 then
    invalid_arg "Modes.cbc_decrypt_sub: iv range out of bounds";
  if off < 0 || n < 0 || off > String.length src - n then
    invalid_arg "Modes.cbc_decrypt_sub: source range out of bounds";
  if n = 0 || n mod 16 <> 0 then Error "cbc: ciphertext not block aligned"
  else begin
    let out = Bytes.create n in
    Aes.decrypt_str_into key src off out 0;
    xor_block_str_into out 0 iv iv_off;
    for i = 1 to (n / 16) - 1 do
      Aes.decrypt_str_into key src (off + (i * 16)) out (i * 16);
      xor_block_str_into out (i * 16) src (off + ((i - 1) * 16))
    done;
    (* unpad without round-tripping through an intermediate string *)
    let pad = Char.code (Bytes.get out (n - 1)) in
    if pad = 0 || pad > 16 || pad > n then Error "cbc: bad padding"
    else begin
      let ok = ref true in
      for i = n - pad to n - 1 do
        if Char.code (Bytes.get out i) <> pad then ok := false
      done;
      if !ok then Ok (Bytes.sub_string out 0 (n - pad))
      else Error "cbc: bad padding"
    end
  end

let cbc_decrypt ~key ~iv cipher =
  if String.length iv <> 16 then invalid_arg "Modes.cbc_decrypt: iv must be 16 bytes";
  cbc_decrypt_sub ~key ~iv ~iv_off:0 cipher 0 (String.length cipher)

(* -- CTR ----------------------------------------------------------- *)

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

(* Big-endian addition of a small integer into the 16-byte counter,
   wrapping mod 2^128 (the carry off byte 0 is dropped, matching what
   repeated [incr_counter] does). Lets a lane start mid-message. *)
let add_counter ctr k =
  if k < 0 then invalid_arg "Modes: negative counter offset";
  let rec add i k =
    if k = 0 || i < 0 then ()
    else begin
      let v = Char.code (Bytes.get ctr i) + (k land 0xff) in
      Bytes.set ctr i (Char.chr (v land 0xff));
      add (i - 1) ((k lsr 8) + (v lsr 8))
    end
  in
  add 15 k

let ctr_transform_into ~key ~nonce ?(block_offset = 0) src soff dst doff len =
  if String.length nonce <> 16 then
    invalid_arg "Modes.ctr_transform_into: nonce must be 16 bytes";
  if soff < 0 || len < 0 || soff + len > String.length src then
    invalid_arg "Modes.ctr_transform_into: source range out of bounds";
  if doff < 0 || doff + len > Bytes.length dst then
    invalid_arg "Modes.ctr_transform_into: destination range out of bounds";
  let ctr = Bytes.of_string nonce in
  add_counter ctr block_offset;
  let keystream = Bytes.create 16 in
  let off = ref 0 in
  while !off < len do
    Aes.encrypt_block_into key ctr 0 keystream 0;
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

let ctr_transform ~key ~nonce data =
  let n = String.length data in
  let out = Bytes.create n in
  ctr_transform_into ~key ~nonce data 0 out 0 n;
  Bytes.unsafe_to_string out
