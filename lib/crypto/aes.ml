(* AES-128/AES-256 (FIPS 197), from scratch.

   The S-box is computed at module initialization from the GF(2^8)
   multiplicative inverse (via log/antilog tables over generator 0x03)
   followed by the standard affine transform, rather than transcribed
   as a 256-entry literal — less room for typos, and the tests pin the
   FIPS-197 known-answer vectors anyway.

   Hot-path notes: a block is four 32-bit state words held in native
   ints, pushed through T-tables. The rounds are written out (rounds
   1-9 shared, then either the AES-128 final round or rounds 10-13 and
   the AES-256 final round), so no round counter or key index is
   computed at run time. Table and round-key reads are unchecked, and
   they stay in bounds by construction:
   - every table index is masked to one byte ([land 0xff]) and every
     table has 256 entries;
   - round-key indices are literals below 4 * (rounds + 1), the length
     [expand_key] gives the schedule, and [rounds] is 10 or 14 because
     only [expand_key] builds a [key].

   This table-driven code is the reference and the fallback. On a CPU
   with AES-NI ({!Accel.aes}) the public entry points run the
   instructions instead (accel_stubs.c), over the same key schedule
   stored as bytes; the T-table lookups, whose cache footprint depends
   on key and data, then never run. [Reference] keeps the OCaml path
   reachable for the tests and the microbench. *)

let xtime b =
  let b = b lsl 1 in
  if b land 0x100 <> 0 then (b lxor 0x1b) land 0xff else b

(* log/antilog tables for GF(2^8) with generator 3 *)
let alog = Array.make 256 0
let log_ = Array.make 256 0

let () =
  let x = ref 1 in
  for i = 0 to 254 do
    alog.(i) <- !x;
    log_.(!x) <- i;
    (* multiply by generator 3 = x * 2 + x *)
    x := xtime !x lxor !x
  done;
  alog.(255) <- alog.(0)

let gmul a b =
  if a = 0 || b = 0 then 0 else alog.((log_.(a) + log_.(b)) mod 255)

let ginv a = if a = 0 then 0 else alog.(255 - log_.(a))
let rotl8 b n = ((b lsl n) lor (b lsr (8 - n))) land 0xff

let sbox = Array.make 256 0
let inv_sbox = Array.make 256 0

let () =
  for i = 0 to 255 do
    let b = ginv i in
    let s = b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 in
    sbox.(i) <- s lxor 0x63
  done;
  Array.iteri (fun i s -> inv_sbox.(s) <- i) sbox

let block_size = 16

(* T-tables for the table-driven implementation (one 32-bit word per
   byte value per table). te/td follow the standard formulation:
     te0[x] = (2s, s, s, 3s)        with s = sbox[x]
     td0[x] = (14i, 9i, 13i, 11i)   with i = inv_sbox applied upstream
   Built at init from the computed S-box — again no literal tables. *)

let pack a b c d = (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
let rot32 x n = ((x lsr n) lor (x lsl (32 - n))) land 0xffffffff

let te0 = Array.make 256 0
let te1 = Array.make 256 0
let te2 = Array.make 256 0
let te3 = Array.make 256 0
let td0 = Array.make 256 0
let td1 = Array.make 256 0
let td2 = Array.make 256 0
let td3 = Array.make 256 0

let () =
  for x = 0 to 255 do
    let s = sbox.(x) in
    let e = pack (gmul s 2) s s (gmul s 3) in
    te0.(x) <- e;
    te1.(x) <- rot32 e 8;
    te2.(x) <- rot32 e 16;
    te3.(x) <- rot32 e 24;
    let i = inv_sbox.(x) in
    let d = pack (gmul i 14) (gmul i 9) (gmul i 13) (gmul i 11) in
    td0.(x) <- d;
    td1.(x) <- rot32 d 8;
    td2.(x) <- rot32 d 16;
    td3.(x) <- rot32 d 24
  done

(* Expanded key: forward schedule for encryption plus the equivalent
   inverse cipher schedule (round keys reversed, InvMixColumns applied
   to the middle rounds) for decryption. 10 rounds for 128-bit keys,
   14 for 256-bit. [bytes] holds both schedules again as the AES-NI
   kernels read them: the enc words, then the dec words, each
   big-endian, 16 bytes per round key. The dec half is what aesimc
   would make of the enc round keys (InvMixColumns is column-wise, the
   same map [inv_mix_word] applies to one word). *)
type key = { enc : int array; dec : int array; rounds : int; bytes : string }

let inv_mix_word w =
  let a = (w lsr 24) land 0xff
  and b = (w lsr 16) land 0xff
  and c = (w lsr 8) land 0xff
  and d = w land 0xff in
  pack
    (gmul a 14 lxor gmul b 11 lxor gmul c 13 lxor gmul d 9)
    (gmul a 9 lxor gmul b 14 lxor gmul c 11 lxor gmul d 13)
    (gmul a 13 lxor gmul b 9 lxor gmul c 14 lxor gmul d 11)
    (gmul a 11 lxor gmul b 13 lxor gmul c 9 lxor gmul d 14)

let sub_word v =
  (sbox.((v lsr 24) land 0xff) lsl 24)
  lor (sbox.((v lsr 16) land 0xff) lsl 16)
  lor (sbox.((v lsr 8) land 0xff) lsl 8)
  lor sbox.(v land 0xff)

let expand_key key_str =
  let nk =
    match String.length key_str with
    | 16 -> 4
    | 32 -> 8
    | _ -> invalid_arg "Aes.expand_key: need 16 or 32 bytes"
  in
  let rounds = nk + 6 in
  let words = 4 * (rounds + 1) in
  let w = Array.make words 0 in
  for i = 0 to nk - 1 do
    w.(i) <-
      (Char.code key_str.[4 * i] lsl 24)
      lor (Char.code key_str.[(4 * i) + 1] lsl 16)
      lor (Char.code key_str.[(4 * i) + 2] lsl 8)
      lor Char.code key_str.[(4 * i) + 3]
  done;
  let rcon = ref 1 in
  for i = nk to words - 1 do
    let temp = w.(i - 1) in
    let temp =
      if i mod nk = 0 then begin
        let rotated = ((temp lsl 8) lor (temp lsr 24)) land 0xffffffff in
        let v = sub_word rotated lxor (!rcon lsl 24) in
        rcon := xtime !rcon;
        v
      end
      else if nk > 6 && i mod nk = 4 then sub_word temp
      else temp
    in
    w.(i) <- w.(i - nk) lxor temp
  done;
  let dec = Array.make words 0 in
  for r = 0 to rounds do
    for c = 0 to 3 do
      let src = w.(((rounds - r) * 4) + c) in
      dec.((r * 4) + c) <-
        (if r = 0 || r = rounds then src else inv_mix_word src)
    done
  done;
  let bytes = Bytes.create (8 * words) in
  Array.iteri (fun i v -> Bytes.set_int32_be bytes (4 * i) (Int32.of_int v)) w;
  Array.iteri
    (fun i v -> Bytes.set_int32_be bytes (4 * (words + i)) (Int32.of_int v))
    dec;
  { enc = w; dec; rounds; bytes = Bytes.unsafe_to_string bytes }

let schedule key = key.bytes

(* Word load/store helpers: one 32-bit big-endian access per state
   word (a load plus a byte swap on little-endian hosts) instead of
   four byte reads and shifts. The loads are masked back to an unsigned
   32-bit int; the store keeps the low 32 bits. Offsets come from the
   block-mode drivers, which iterate in exact 16-byte steps over
   buffers they sized. *)
let[@inline] get_word src off =
  Int32.to_int (Bytes.get_int32_be src off) land 0xffffffff

let[@inline] get_word_str src off =
  Int32.to_int (String.get_int32_be src off) land 0xffffffff

let[@inline] put_word dst off v = Bytes.set_int32_be dst off (Int32.of_int v)

(* the annotation keeps the read a plain int load after inlining *)
let[@inline] get (tbl : int array) i = Array.unsafe_get tbl i

(* One output column of a middle round: four byte-indexed T-table
   words and a round-key word. *)
let[@inline] column t0 t1 t2 t3 a b c d k =
  get t0 ((a lsr 24) land 0xff)
  lxor get t1 ((b lsr 16) land 0xff)
  lxor get t2 ((c lsr 8) land 0xff)
  lxor get t3 (d land 0xff)
  lxor k

(* One output column of the final round (no MixColumns): S-box bytes. *)
let[@inline] final_column box a b c d k =
  (get box ((a lsr 24) land 0xff) lsl 24)
  lor (get box ((b lsr 16) land 0xff) lsl 16)
  lor (get box ((c lsr 8) land 0xff) lsl 8)
  lor get box (d land 0xff)
  lxor k

let[@inline] enc a b c d k = column te0 te1 te2 te3 a b c d k
let[@inline] dec a b c d k = column td0 td1 td2 td3 a b c d k

(* final round from round key [4 * r] *)
let enc_final w r s0 s1 s2 s3 dst doff =
  let k = 4 * r in
  put_word dst doff (final_column sbox s0 s1 s2 s3 (get w k));
  put_word dst (doff + 4) (final_column sbox s1 s2 s3 s0 (get w (k + 1)));
  put_word dst (doff + 8) (final_column sbox s2 s3 s0 s1 (get w (k + 2)));
  put_word dst (doff + 12) (final_column sbox s3 s0 s1 s2 (get w (k + 3)))

(* Core rounds; [s0..s3] are the state words already whitened with
   round key 0. Each [let ... and ...] is one round: all four columns
   read the previous state. *)
let encrypt_core key s0 s1 s2 s3 dst doff =
  let w = key.enc in
  let s0 = enc s0 s1 s2 s3 (get w 4) and s1 = enc s1 s2 s3 s0 (get w 5)
  and s2 = enc s2 s3 s0 s1 (get w 6) and s3 = enc s3 s0 s1 s2 (get w 7) in
  let s0 = enc s0 s1 s2 s3 (get w 8) and s1 = enc s1 s2 s3 s0 (get w 9)
  and s2 = enc s2 s3 s0 s1 (get w 10) and s3 = enc s3 s0 s1 s2 (get w 11) in
  let s0 = enc s0 s1 s2 s3 (get w 12) and s1 = enc s1 s2 s3 s0 (get w 13)
  and s2 = enc s2 s3 s0 s1 (get w 14) and s3 = enc s3 s0 s1 s2 (get w 15) in
  let s0 = enc s0 s1 s2 s3 (get w 16) and s1 = enc s1 s2 s3 s0 (get w 17)
  and s2 = enc s2 s3 s0 s1 (get w 18) and s3 = enc s3 s0 s1 s2 (get w 19) in
  let s0 = enc s0 s1 s2 s3 (get w 20) and s1 = enc s1 s2 s3 s0 (get w 21)
  and s2 = enc s2 s3 s0 s1 (get w 22) and s3 = enc s3 s0 s1 s2 (get w 23) in
  let s0 = enc s0 s1 s2 s3 (get w 24) and s1 = enc s1 s2 s3 s0 (get w 25)
  and s2 = enc s2 s3 s0 s1 (get w 26) and s3 = enc s3 s0 s1 s2 (get w 27) in
  let s0 = enc s0 s1 s2 s3 (get w 28) and s1 = enc s1 s2 s3 s0 (get w 29)
  and s2 = enc s2 s3 s0 s1 (get w 30) and s3 = enc s3 s0 s1 s2 (get w 31) in
  let s0 = enc s0 s1 s2 s3 (get w 32) and s1 = enc s1 s2 s3 s0 (get w 33)
  and s2 = enc s2 s3 s0 s1 (get w 34) and s3 = enc s3 s0 s1 s2 (get w 35) in
  let s0 = enc s0 s1 s2 s3 (get w 36) and s1 = enc s1 s2 s3 s0 (get w 37)
  and s2 = enc s2 s3 s0 s1 (get w 38) and s3 = enc s3 s0 s1 s2 (get w 39) in
  if key.rounds = 10 then enc_final w 10 s0 s1 s2 s3 dst doff
  else begin
    let s0 = enc s0 s1 s2 s3 (get w 40) and s1 = enc s1 s2 s3 s0 (get w 41)
    and s2 = enc s2 s3 s0 s1 (get w 42) and s3 = enc s3 s0 s1 s2 (get w 43) in
    let s0 = enc s0 s1 s2 s3 (get w 44) and s1 = enc s1 s2 s3 s0 (get w 45)
    and s2 = enc s2 s3 s0 s1 (get w 46) and s3 = enc s3 s0 s1 s2 (get w 47) in
    let s0 = enc s0 s1 s2 s3 (get w 48) and s1 = enc s1 s2 s3 s0 (get w 49)
    and s2 = enc s2 s3 s0 s1 (get w 50) and s3 = enc s3 s0 s1 s2 (get w 51) in
    let s0 = enc s0 s1 s2 s3 (get w 52) and s1 = enc s1 s2 s3 s0 (get w 53)
    and s2 = enc s2 s3 s0 s1 (get w 54) and s3 = enc s3 s0 s1 s2 (get w 55) in
    enc_final w 14 s0 s1 s2 s3 dst doff
  end

let encrypt_block_into key src soff dst doff =
  let w = key.enc in
  encrypt_core key
    (get_word src soff lxor get w 0)
    (get_word src (soff + 4) lxor get w 1)
    (get_word src (soff + 8) lxor get w 2)
    (get_word src (soff + 12) lxor get w 3)
    dst doff

let encrypt_str_into key src soff dst doff =
  let w = key.enc in
  encrypt_core key
    (get_word_str src soff lxor get w 0)
    (get_word_str src (soff + 4) lxor get w 1)
    (get_word_str src (soff + 8) lxor get w 2)
    (get_word_str src (soff + 12) lxor get w 3)
    dst doff

(* The inverse cipher walks the state columns in the opposite rotation. *)
let dec_final w r s0 s1 s2 s3 dst doff =
  let k = 4 * r in
  put_word dst doff (final_column inv_sbox s0 s3 s2 s1 (get w k));
  put_word dst (doff + 4) (final_column inv_sbox s1 s0 s3 s2 (get w (k + 1)));
  put_word dst (doff + 8) (final_column inv_sbox s2 s1 s0 s3 (get w (k + 2)));
  put_word dst (doff + 12) (final_column inv_sbox s3 s2 s1 s0 (get w (k + 3)))

let decrypt_core key s0 s1 s2 s3 dst doff =
  let w = key.dec in
  let s0 = dec s0 s3 s2 s1 (get w 4) and s1 = dec s1 s0 s3 s2 (get w 5)
  and s2 = dec s2 s1 s0 s3 (get w 6) and s3 = dec s3 s2 s1 s0 (get w 7) in
  let s0 = dec s0 s3 s2 s1 (get w 8) and s1 = dec s1 s0 s3 s2 (get w 9)
  and s2 = dec s2 s1 s0 s3 (get w 10) and s3 = dec s3 s2 s1 s0 (get w 11) in
  let s0 = dec s0 s3 s2 s1 (get w 12) and s1 = dec s1 s0 s3 s2 (get w 13)
  and s2 = dec s2 s1 s0 s3 (get w 14) and s3 = dec s3 s2 s1 s0 (get w 15) in
  let s0 = dec s0 s3 s2 s1 (get w 16) and s1 = dec s1 s0 s3 s2 (get w 17)
  and s2 = dec s2 s1 s0 s3 (get w 18) and s3 = dec s3 s2 s1 s0 (get w 19) in
  let s0 = dec s0 s3 s2 s1 (get w 20) and s1 = dec s1 s0 s3 s2 (get w 21)
  and s2 = dec s2 s1 s0 s3 (get w 22) and s3 = dec s3 s2 s1 s0 (get w 23) in
  let s0 = dec s0 s3 s2 s1 (get w 24) and s1 = dec s1 s0 s3 s2 (get w 25)
  and s2 = dec s2 s1 s0 s3 (get w 26) and s3 = dec s3 s2 s1 s0 (get w 27) in
  let s0 = dec s0 s3 s2 s1 (get w 28) and s1 = dec s1 s0 s3 s2 (get w 29)
  and s2 = dec s2 s1 s0 s3 (get w 30) and s3 = dec s3 s2 s1 s0 (get w 31) in
  let s0 = dec s0 s3 s2 s1 (get w 32) and s1 = dec s1 s0 s3 s2 (get w 33)
  and s2 = dec s2 s1 s0 s3 (get w 34) and s3 = dec s3 s2 s1 s0 (get w 35) in
  let s0 = dec s0 s3 s2 s1 (get w 36) and s1 = dec s1 s0 s3 s2 (get w 37)
  and s2 = dec s2 s1 s0 s3 (get w 38) and s3 = dec s3 s2 s1 s0 (get w 39) in
  if key.rounds = 10 then dec_final w 10 s0 s1 s2 s3 dst doff
  else begin
    let s0 = dec s0 s3 s2 s1 (get w 40) and s1 = dec s1 s0 s3 s2 (get w 41)
    and s2 = dec s2 s1 s0 s3 (get w 42) and s3 = dec s3 s2 s1 s0 (get w 43) in
    let s0 = dec s0 s3 s2 s1 (get w 44) and s1 = dec s1 s0 s3 s2 (get w 45)
    and s2 = dec s2 s1 s0 s3 (get w 46) and s3 = dec s3 s2 s1 s0 (get w 47) in
    let s0 = dec s0 s3 s2 s1 (get w 48) and s1 = dec s1 s0 s3 s2 (get w 49)
    and s2 = dec s2 s1 s0 s3 (get w 50) and s3 = dec s3 s2 s1 s0 (get w 51) in
    let s0 = dec s0 s3 s2 s1 (get w 52) and s1 = dec s1 s0 s3 s2 (get w 53)
    and s2 = dec s2 s1 s0 s3 (get w 54) and s3 = dec s3 s2 s1 s0 (get w 55) in
    dec_final w 14 s0 s1 s2 s3 dst doff
  end

let decrypt_block_into key src soff dst doff =
  let w = key.dec in
  decrypt_core key
    (get_word src soff lxor get w 0)
    (get_word src (soff + 4) lxor get w 1)
    (get_word src (soff + 8) lxor get w 2)
    (get_word src (soff + 12) lxor get w 3)
    dst doff

let decrypt_str_into key src soff dst doff =
  let w = key.dec in
  decrypt_core key
    (get_word_str src soff lxor get w 0)
    (get_word_str src (soff + 4) lxor get w 1)
    (get_word_str src (soff + 8) lxor get w 2)
    (get_word_str src (soff + 12) lxor get w 3)
    dst doff

let one_block name into key s =
  if String.length s <> 16 then invalid_arg (name ^ ": need 16 bytes");
  let dst = Bytes.create 16 in
  into key s 0 dst 0;
  Bytes.unsafe_to_string dst

module Reference = struct
  let encrypt_block_into = encrypt_block_into
  let decrypt_block_into = decrypt_block_into
  let encrypt_str_into = encrypt_str_into
  let decrypt_str_into = decrypt_str_into
  let encrypt_block = one_block "Aes.encrypt_block" encrypt_str_into
  let decrypt_block = one_block "Aes.decrypt_block" decrypt_str_into
end

(* -- AES-NI path ---------------------------------------------------- *)

external hw_encrypt :
  string -> string -> (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> unit
  = "ironsafe_aes_encrypt_block_byte" "ironsafe_aes_encrypt_block"
[@@noalloc]

external hw_decrypt :
  string -> string -> (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> unit
  = "ironsafe_aes_decrypt_block_byte" "ironsafe_aes_decrypt_block"
[@@noalloc]

(* the kernels read and write 16 bytes unchecked *)
let[@inline] check_block name len off =
  if off < 0 || off > len - 16 then invalid_arg (name ^ ": block out of bounds")

let encrypt_str_into key src soff dst doff =
  if Accel.aes then begin
    check_block "Aes.encrypt_block_into" (String.length src) soff;
    check_block "Aes.encrypt_block_into" (Bytes.length dst) doff;
    hw_encrypt key.bytes src soff dst doff
  end
  else Reference.encrypt_str_into key src soff dst doff

let decrypt_str_into key src soff dst doff =
  if Accel.aes then begin
    check_block "Aes.decrypt_block_into" (String.length src) soff;
    check_block "Aes.decrypt_block_into" (Bytes.length dst) doff;
    hw_decrypt key.bytes src soff dst doff
  end
  else Reference.decrypt_str_into key src soff dst doff

(* the kernels load the whole block before storing, so in place is safe *)
let encrypt_block_into key src soff dst doff =
  encrypt_str_into key (Bytes.unsafe_to_string src) soff dst doff

let decrypt_block_into key src soff dst doff =
  decrypt_str_into key (Bytes.unsafe_to_string src) soff dst doff

let encrypt_block = one_block "Aes.encrypt_block" encrypt_str_into
let decrypt_block = one_block "Aes.decrypt_block" decrypt_str_into
