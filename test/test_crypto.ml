(* Crypto substrate tests: published known-answer vectors for every
   primitive plus property-based roundtrips. *)

open Ironsafe_crypto

let check_hex msg expected actual = Alcotest.(check string) msg expected (Hex.of_string actual)

(* -- SHA-256 (FIPS 180-4 / NIST examples) --------------------------- *)

let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest "abc");
  check_hex "two-block"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million-a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest (String.make 1_000_000 'a'))

let test_sha256_streaming () =
  (* absorbing in odd-sized chunks must match one-shot *)
  let msg = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  let rec feed off =
    if off < String.length msg then begin
      let len = min 37 (String.length msg - off) in
      Sha256.update ctx (String.sub msg off len);
      feed (off + len)
    end
  in
  feed 0;
  Alcotest.(check string) "chunked = one-shot" (Sha256.digest msg) (Sha256.finalize ctx)

let test_sha256_digest_list () =
  Alcotest.(check string)
    "digest_list concatenates"
    (Sha256.digest "hello world")
    (Sha256.digest_list [ "hel"; "lo "; "world" ])

(* -- HMAC-SHA256 (RFC 4231) ----------------------------------------- *)

let test_hmac_vectors () =
  check_hex "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac ~key:(String.make 20 '\x0b') "Hi There");
  check_hex "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac ~key:"Jefe" "what do ya want for nothing?");
  check_hex "rfc4231 case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'));
  (* case 6: key longer than one block gets hashed first *)
  check_hex "rfc4231 case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_verify () =
  let key = "secret" and msg = "message" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "valid tag" true (Hmac.verify ~key ~mac:tag msg);
  Alcotest.(check bool) "wrong msg" false (Hmac.verify ~key ~mac:tag "other");
  let bad = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) tag in
  Alcotest.(check bool) "flipped tag" false (Hmac.verify ~key ~mac:bad msg)

(* The precomputed-midstate fast path must be indistinguishable from
   the one-shot HMAC on the same RFC 4231 vectors, reusable across
   messages, and [mac_pre_list] must behave as concatenation. *)
let test_hmac_prekey () =
  let cases =
    [
      (String.make 20 '\x0b', "Hi There");
      ("Jefe", "what do ya want for nothing?");
      (String.make 20 '\xaa', String.make 50 '\xdd');
      ( String.make 131 '\xaa',
        "Test Using Larger Than Block-Size Key - Hash Key First" );
    ]
  in
  List.iter
    (fun (key, msg) ->
      let pk = Hmac.precompute ~key in
      let expected = Hmac.mac ~key msg in
      Alcotest.(check string) "mac_pre = mac" (Hex.of_string expected)
        (Hex.of_string (Hmac.mac_pre pk msg));
      Alcotest.(check bool) "verify_pre accepts" true
        (Hmac.verify_pre pk ~mac:expected msg);
      let bad =
        String.mapi
          (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c)
          expected
      in
      Alcotest.(check bool) "verify_pre rejects" false
        (Hmac.verify_pre pk ~mac:bad msg))
    cases;
  (* one key schedule, many messages *)
  let pk = Hmac.precompute ~key:"reused-schedule" in
  for i = 0 to 9 do
    let msg = Printf.sprintf "message %d" i in
    Alcotest.(check string) "prekey reusable"
      (Hmac.mac ~key:"reused-schedule" msg)
      (Hmac.mac_pre pk msg)
  done;
  Alcotest.(check string) "mac_pre_list concatenates"
    (Hmac.mac ~key:"k" "abcdef")
    (Hmac.mac_pre_list (Hmac.precompute ~key:"k") [ "ab"; ""; "cd"; "ef" ])

(* [Sha256.copy] underpins the HMAC prekey: feeding the clone must not
   disturb the original mid-stream context, even across block
   boundaries. *)
let test_sha256_copy_independent () =
  let prefix = String.make 100 'p' in
  let ctx = Sha256.init () in
  Sha256.update ctx prefix;
  let snap = Sha256.copy ctx in
  Sha256.update ctx "left fork";
  Sha256.update snap "right fork";
  Alcotest.(check string) "original unaffected"
    (Sha256.digest (prefix ^ "left fork"))
    (Sha256.finalize ctx);
  Alcotest.(check string) "copy diverges independently"
    (Sha256.digest (prefix ^ "right fork"))
    (Sha256.finalize snap)

(* -- HKDF (RFC 5869) ------------------------------------------------- *)

let test_hkdf_vectors () =
  let ikm = Hex.to_string "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b" in
  let salt = Hex.to_string "000102030405060708090a0b0c" in
  let info = Hex.to_string "f0f1f2f3f4f5f6f7f8f9" in
  let prk = Hkdf.extract ~salt ikm in
  check_hex "rfc5869 prk"
    "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5" prk;
  check_hex "rfc5869 okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (Hkdf.expand ~prk ~info 42);
  (* case 3: empty salt and info *)
  let prk3 = Hkdf.extract (Hex.to_string "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b") in
  check_hex "rfc5869 case3 okm"
    "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
    (Hkdf.expand ~prk:prk3 42)

let test_hkdf_errors () =
  Alcotest.check_raises "oversized expand"
    (Invalid_argument "Hkdf.expand: len too large") (fun () ->
      ignore (Hkdf.expand ~prk:(String.make 32 'k') (256 * 32)))

(* -- AES-128 (FIPS 197) ---------------------------------------------- *)

let test_aes_fips () =
  let key = Aes.expand_key (Hex.to_string "000102030405060708090a0b0c0d0e0f") in
  let plain = Hex.to_string "00112233445566778899aabbccddeeff" in
  let cipher = Aes.encrypt_block key plain in
  check_hex "fips-197 C.1 encrypt" "69c4e0d86a7b0430d8cdb78070b4c55a" cipher;
  Alcotest.(check string) "decrypt inverts" plain (Aes.decrypt_block key cipher)

let test_aes_sp800_38a () =
  (* SP 800-38A F.1.1 ECB-AES128 block 1 *)
  let key = Aes.expand_key (Hex.to_string "2b7e151628aed2a6abf7158809cf4f3c") in
  check_hex "sp800-38a ecb block1" "3ad77bb40d7a3660a89ecaf32466ef97"
    (Aes.encrypt_block key (Hex.to_string "6bc1bee22e409f96e93d7e117393172a"))

let test_aes256_fips () =
  (* FIPS-197 C.3 *)
  let key =
    Aes.expand_key
      (Hex.to_string
         "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
  in
  let plain = Hex.to_string "00112233445566778899aabbccddeeff" in
  let cipher = Aes.encrypt_block key plain in
  check_hex "fips-197 C.3 encrypt" "8ea2b7ca516745bfeafc49904b496089" cipher;
  Alcotest.(check string) "decrypt inverts" plain (Aes.decrypt_block key cipher);
  (* SP 800-38A F.1.5 ECB-AES256 block 1 *)
  let key2 =
    Aes.expand_key
      (Hex.to_string
         "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
  in
  check_hex "sp800-38a ecb256 block1" "f3eed1bdb5d2a03c064b5a7e3db181f8"
    (Aes.encrypt_block key2 (Hex.to_string "6bc1bee22e409f96e93d7e117393172a"))

let test_aes_errors () =
  Alcotest.check_raises "short key"
    (Invalid_argument "Aes.expand_key: need 16 or 32 bytes") (fun () ->
      ignore (Aes.expand_key "short"));
  let key = Aes.expand_key (String.make 16 'k') in
  Alcotest.check_raises "short block"
    (Invalid_argument "Aes.encrypt_block: need 16 bytes") (fun () ->
      ignore (Aes.encrypt_block key "short"))

(* -- Modes ------------------------------------------------------------ *)

let test_cbc_sp800_38a () =
  (* SP 800-38A F.2.1 CBC-AES128, first block (our CBC adds PKCS#7, so
     compare the first 16 bytes of a 16-byte message's ciphertext) *)
  let key = Aes.expand_key (Hex.to_string "2b7e151628aed2a6abf7158809cf4f3c") in
  let iv = Hex.to_string "000102030405060708090a0b0c0d0e0f" in
  let ct = Modes.cbc_encrypt ~key ~iv (Hex.to_string "6bc1bee22e409f96e93d7e117393172a") in
  Alcotest.(check string) "first block" "7649abac8119b246cee98e9b12e9197d"
    (Hex.of_string (String.sub ct 0 16))

let test_cbc_roundtrip_lengths () =
  let key = Aes.expand_key (String.make 16 'k') in
  let iv = String.make 16 'i' in
  List.iter
    (fun len ->
      let msg = String.init len (fun i -> Char.chr (i mod 256)) in
      let ct = Modes.cbc_encrypt ~key ~iv msg in
      Alcotest.(check int) "padded length" ((len / 16 * 16) + 16) (String.length ct);
      match Modes.cbc_decrypt ~key ~iv ct with
      | Ok pt -> Alcotest.(check string) (Printf.sprintf "len %d" len) msg pt
      | Error e -> Alcotest.failf "decrypt failed: %s" e)
    [ 0; 1; 15; 16; 17; 31; 32; 100; 4000 ]

let test_cbc_rejects_garbage () =
  let key = Aes.expand_key (String.make 16 'k') in
  let iv = String.make 16 'i' in
  (match Modes.cbc_decrypt ~key ~iv "not-a-multiple-of-16" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unaligned ciphertext");
  (* random block: padding check should almost surely fail, and if it
     "succeeds" the plaintext differs — either way no silent pass *)
  let ct = Modes.cbc_encrypt ~key ~iv "hello" in
  let tampered =
    String.mapi (fun i c -> if i = 2 then Char.chr (Char.code c lxor 0xff) else c) ct
  in
  match Modes.cbc_decrypt ~key ~iv tampered with
  | Ok pt -> Alcotest.(check bool) "tamper changes plaintext" true (pt <> "hello")
  | Error _ -> ()

let test_pkcs7 () =
  Alcotest.(check int) "pad to 16" 16 (String.length (Modes.pkcs7_pad ""));
  Alcotest.(check int) "pad 16 adds block" 32
    (String.length (Modes.pkcs7_pad (String.make 16 'x')));
  (match Modes.pkcs7_unpad (Modes.pkcs7_pad "abc") with
  | Ok s -> Alcotest.(check string) "unpad inverts" "abc" s
  | Error e -> Alcotest.fail e);
  match Modes.pkcs7_unpad (String.make 16 '\x00') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted zero padding"

let test_ctr () =
  let key = Aes.expand_key (String.make 16 'k') in
  let nonce = String.make 16 'n' in
  let msg = "counter mode is an involution over any length!" in
  let ct = Modes.ctr_transform ~key ~nonce msg in
  Alcotest.(check int) "length preserved" (String.length msg) (String.length ct);
  Alcotest.(check bool) "ciphertext differs" true (ct <> msg);
  Alcotest.(check string) "involution" msg (Modes.ctr_transform ~key ~nonce ct);
  (* SP 800-38A F.5.1 CTR-AES128 block 1 *)
  let key = Aes.expand_key (Hex.to_string "2b7e151628aed2a6abf7158809cf4f3c") in
  let nonce = Hex.to_string "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
  Alcotest.(check string) "sp800-38a ctr block1"
    "874d6191b620e3261bef6864990db6ce"
    (Hex.of_string
       (Modes.ctr_transform ~key ~nonce (Hex.to_string "6bc1bee22e409f96e93d7e117393172a")))

(* SP 800-38A F.5.1 CTR-AES128.Encrypt: the complete four-block known
   answer, one shot and then block by block through [block_offset] (the
   lane-chunk entry point must land every block on the same counter the
   one-shot walk reaches). *)
let test_ctr_sp800_38a_full () =
  let key = Aes.expand_key (Hex.to_string "2b7e151628aed2a6abf7158809cf4f3c") in
  let nonce = Hex.to_string "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
  let plain_blocks =
    [
      "6bc1bee22e409f96e93d7e117393172a";
      "ae2d8a571e03ac9c9eb76fac45af8e51";
      "30c81c46a35ce411e5fbc1191a0a52ef";
      "f69f2445df4f9b17ad2b417be66c3710";
    ]
  in
  let cipher_blocks =
    [
      "874d6191b620e3261bef6864990db6ce";
      "9806f66b7970fdff8617187bb9fffdff";
      "5ae4df3edbd5d35e5b4f09020db03eab";
      "1e031dda2fbe03d1792170a0f3009cee";
    ]
  in
  let plain = String.concat "" (List.map Hex.to_string plain_blocks) in
  check_hex "four blocks one shot"
    (String.concat "" cipher_blocks)
    (Modes.ctr_transform ~key ~nonce plain);
  List.iteri
    (fun i (p, c) ->
      let dst = Bytes.create 16 in
      Modes.ctr_transform_into ~key ~nonce ~block_offset:i (Hex.to_string p) 0
        dst 0 16;
      check_hex (Printf.sprintf "block %d via offset" i) c (Bytes.to_string dst))
    (List.combine plain_blocks cipher_blocks)

let test_ctr_counter_overflow () =
  (* an all-FF counter must wrap to all-00 on the next block; feeding a
     zero plaintext exposes the raw keystream for comparison *)
  let key = Aes.expand_key (String.make 16 'k') in
  let nonce = String.make 16 '\xff' in
  let ks = Modes.ctr_transform ~key ~nonce (String.make 32 '\x00') in
  Alcotest.(check string) "block 1 = E(FF..FF)"
    (Hex.of_string (Aes.encrypt_block key nonce))
    (Hex.of_string (String.sub ks 0 16));
  Alcotest.(check string) "block 2 wraps to E(00..00)"
    (Hex.of_string (Aes.encrypt_block key (String.make 16 '\x00')))
    (Hex.of_string (String.sub ks 16 16));
  (* [block_offset] over the wrap lands on the same counters *)
  let dst = Bytes.create 16 in
  Modes.ctr_transform_into ~key ~nonce ~block_offset:1 (String.make 16 '\x00')
    0 dst 0 16;
  Alcotest.(check string) "offset crosses the wrap"
    (Hex.of_string (String.sub ks 16 16))
    (Hex.of_string (Bytes.to_string dst))

let test_ctr_into_validates () =
  let key = Aes.expand_key (String.make 16 'k') in
  let nonce = String.make 16 'n' in
  Alcotest.check_raises "short nonce"
    (Invalid_argument "Modes.ctr_transform_into: nonce must be 16 bytes")
    (fun () ->
      ignore (Modes.ctr_transform_into ~key ~nonce:"short" "x" 0 (Bytes.create 1) 0 1));
  Alcotest.check_raises "source range"
    (Invalid_argument "Modes.ctr_transform_into: source range out of bounds")
    (fun () ->
      ignore (Modes.ctr_transform_into ~key ~nonce "x" 0 (Bytes.create 4) 0 2));
  Alcotest.check_raises "destination range"
    (Invalid_argument "Modes.ctr_transform_into: destination range out of bounds")
    (fun () ->
      ignore (Modes.ctr_transform_into ~key ~nonce "xy" 0 (Bytes.create 1) 0 2))

(* -- DRBG ------------------------------------------------------------- *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"seed" and b = Drbg.create ~seed:"seed" in
  Alcotest.(check string) "same seed same stream" (Drbg.generate a 64) (Drbg.generate b 64);
  let c = Drbg.create ~seed:"other" in
  Alcotest.(check bool) "different seed differs" true
    (Drbg.generate (Drbg.create ~seed:"seed") 64 <> Drbg.generate c 64)

let test_drbg_reseed () =
  let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
  ignore (Drbg.generate a 16);
  ignore (Drbg.generate b 16);
  Drbg.reseed a "extra";
  Alcotest.(check bool) "reseed diverges" true (Drbg.generate a 16 <> Drbg.generate b 16)

let test_drbg_uniform () =
  let d = Drbg.create ~seed:"uniform" in
  for _ = 1 to 1000 do
    let v = Drbg.uniform d 7 in
    if v < 0 || v >= 7 then Alcotest.failf "uniform out of range: %d" v
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Drbg.uniform: bound must be positive")
    (fun () -> ignore (Drbg.uniform d 0))

(* -- Constant time ----------------------------------------------------- *)

let test_constant_time () =
  Alcotest.(check bool) "equal" true (Constant_time.equal "abc" "abc");
  Alcotest.(check bool) "not equal" false (Constant_time.equal "abc" "abd");
  Alcotest.(check bool) "length mismatch" false (Constant_time.equal "ab" "abc");
  Alcotest.(check bool) "empty" true (Constant_time.equal "" "")

(* -- Hex --------------------------------------------------------------- *)

let test_hex () =
  Alcotest.(check string) "encode" "00ff10" (Hex.of_string "\x00\xff\x10");
  Alcotest.(check string) "decode" "\x00\xff\x10" (Hex.to_string "00ff10");
  Alcotest.(check string) "uppercase ok" "\xab" (Hex.to_string "AB");
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.to_string: odd length")
    (fun () -> ignore (Hex.to_string "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.to_string: not a hex digit")
    (fun () -> ignore (Hex.to_string "zz"))

(* -- Merkle tree -------------------------------------------------------- *)

let mk_tree ?(leaves = 8) () = Merkle.create ~key:"merkle-key" ~leaves

let test_merkle_basics () =
  let t = mk_tree () in
  Alcotest.(check int) "leaf count" 8 (Merkle.leaf_count t);
  Alcotest.(check int) "depth" 3 (Merkle.depth t);
  let r0 = Merkle.root t in
  Merkle.update t 3 "page data";
  Alcotest.(check bool) "root changed" true (Merkle.root t <> r0);
  let r1 = Merkle.root t in
  Merkle.update t 3 "page data";
  Alcotest.(check string) "idempotent update" r1 (Merkle.root t)

let test_merkle_non_pow2 () =
  let t = Merkle.create ~key:"k" ~leaves:5 in
  Alcotest.(check int) "leaves" 5 (Merkle.leaf_count t);
  Merkle.update t 4 "x";
  Alcotest.check_raises "out of range" (Invalid_argument "Merkle: leaf index out of range")
    (fun () -> Merkle.update t 5 "y")

let test_merkle_proofs () =
  let t = mk_tree () in
  for i = 0 to 7 do
    Merkle.update t i (Printf.sprintf "page-%d" i)
  done;
  let root = Merkle.root t in
  for i = 0 to 7 do
    let proof = Merkle.prove t i in
    let tag = Merkle.leaf_tag_of_data t (Printf.sprintf "page-%d" i) in
    let ok, hashes = Merkle.verify ~key:"merkle-key" ~root ~leaf_tag:tag proof in
    Alcotest.(check bool) (Printf.sprintf "proof %d verifies" i) true ok;
    Alcotest.(check int) "path length = depth" 3 hashes
  done;
  (* wrong data fails *)
  let proof = Merkle.prove t 2 in
  let bad_tag = Merkle.leaf_tag_of_data t "tampered" in
  let ok, _ = Merkle.verify ~key:"merkle-key" ~root ~leaf_tag:bad_tag proof in
  Alcotest.(check bool) "tampered leaf rejected" false ok;
  (* proof for one index does not verify another *)
  let tag3 = Merkle.leaf_tag_of_data t "page-3" in
  let ok, _ = Merkle.verify ~key:"merkle-key" ~root ~leaf_tag:tag3 proof in
  Alcotest.(check bool) "displaced leaf rejected" false ok

let test_merkle_wrong_key () =
  let t = mk_tree () in
  Merkle.update t 0 "data";
  let proof = Merkle.prove t 0 in
  let tag = Merkle.leaf_tag_of_data t "data" in
  let ok, _ = Merkle.verify ~key:"other-key" ~root:(Merkle.root t) ~leaf_tag:tag proof in
  Alcotest.(check bool) "wrong key rejected" false ok

let test_merkle_hash_ops () =
  let t = mk_tree () in
  Merkle.reset_hash_ops t;
  Merkle.update t 0 "x";
  (* leaf tag + 3 internal + root-path... update recomputes depth+1 nodes *)
  Alcotest.(check bool) "ops counted" true (Merkle.hash_ops t > 0)

(* -- Lamport ------------------------------------------------------------ *)

let test_lamport () =
  let d = Drbg.create ~seed:"lamport" in
  let sk, pk = Lamport.generate d in
  let msg = "boot stage measurement" in
  let signature = Lamport.sign sk msg in
  Alcotest.(check bool) "verifies" true (Lamport.verify pk msg signature);
  Alcotest.(check bool) "wrong message" false (Lamport.verify pk "other" signature);
  let forged = Array.copy signature in
  forged.(10) <- String.make 32 '\x00';
  Alcotest.(check bool) "forged preimage" false (Lamport.verify pk msg forged);
  let _, pk2 = Lamport.generate d in
  Alcotest.(check bool) "wrong key" false (Lamport.verify pk2 msg signature);
  Alcotest.(check bool) "fingerprints differ" true
    (Lamport.public_key_fingerprint pk <> Lamport.public_key_fingerprint pk2)

(* -- Signature ----------------------------------------------------------- *)

let test_signature () =
  let d = Drbg.create ~seed:"sig" in
  let sk, pk = Signature.generate d in
  let s = Signature.sign sk "hello" in
  Alcotest.(check int) "signature size" Signature.signature_size (String.length s);
  Alcotest.(check bool) "verifies" true (Signature.verify pk "hello" s);
  Alcotest.(check bool) "wrong msg" false (Signature.verify pk "bye" s);
  let sk2, pk2 = Signature.generate d in
  Alcotest.(check bool) "cross-key fails" false (Signature.verify pk2 "hello" s);
  Alcotest.(check bool) "other key signs" true
    (Signature.verify pk2 "x" (Signature.sign sk2 "x"));
  (* serialization roundtrip *)
  let pk' = Signature.public_key_of_bytes (Signature.public_key_bytes pk) in
  Alcotest.(check bool) "roundtripped key verifies" true (Signature.verify pk' "hello" s)

(* -- Property-based -------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"hex roundtrip" ~count:200 (string_of_size Gen.(0 -- 64))
      (fun s -> Hex.to_string (Hex.of_string s) = s);
    Test.make ~name:"cbc roundtrip" ~count:100 (string_of_size Gen.(0 -- 200))
      (fun s ->
        let key = Aes.expand_key (String.make 16 'k') in
        let iv = String.make 16 'v' in
        Modes.cbc_decrypt ~key ~iv (Modes.cbc_encrypt ~key ~iv s) = Ok s);
    Test.make ~name:"ctr involution" ~count:100 (string_of_size Gen.(0 -- 200))
      (fun s ->
        let key = Aes.expand_key (String.make 16 'q') in
        let nonce = String.make 16 'n' in
        Modes.ctr_transform ~key ~nonce (Modes.ctr_transform ~key ~nonce s) = s);
    Test.make ~name:"ctr_transform_into split at any block = one-shot"
      ~count:100
      (pair (string_of_size Gen.(0 -- 300)) small_nat)
      (fun (s, cut_blocks) ->
        let key = Aes.expand_key (String.make 16 'q') in
        let nonce = String.make 16 'n' in
        let n = String.length s in
        let cut = min n (cut_blocks * 16) in
        let dst = Bytes.create n in
        Modes.ctr_transform_into ~key ~nonce s 0 dst 0 cut;
        Modes.ctr_transform_into ~key ~nonce ~block_offset:(cut / 16) s cut dst
          cut (n - cut);
        Bytes.to_string dst = Modes.ctr_transform ~key ~nonce s);
    Test.make ~name:"aes block roundtrip" ~count:100
      (string_of_size (Gen.return 16)) (fun s ->
        let key = Aes.expand_key (String.make 16 'z') in
        Aes.decrypt_block key (Aes.encrypt_block key s) = s);
    Test.make ~name:"hmac verify accepts own macs" ~count:100
      (pair small_string small_string) (fun (key, msg) ->
        Hmac.verify ~key ~mac:(Hmac.mac ~key msg) msg);
    Test.make ~name:"merkle proof verifies after arbitrary updates" ~count:50
      (list_of_size Gen.(1 -- 20) (pair (int_bound 15) small_string))
      (fun updates ->
        let t = Merkle.create ~key:"prop" ~leaves:16 in
        List.iter (fun (i, data) -> Merkle.update t i data) updates;
        let root = Merkle.root t in
        List.for_all
          (fun (i, _) ->
            let proof = Merkle.prove t i in
            fst (Merkle.verify ~key:"prop" ~root ~leaf_tag:(Merkle.leaf t i) proof))
          updates);
    Test.make ~name:"constant_time.equal = String.equal" ~count:200
      (pair small_string small_string) (fun (a, b) ->
        Constant_time.equal a b = String.equal a b);
  ]

let suite =
  [
    ("sha256 vectors", `Quick, test_sha256_vectors);
    ("sha256 streaming", `Quick, test_sha256_streaming);
    ("sha256 digest_list", `Quick, test_sha256_digest_list);
    ("hmac vectors", `Quick, test_hmac_vectors);
    ("hmac verify", `Quick, test_hmac_verify);
    ("hmac prekey fast path", `Quick, test_hmac_prekey);
    ("sha256 copy independence", `Quick, test_sha256_copy_independent);
    ("hkdf vectors", `Quick, test_hkdf_vectors);
    ("hkdf errors", `Quick, test_hkdf_errors);
    ("aes fips-197", `Quick, test_aes_fips);
    ("aes sp800-38a", `Quick, test_aes_sp800_38a);
    ("aes-256 fips/sp800-38a", `Quick, test_aes256_fips);
    ("aes errors", `Quick, test_aes_errors);
    ("cbc sp800-38a", `Quick, test_cbc_sp800_38a);
    ("cbc roundtrip lengths", `Quick, test_cbc_roundtrip_lengths);
    ("cbc rejects garbage", `Quick, test_cbc_rejects_garbage);
    ("pkcs7", `Quick, test_pkcs7);
    ("ctr", `Quick, test_ctr);
    ("ctr sp800-38a full", `Quick, test_ctr_sp800_38a_full);
    ("ctr counter overflow", `Quick, test_ctr_counter_overflow);
    ("ctr_transform_into validation", `Quick, test_ctr_into_validates);
    ("drbg deterministic", `Quick, test_drbg_deterministic);
    ("drbg reseed", `Quick, test_drbg_reseed);
    ("drbg uniform", `Quick, test_drbg_uniform);
    ("constant time", `Quick, test_constant_time);
    ("hex", `Quick, test_hex);
    ("merkle basics", `Quick, test_merkle_basics);
    ("merkle non-pow2", `Quick, test_merkle_non_pow2);
    ("merkle proofs", `Quick, test_merkle_proofs);
    ("merkle wrong key", `Quick, test_merkle_wrong_key);
    ("merkle hash ops", `Quick, test_merkle_hash_ops);
    ("lamport", `Quick, test_lamport);
    ("signature", `Quick, test_signature);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
