(* Crypto substrate tests: published known-answer vectors for every
   primitive plus property-based roundtrips.

   AES, its modes, SHA-256 and HMAC have two paths: the CPU's AES-NI
   and SHA-NI instructions where {!Accel} found them, and the OCaml code
   (each module's hidden [Reference]), which is the fallback and the
   reference. The known-answer tests run through both; the properties
   at the end check that the two agree byte for byte. *)

open Ironsafe_crypto

let check_hex msg expected actual = Alcotest.(check string) msg expected (Hex.of_string actual)

(* the 16-byte CTR counter [nonce] advanced by [k] blocks, big-endian,
   wrapping mod 2^128 *)
let counter_plus nonce k =
  let ctr = Bytes.of_string nonce in
  let carry = ref k in
  for i = 15 downto 0 do
    let v = Char.code (Bytes.get ctr i) + (!carry land 0xff) in
    Bytes.set ctr i (Char.chr (v land 0xff));
    carry := (!carry lsr 8) + (v lsr 8)
  done;
  Bytes.to_string ctr

module type PATH = sig
  val encrypt_block : Aes.key -> string -> string
  val decrypt_block : Aes.key -> string -> string
  val cbc_encrypt : key:Aes.key -> iv:string -> string -> string
  val cbc_decrypt : key:Aes.key -> iv:string -> string -> (string, string) result

  val ctr_transform_into :
    key:Aes.key ->
    nonce:string ->
    string ->
    int ->
    Bytes.t ->
    int ->
    int ->
    unit

  val ctr_transform : key:Aes.key -> nonce:string -> string -> string
  val digest : string -> string
  val update_sub : Sha256.ctx -> string -> int -> int -> unit
  val finalize : Sha256.ctx -> string
  val mac : key:string -> string -> string
  val mac_pre : Hmac.prekey -> string -> string
  val feed_sub : Hmac.ctx -> string -> int -> int -> unit
  val finish : Hmac.ctx -> string
end

module Dispatched : PATH = struct
  let encrypt_block = Aes.encrypt_block
  let decrypt_block = Aes.decrypt_block
  let cbc_encrypt = Modes.cbc_encrypt
  let cbc_decrypt = Modes.cbc_decrypt
  let ctr_transform_into = Modes.ctr_transform_into
  let ctr_transform = Modes.ctr_transform
  let digest = Sha256.digest
  let update_sub = Sha256.update_sub
  let finalize = Sha256.finalize
  let mac = Hmac.mac
  let mac_pre = Hmac.mac_pre
  let feed_sub = Hmac.feed_sub
  let finish = Hmac.finish
end

module Reference : PATH = struct
  let encrypt_block = Aes.Reference.encrypt_block
  let decrypt_block = Aes.Reference.decrypt_block
  let cbc_encrypt = Modes.Reference.cbc_encrypt
  let cbc_decrypt = Modes.Reference.cbc_decrypt
  let ctr_transform_into = Modes.Reference.ctr_transform_into
  let ctr_transform = Modes.Reference.ctr_transform
  let digest = Sha256.Reference.digest
  let update_sub = Sha256.Reference.update_sub
  let finalize = Sha256.Reference.finalize
  let mac = Hmac.Reference.mac
  let mac_pre = Hmac.Reference.mac_pre
  let feed_sub = Hmac.Reference.feed_sub
  let finish = Hmac.Reference.finish
end

(* [f label path] once per path; [label] prefixes every check message,
   so a failure names the path it came from *)
let both_paths f =
  List.iter
    (fun (label, p) -> f label p)
    [ ("dispatched", (module Dispatched : PATH));
      ("reference", (module Reference : PATH)) ]

(* -- SHA-256 (FIPS 180-4 / NIST examples) --------------------------- *)

let test_sha256_vectors () =
  both_paths @@ fun path (module P : PATH) ->
  let check_hex msg = check_hex (path ^ ": " ^ msg) in
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (P.digest "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (P.digest "abc");
  check_hex "two-block"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (P.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million-a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (P.digest (String.make 1_000_000 'a'))

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

(* Known answers at every message length 0-130, which crosses the one-
   and two-block padding boundaries (55/56 and 119/120 bytes) and the
   block size. The golden file was generated by python3 hashlib/hmac.
   Each length is also fed through the sub-range and prekeyed entry
   points, from the middle of a larger buffer, on both paths. *)
let test_sha256_hmac_kat () =
  let path =
    List.find Sys.file_exists
      [ "golden/sha256_hmac_kat.golden"; "test/golden/sha256_hmac_kat.golden" ]
  in
  let key = String.init 32 (fun i -> Char.chr (((13 * i) + 5) land 0xff)) in
  let pk = Hmac.precompute ~key in
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check int) "lengths 0-130" 131 (List.length lines);
  both_paths @@ fun path (module P : PATH) ->
  List.iter
    (fun line ->
      Scanf.sscanf line "%d %s %s" (fun n sha mac ->
          let msg = String.init n (fun i -> Char.chr (((31 * i) + 7) land 0xff)) in
          let framed = "pre" ^ msg ^ "post" in
          let l = Printf.sprintf "%s: len %d" path n in
          check_hex (l ^ " sha256") sha (P.digest msg);
          let ctx = Sha256.init () in
          P.update_sub ctx framed 3 n;
          check_hex (l ^ " sha256 update_sub") sha (P.finalize ctx);
          check_hex (l ^ " hmac") mac (P.mac ~key msg);
          check_hex (l ^ " hmac prekeyed") mac (P.mac_pre pk msg);
          let c = Hmac.start pk in
          P.feed_sub c framed 3 n;
          check_hex (l ^ " hmac feed_sub") mac (P.finish c)))
    lines

(* -- HMAC-SHA256 (RFC 4231) ----------------------------------------- *)

let test_hmac_vectors () =
  both_paths @@ fun path (module P : PATH) ->
  let check_hex msg = check_hex (path ^ ": " ^ msg) in
  check_hex "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (P.mac ~key:(String.make 20 '\x0b') "Hi There");
  check_hex "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (P.mac ~key:"Jefe" "what do ya want for nothing?");
  check_hex "rfc4231 case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (P.mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'));
  (* case 6: key longer than one block gets hashed first *)
  check_hex "rfc4231 case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (P.mac ~key:(String.make 131 '\xaa')
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
  both_paths @@ fun path (module P : PATH) ->
  let key = Aes.expand_key (Hex.to_string "000102030405060708090a0b0c0d0e0f") in
  let plain = Hex.to_string "00112233445566778899aabbccddeeff" in
  let cipher = P.encrypt_block key plain in
  check_hex (path ^ ": fips-197 C.1 encrypt") "69c4e0d86a7b0430d8cdb78070b4c55a"
    cipher;
  Alcotest.(check string) (path ^ ": decrypt inverts") plain
    (P.decrypt_block key cipher)

let test_aes_sp800_38a () =
  both_paths @@ fun path (module P : PATH) ->
  (* SP 800-38A F.1.1 ECB-AES128 block 1 *)
  let key = Aes.expand_key (Hex.to_string "2b7e151628aed2a6abf7158809cf4f3c") in
  check_hex (path ^ ": sp800-38a ecb block1") "3ad77bb40d7a3660a89ecaf32466ef97"
    (P.encrypt_block key (Hex.to_string "6bc1bee22e409f96e93d7e117393172a"))

let test_aes256_fips () =
  both_paths @@ fun path (module P : PATH) ->
  let check_hex msg = check_hex (path ^ ": " ^ msg) in
  (* FIPS-197 C.3 *)
  let key =
    Aes.expand_key
      (Hex.to_string
         "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
  in
  let plain = Hex.to_string "00112233445566778899aabbccddeeff" in
  let cipher = P.encrypt_block key plain in
  check_hex "fips-197 C.3 encrypt" "8ea2b7ca516745bfeafc49904b496089" cipher;
  Alcotest.(check string) (path ^ ": decrypt inverts") plain
    (P.decrypt_block key cipher);
  (* SP 800-38A F.1.5 ECB-AES256 block 1 *)
  let key2 =
    Aes.expand_key
      (Hex.to_string
         "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
  in
  check_hex "sp800-38a ecb256 block1" "f3eed1bdb5d2a03c064b5a7e3db181f8"
    (P.encrypt_block key2 (Hex.to_string "6bc1bee22e409f96e93d7e117393172a"))

let test_aes_errors () =
  Alcotest.check_raises "short key"
    (Invalid_argument "Aes.expand_key: need 16 or 32 bytes") (fun () ->
      ignore (Aes.expand_key "short"));
  let key = Aes.expand_key (String.make 16 'k') in
  Alcotest.check_raises "short block"
    (Invalid_argument "Aes.encrypt_block: need 16 bytes") (fun () ->
      ignore (Aes.encrypt_block key "short"))

(* -- Modes ------------------------------------------------------------ *)

(* SP 800-38A's four plaintext blocks, shared by its CBC and CTR
   examples *)
let sp800_38a_plain =
  Hex.to_string
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
     30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"

let sp800_38a_key128 = "2b7e151628aed2a6abf7158809cf4f3c"
let sp800_38a_key256 =
  "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"

let test_cbc_sp800_38a () =
  both_paths @@ fun path (module P : PATH) ->
  let iv = Hex.to_string "000102030405060708090a0b0c0d0e0f" in
  (* F.2.1 CBC-AES128, first block (our CBC adds PKCS#7, so compare the
     first 16 bytes of a 16-byte message's ciphertext) *)
  let key = Aes.expand_key (Hex.to_string sp800_38a_key128) in
  let ct = P.cbc_encrypt ~key ~iv (Hex.to_string "6bc1bee22e409f96e93d7e117393172a") in
  Alcotest.(check string) (path ^ ": first block") "7649abac8119b246cee98e9b12e9197d"
    (Hex.of_string (String.sub ct 0 16));
  (* F.2.1 and F.2.5 (CBC-AES256), all four blocks; the fifth block is
     our padding. Decrypting the whole takes the message back. *)
  List.iter
    (fun (k, expected) ->
      let key = Aes.expand_key (Hex.to_string k) in
      let ct = P.cbc_encrypt ~key ~iv sp800_38a_plain in
      check_hex (path ^ ": four blocks, key " ^ String.sub k 0 6) expected
        (String.sub ct 0 64);
      Alcotest.(check (result string string))
        (path ^ ": decrypts, key " ^ String.sub k 0 6)
        (Ok sp800_38a_plain) (P.cbc_decrypt ~key ~iv ct))
    [
      ( sp800_38a_key128,
        "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2\
         73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7" );
      ( sp800_38a_key256,
        "f58c4c04d6e5f1ba779eabfb5f7bfbd69cfc4e967edb808d679f777bc6702c7d\
         39f23369a9d9bacfa530e26304231461b2eb05e2c39be9fcda6c19078c6a9d1b" );
    ]

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
  both_paths @@ fun path (module P : PATH) ->
  let key = Aes.expand_key (String.make 16 'k') in
  let nonce = String.make 16 'n' in
  let msg = "counter mode is an involution over any length!" in
  let ct = P.ctr_transform ~key ~nonce msg in
  Alcotest.(check int) (path ^ ": length preserved") (String.length msg)
    (String.length ct);
  Alcotest.(check bool) (path ^ ": ciphertext differs") true (ct <> msg);
  Alcotest.(check string) (path ^ ": involution") msg
    (P.ctr_transform ~key ~nonce ct);
  (* SP 800-38A F.5.1 CTR-AES128 block 1 *)
  let key = Aes.expand_key (Hex.to_string sp800_38a_key128) in
  let nonce = Hex.to_string "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
  Alcotest.(check string) (path ^ ": sp800-38a ctr block1")
    "874d6191b620e3261bef6864990db6ce"
    (Hex.of_string
       (P.ctr_transform ~key ~nonce (Hex.to_string "6bc1bee22e409f96e93d7e117393172a")))

(* SP 800-38A F.5.1 CTR-AES128.Encrypt: the complete four-block known
   answer, one shot and then block by block, each block a one-shot call
   from the counter block the standard lists for it (so the one-shot
   walk must carry from ..feff to ..ff00); then F.5.5, CTR-AES256, in
   one shot. *)
let test_ctr_sp800_38a_full () =
  both_paths @@ fun path (module P : PATH) ->
  let check_hex msg = check_hex (path ^ ": " ^ msg) in
  let key = Aes.expand_key (Hex.to_string sp800_38a_key128) in
  let nonce = Hex.to_string "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
  let counter_blocks =
    [
      "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff";
      "f0f1f2f3f4f5f6f7f8f9fafbfcfdff00";
      "f0f1f2f3f4f5f6f7f8f9fafbfcfdff01";
      "f0f1f2f3f4f5f6f7f8f9fafbfcfdff02";
    ]
  in
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
    (P.ctr_transform ~key ~nonce plain);
  List.iteri
    (fun i (ctr, (p, c)) ->
      let dst = Bytes.create 16 in
      P.ctr_transform_into ~key ~nonce:(Hex.to_string ctr) (Hex.to_string p) 0
        dst 0 16;
      check_hex (Printf.sprintf "block %d from its counter" i) c
        (Bytes.to_string dst))
    (List.combine counter_blocks (List.combine plain_blocks cipher_blocks));
  check_hex "aes-256 four blocks one shot"
    "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5\
     2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6"
    (P.ctr_transform
       ~key:(Aes.expand_key (Hex.to_string sp800_38a_key256))
       ~nonce sp800_38a_plain)

let test_ctr_counter_overflow () =
  both_paths @@ fun path (module P : PATH) ->
  let check_str msg = Alcotest.(check string) (path ^ ": " ^ msg) in
  (* an all-FF counter must wrap to all-00 on the next block; feeding a
     zero plaintext exposes the raw keystream for comparison *)
  let key = Aes.expand_key (String.make 16 'k') in
  let nonce = String.make 16 '\xff' in
  let ks = P.ctr_transform ~key ~nonce (String.make 32 '\x00') in
  check_str "block 1 = E(FF..FF)"
    (Hex.of_string (P.encrypt_block key nonce))
    (Hex.of_string (String.sub ks 0 16));
  check_str "block 2 wraps to E(00..00)"
    (Hex.of_string (P.encrypt_block key (String.make 16 '\x00')))
    (Hex.of_string (String.sub ks 16 16));
  (* a carry out of the low 64 bits only: ..00 FF..FF -> ..01 00..00 *)
  let nonce = String.make 7 '\x00' ^ "\x00" ^ String.make 8 '\xff' in
  let next = String.make 7 '\x00' ^ "\x01" ^ String.make 8 '\x00' in
  let ks = P.ctr_transform ~key ~nonce (String.make 32 '\x00') in
  check_str "carry into the high half"
    (Hex.of_string (P.encrypt_block key next))
    (Hex.of_string (String.sub ks 16 16))

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

(* Boot-time [Stale_root] detection rebuilds the tree from the
   device's leaf tags and compares its root with the RPMB anchor. That
   is sound only if the root moves with every single leaf, a rebuilt
   tree has the root of the incrementally updated one, and the root
   depends on the key. *)
let test_merkle_leaf_moves_root () =
  let t = Merkle.create ~key:"merkle-key" ~leaves:5 in
  let tag = Merkle.leaf_tag_of_data t "new page" in
  for i = 0 to 4 do
    let before = Merkle.root t and old = Merkle.leaf t i in
    Merkle.set_leaf t i tag;
    Alcotest.(check bool) (Printf.sprintf "leaf %d moves the root" i) true
      (Merkle.root t <> before);
    Merkle.set_leaf t i old;
    Alcotest.(check string) (Printf.sprintf "leaf %d restored" i) before
      (Merkle.root t)
  done

let test_merkle_wrong_key () =
  let t = mk_tree () and other = Merkle.create ~key:"other-key" ~leaves:8 in
  Merkle.update t 0 "data";
  (* identical leaf tags: only the key of the internal nodes differs *)
  for i = 0 to 7 do
    Merkle.set_leaf other i (Merkle.leaf t i)
  done;
  Alcotest.(check bool) "another key gives another root" true
    (Merkle.root t <> Merkle.root other)

(* The empty tree's root is a fixed value: HMAC-SHA256 under the key of
   the empty-leaf tag, then of each level's concatenated pairs. The hex
   was computed with python3 hmac/hashlib, independently of lib/crypto. *)
let test_merkle_empty_root_stable () =
  check_hex "empty 8-leaf root"
    "03592b95b31e6b3e631419e84bef610c6e74d2fddd9fcb1364d89398b08b958a"
    (Merkle.root (mk_tree ()));
  let t = mk_tree () in
  Merkle.update t 6 "written";
  Merkle.set_leaf t 6 (Merkle.leaf (mk_tree ()) 6);
  Alcotest.(check string) "back to empty, back to the empty root"
    (Merkle.root (mk_tree ())) (Merkle.root t)

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
        let iv = String.make 16 'v' in
        (* AES-128 and AES-256 (the secure store's key size) *)
        List.for_all
          (fun n ->
            let key = Aes.expand_key (String.make n 'k') in
            Modes.cbc_decrypt ~key ~iv (Modes.cbc_encrypt ~key ~iv s) = Ok s)
          [ 16; 32 ]);
    Test.make ~name:"sub-range decrypt, hmac, compare = whole-string"
      ~count:200
      (quad (string_of_size Gen.(0 -- 200)) small_nat small_nat bool)
      (fun (s, pre, post, aes256) ->
        let key = Aes.expand_key (String.make (if aes256 then 32 else 16) 'k') in
        let iv = String.init 16 (fun i -> Char.chr (i * 17)) in
        let frame x = String.make pre '<' ^ x ^ String.make post '>' in
        let ct = Modes.cbc_encrypt ~key ~iv s in
        let pk = Hmac.precompute ~key:"sub-range" in
        let c = Hmac.start pk in
        Hmac.feed_sub c (frame s) pre (String.length s);
        Modes.cbc_decrypt_sub ~key ~iv:(frame iv) ~iv_off:pre (frame ct) pre
          (String.length ct)
        = Modes.cbc_decrypt ~key ~iv ct
        && Hmac.finish c = Hmac.mac_pre pk s
        && List.for_all
             (fun off ->
               let f = frame s and n = String.length s in
               Constant_time.equal_sub s f off
               = (off + n <= String.length f && String.sub f off n = s))
             [ pre; post ]);
    Test.make ~name:"ctr involution" ~count:100 (string_of_size Gen.(0 -- 200))
      (fun s ->
        let key = Aes.expand_key (String.make 16 'q') in
        let nonce = String.make 16 'n' in
        Modes.ctr_transform ~key ~nonce (Modes.ctr_transform ~key ~nonce s) = s);
    (* the second half restarts from the counter the first half ended
       on; the nonce's low bytes sit near 0xffff so the count carries *)
    Test.make ~name:"ctr_transform_into split at any block = one-shot"
      ~count:100
      (pair (string_of_size Gen.(0 -- 300)) small_nat)
      (fun (s, cut_blocks) ->
        let key = Aes.expand_key (String.make 16 'q') in
        let nonce = String.make 14 'n' ^ "\xff\xf8" in
        let n = String.length s in
        let cut = min n (cut_blocks * 16) in
        let dst = Bytes.create n in
        Modes.ctr_transform_into ~key ~nonce s 0 dst 0 cut;
        Modes.ctr_transform_into ~key
          ~nonce:(counter_plus nonce (cut / 16))
          s cut dst cut (n - cut);
        Bytes.to_string dst = Modes.ctr_transform ~key ~nonce s);
    Test.make ~name:"aes block roundtrip" ~count:100
      (string_of_size (Gen.return 16)) (fun s ->
        let key = Aes.expand_key (String.make 16 'z') in
        Aes.decrypt_block key (Aes.encrypt_block key s) = s);
    Test.make ~name:"hmac verify accepts own macs" ~count:100
      (pair small_string small_string) (fun (key, msg) ->
        Hmac.verify ~key ~mac:(Hmac.mac ~key msg) msg);
    Test.make ~name:"merkle rebuilt from leaves = updated tree" ~count:50
      (list_of_size Gen.(1 -- 20) (pair (int_bound 15) small_string))
      (fun updates ->
        let t = Merkle.create ~key:"prop" ~leaves:16 in
        List.iter (fun (i, data) -> Merkle.update t i data) updates;
        (* what [Secure_store.open_existing] does with the device's tags *)
        let rebuilt = Merkle.create ~key:"prop" ~leaves:16 in
        for i = 0 to 15 do
          Merkle.set_leaf rebuilt i (Merkle.leaf t i)
        done;
        Merkle.root rebuilt = Merkle.root t);
    Test.make ~name:"constant_time.equal = String.equal" ~count:200
      (pair small_string small_string) (fun (a, b) ->
        Constant_time.equal a b = String.equal a b);
  ]

(* -- Dispatched = reference -------------------------------------------- *)

(* Random messages of up to ~75 blocks (several of the AES-NI kernels'
   8-block batches, plus a tail), 16- and 32-byte keys, and source and
   destination offsets that are not block-aligned. *)
let gen_aes_case =
  let open QCheck.Gen in
  let* len = oneof [ 0 -- 48; 0 -- 1200 ] in
  let* msg = string_size (return len) in
  let* key = string_size (oneofl [ 16; 32 ]) in
  let* iv = string_size (return 16) in
  let* soff = 0 -- 40 in
  let* doff = 0 -- 40 in
  (* a counter whose low 64 bits wrap inside the message *)
  let* near_wrap = bool in
  return (msg, key, iv, soff, doff, near_wrap)

let print_aes_case (msg, key, _, soff, doff, near_wrap) =
  Printf.sprintf "len=%d key=%d soff=%d doff=%d near_wrap=%b"
    (String.length msg) (String.length key) soff doff near_wrap

let aes_paths_agree (msg, key_bytes, iv, soff, doff, near_wrap) =
  let key = Aes.expand_key key_bytes in
  let n = String.length msg in
  let frame off x = String.make off '<' ^ x ^ String.make 7 '>' in
  (* one block at unaligned offsets, across buffers and in place *)
  let block = String.sub (msg ^ String.make 16 '.') 0 16 in
  let blocks_agree enc_d enc_r =
    let run f =
      let src = Bytes.of_string (frame soff block) in
      let dst = Bytes.make (doff + 16) '#' in
      f key src soff dst doff;
      f key src soff src soff;
      (Bytes.to_string src, Bytes.to_string dst)
    in
    run enc_d = run enc_r
  in
  let blocks_ok =
    Aes.encrypt_block key block = Aes.Reference.encrypt_block key block
    && Aes.decrypt_block key block = Aes.Reference.decrypt_block key block
    && blocks_agree Aes.encrypt_block_into Aes.Reference.encrypt_block_into
    && blocks_agree Aes.decrypt_block_into Aes.Reference.decrypt_block_into
  in
  (* CBC: whole messages, sub-ranges, and a corrupted last block (both
     paths must reject or accept it alike) *)
  let ct = Modes.cbc_encrypt ~key ~iv msg in
  let cbc_ok =
    ct = Modes.Reference.cbc_encrypt ~key ~iv msg
    && Modes.cbc_decrypt_sub ~key ~iv:(frame doff iv) ~iv_off:doff
         (frame soff ct) soff (String.length ct)
       = Modes.Reference.cbc_decrypt_sub ~key ~iv:(frame doff iv) ~iv_off:doff
           (frame soff ct) soff (String.length ct)
    &&
    let bad =
      String.mapi
        (fun i c ->
          if i = String.length ct - 1 - (soff mod 16) then
            Char.chr (Char.code c lxor (1 + doff))
          else c)
        ct
    in
    Modes.cbc_decrypt ~key ~iv bad = Modes.Reference.cbc_decrypt ~key ~iv bad
  in
  (* CTR between unaligned offsets and in place; near the wrap, the low
     64 counter bits run out within the first four blocks *)
  let nonce =
    if near_wrap then
      String.sub iv 0 8 ^ String.make 7 '\xff'
      ^ String.make 1 (Char.chr (0xff - (Char.code iv.[15] land 3)))
    else iv
  in
  let ctr_run into =
    let src = frame soff msg in
    let dst = Bytes.make (doff + n + 3) '#' in
    into ~key ~nonce src soff dst doff n;
    let inplace = Bytes.of_string src in
    into ~key ~nonce (Bytes.unsafe_to_string inplace) soff inplace soff n;
    (Bytes.to_string dst, Bytes.to_string inplace)
  in
  let ctr_ok =
    ctr_run Modes.ctr_transform_into = ctr_run Modes.Reference.ctr_transform_into
    && Modes.ctr_transform ~key ~nonce msg
       = Modes.Reference.ctr_transform ~key ~nonce msg
  in
  blocks_ok && cbc_ok && ctr_ok

(* Random messages fed in random pieces from an unaligned offset; HMAC
   keys from empty to longer than a block. *)
let gen_sha_case =
  let open QCheck.Gen in
  let* msg = string_size (oneof [ 0 -- 130; 0 -- 3000 ]) in
  let* cuts = list_size (0 -- 6) (0 -- 300) in
  let* pre = 0 -- 70 in
  let* key = string_size (0 -- 100) in
  return (msg, cuts, pre, key)

let print_sha_case (msg, cuts, pre, key) =
  Printf.sprintf "len=%d cuts=[%s] pre=%d key=%d" (String.length msg)
    (String.concat ";" (List.map string_of_int cuts))
    pre (String.length key)

let sha_paths_agree (msg, cuts, pre, key) =
  let framed = String.make pre '<' ^ msg ^ ">" in
  let n = String.length msg in
  (* [feeds] says which path absorbs each piece; the context is shared *)
  let hash feeds finalize =
    let ctx = Sha256.init () in
    let rec go pos feeds cuts =
      if pos < n then begin
        let take = match cuts with c :: _ -> min c (n - pos) | [] -> n - pos in
        (List.hd feeds) ctx framed (pre + pos) take;
        go (pos + take) (List.tl feeds @ [ List.hd feeds ])
          (match cuts with _ :: r -> r | [] -> [])
      end
    in
    go 0 feeds cuts;
    finalize ctx
  in
  let expected = Sha256.Reference.digest msg in
  let pk = Hmac.precompute ~key in
  let feed_all feed_sub finish =
    let c = Hmac.start pk in
    feed_sub c framed pre n;
    finish c
  in
  Sha256.digest msg = expected
  && hash [ Sha256.update_sub ] Sha256.finalize = expected
  && hash [ Sha256.Reference.update_sub ] Sha256.Reference.finalize = expected
  && hash [ Sha256.update_sub; Sha256.Reference.update_sub ] Sha256.finalize
     = expected
  && Hmac.mac ~key msg = Hmac.Reference.mac ~key msg
  && Hmac.mac_pre pk msg = Hmac.Reference.mac_pre (Hmac.Reference.precompute ~key) msg
  && feed_all Hmac.feed_sub Hmac.finish
     = feed_all Hmac.Reference.feed_sub Hmac.Reference.finish

(* On a CPU without the instructions the dispatched functions are the
   reference, and the property compares the OCaml code with itself.
   It still runs, then says so and reports SKIP instead of a pass. *)
let two_path ~selected ~what test =
  let name, speed, run = QCheck_alcotest.to_alcotest ~long:false test in
  ( name,
    speed,
    fun () ->
      run ();
      if not selected then begin
        Printf.printf
          "%s not selected on this CPU (crypto path %s): ran the OCaml \
           reference path only\n"
          what Accel.path;
        Alcotest.skip ()
      end )

let two_path_tests =
  [
    two_path ~selected:Accel.aes ~what:"AES-NI"
      (QCheck.Test.make ~name:"aes-ni = ocaml reference" ~count:300
         (QCheck.make ~print:print_aes_case gen_aes_case)
         aes_paths_agree);
    two_path ~selected:Accel.sha256 ~what:"SHA-NI"
      (QCheck.Test.make ~name:"sha-ni = ocaml reference" ~count:300
         (QCheck.make ~print:print_sha_case gen_sha_case)
         sha_paths_agree);
  ]

let suite =
  [
    ("sha256 vectors", `Quick, test_sha256_vectors);
    ("sha256 streaming", `Quick, test_sha256_streaming);
    ("sha256 digest_list", `Quick, test_sha256_digest_list);
    ("sha256+hmac kat lengths 0-130", `Quick, test_sha256_hmac_kat);
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
    ("merkle leaf change moves root", `Quick, test_merkle_leaf_moves_root);
    ("merkle wrong key", `Quick, test_merkle_wrong_key);
    ("merkle empty root stable", `Quick, test_merkle_empty_root_stable);
    ("merkle hash ops", `Quick, test_merkle_hash_ops);
    ("lamport", `Quick, test_lamport);
    ("signature", `Quick, test_signature);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
  @ two_path_tests
