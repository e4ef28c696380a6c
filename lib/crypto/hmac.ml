(* HMAC-SHA256 (RFC 2104 / FIPS 198-1).

   The secure store evaluates HMACs under a handful of long-lived keys
   (page MAC key, Merkle key, task key) millions of times, so the
   ipad/opad key blocks are absorbed once into a {!prekey} — a pair of
   SHA-256 midstates — and each MAC then costs only the message blocks
   plus one outer finalization, instead of re-hashing both 64-byte key
   pads every call.

   The code is written once, in [Make], over a SHA-256: the public
   functions use {!Sha256} (SHA-NI where the CPU has it), [Reference]
   uses {!Sha256.Reference}. Prekeys and contexts are the same values
   under both. *)

let block_size = 64
let digest_size = 32

type prekey = { istate : Sha256.ctx; ostate : Sha256.ctx }

(* A MAC under way: the inner context, fed from the ipad midstate. *)
type ctx = { pk : prekey; inner : Sha256.ctx }

module type HASH = sig
  val update : Sha256.ctx -> string -> unit
  val update_sub : Sha256.ctx -> string -> int -> int -> unit
  val finalize : Sha256.ctx -> string
  val digest : string -> string
end

module Make (H : HASH) = struct
  let normalize_key key =
    let key = if String.length key > block_size then H.digest key else key in
    if String.length key = block_size then key
    else key ^ String.make (block_size - String.length key) '\000'

  let xor_pad key byte = String.map (fun c -> Char.chr (Char.code c lxor byte)) key

  let precompute ~key =
    let key = normalize_key key in
    let istate = Sha256.init () in
    H.update istate (xor_pad key 0x36);
    let ostate = Sha256.init () in
    H.update ostate (xor_pad key 0x5c);
    { istate; ostate }

  let start pk = { pk; inner = Sha256.copy pk.istate }
  let feed_sub c s off len = H.update_sub c.inner s off len
  let feed c s = H.update c.inner s

  let finish c =
    let inner = H.finalize c.inner in
    let ctx = Sha256.copy c.pk.ostate in
    H.update ctx inner;
    H.finalize ctx

  let mac_pre pk msg =
    let c = start pk in
    feed c msg;
    finish c

  let mac_pre_list pk parts =
    let c = start pk in
    List.iter (feed c) parts;
    finish c

  let mac ~key msg = mac_pre (precompute ~key) msg

  let verify_pre pk ~mac:expected msg =
    Constant_time.equal (mac_pre pk msg) expected

  let verify ~key ~mac:expected msg =
    Constant_time.equal (mac ~key msg) expected
end

module Reference = Make (Sha256.Reference)
include Make (Sha256)
