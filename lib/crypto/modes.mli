(** AES modes of operation, for 128- or 256-bit keys (the secure store's
    pages use AES-256). *)

val cbc_encrypt : key:Aes.key -> iv:string -> string -> string
(** CBC encryption with PKCS#7 padding; output length is the input
    rounded up to the next multiple of 16. IV must be 16 bytes. *)

val cbc_decrypt : key:Aes.key -> iv:string -> string -> (string, string) result
(** CBC decryption; fails on non-aligned input or invalid padding. *)

val cbc_decrypt_sub :
  key:Aes.key ->
  iv:string ->
  iv_off:int ->
  string ->
  int ->
  int ->
  (string, string) result
(** [cbc_decrypt_sub ~key ~iv ~iv_off src off len] is
    [cbc_decrypt ~key ~iv:(String.sub iv iv_off 16) (String.sub src off len)]
    without the two copies: the IV and the ciphertext are read in place,
    e.g. from one raw page.
    @raise Invalid_argument if either range is not within its string. *)

val ctr_transform : key:Aes.key -> nonce:string -> string -> string
(** CTR keystream XOR; encryption and decryption are the same
    operation. Nonce must be 16 bytes and never reused per key. *)

val ctr_transform_into :
  key:Aes.key ->
  nonce:string ->
  string ->
  int ->
  Bytes.t ->
  int ->
  int ->
  unit
(** [ctr_transform_into ~key ~nonce src soff dst doff len] is
    {!ctr_transform} into a caller-owned buffer: it XORs the CTR
    keystream, counting up from [nonce], over [src.[soff .. soff+len-1]]
    into [dst] at [doff]. Only the 16-byte counter is allocated. *)

(**/**)

val pkcs7_pad : string -> string
val pkcs7_unpad : string -> (string, string) result

(* The same modes over the table-driven OCaml cipher ({!Aes.Reference}):
   the fallback on CPUs without AES-NI, and the reference the AES-NI
   kernels are tested against. The functions above are these when
   [not Accel.aes]. *)
module Reference : sig
  val cbc_encrypt : key:Aes.key -> iv:string -> string -> string
  val cbc_decrypt : key:Aes.key -> iv:string -> string -> (string, string) result

  val cbc_decrypt_sub :
    key:Aes.key ->
    iv:string ->
    iv_off:int ->
    string ->
    int ->
    int ->
    (string, string) result

  val ctr_transform : key:Aes.key -> nonce:string -> string -> string

  val ctr_transform_into :
    key:Aes.key ->
    nonce:string ->
    string ->
    int ->
    Bytes.t ->
    int ->
    int ->
    unit
end
