(** AES block cipher (FIPS 197), 128- and 256-bit keys. See {!Modes}
    for CBC/CTR. *)

val block_size : int
(** 16 bytes. *)

type key
(** Expanded round-key schedule. *)

val expand_key : string -> key
(** Expand a 16-byte (AES-128) or 32-byte (AES-256) key.
    @raise Invalid_argument on any other length. *)

val encrypt_block : key -> string -> string
(** Encrypt one 16-byte block. *)

val decrypt_block : key -> string -> string
(** Decrypt one 16-byte block. *)

(**/**)

val encrypt_block_into : key -> Bytes.t -> int -> Bytes.t -> int -> unit
val decrypt_block_into : key -> Bytes.t -> int -> Bytes.t -> int -> unit

(* String-source variants: one 16-byte block read straight from an
   immutable message (the block-mode hot paths decrypt ciphertext
   strings without first copying them into a [Bytes.t]). In-place use
   (src and dst aliasing) is safe for the [Bytes.t] variants: the
   state words are loaded before anything is written. *)
val encrypt_str_into : key -> string -> int -> Bytes.t -> int -> unit
val decrypt_str_into : key -> string -> int -> Bytes.t -> int -> unit

(* The round keys as the AES-NI kernels read them: the encryption
   schedule, then the equivalent-inverse-cipher schedule, 16 bytes per
   round key. Its length gives the round count. *)
val schedule : key -> string

(* The table-driven OCaml cipher: the fallback on CPUs without AES-NI
   and the reference the instructions are tested against. The
   functions above dispatch to it when [not Accel.aes]. *)
module Reference : sig
  val encrypt_block : key -> string -> string
  val decrypt_block : key -> string -> string
  val encrypt_block_into : key -> Bytes.t -> int -> Bytes.t -> int -> unit
  val decrypt_block_into : key -> Bytes.t -> int -> Bytes.t -> int -> unit
  val encrypt_str_into : key -> string -> int -> Bytes.t -> int -> unit
  val decrypt_str_into : key -> string -> int -> Bytes.t -> int -> unit
end
