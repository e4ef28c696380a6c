(** HMAC-SHA256 (RFC 2104). *)

val digest_size : int
(** Output length in bytes (32). *)

val block_size : int
(** Underlying hash block size in bytes (64). *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag of [msg] under [key].
    Keys of any length are accepted per the RFC. *)

val verify : key:string -> mac:string -> string -> bool
(** Constant-time tag check. *)

(** {2 Precomputed keys}

    A {!prekey} holds the SHA-256 midstates after absorbing the
    ipad/opad key blocks, so each subsequent MAC under the same key
    skips both 64-byte key pads — roughly 2 of the 5 compressions of a
    short-message HMAC. Tags are bit-identical to {!mac}. *)

type prekey

val precompute : key:string -> prekey
(** Absorb [key]'s ipad/opad blocks once. *)

val mac_pre : prekey -> string -> string
(** [mac_pre pk msg = mac ~key msg] for the prekey's key. *)

val mac_pre_list : prekey -> string list -> string
(** MAC of the concatenation of the parts, without building it. *)

val verify_pre : prekey -> mac:string -> string -> bool
(** Constant-time tag check against a precomputed key. *)

(** {2 Incremental MACs}

    A message fed in pieces, each piece a sub-range of some string, so
    a MAC over fields scattered in one buffer (a page's index, IV and
    ciphertext) copies none of them out. *)

type ctx

val start : prekey -> ctx
val feed : ctx -> string -> unit

val feed_sub : ctx -> string -> int -> int -> unit
(** [feed_sub c s off len] feeds [s.[off .. off+len-1]], exactly as
    [feed c (String.sub s off len)] would.
    @raise Invalid_argument if the range is not within [s]. *)

val finish : ctx -> string
(** The tag of everything fed since {!start}. The context must not be
    used afterwards. *)

(**/**)

(* The same MACs over {!Sha256.Reference}: the fallback on CPUs without
   SHA-NI and the reference the instructions are tested against. *)
module Reference : sig
  val mac : key:string -> string -> string
  val precompute : key:string -> prekey
  val mac_pre : prekey -> string -> string
  val mac_pre_list : prekey -> string list -> string
  val start : prekey -> ctx
  val feed : ctx -> string -> unit
  val feed_sub : ctx -> string -> int -> int -> unit
  val finish : ctx -> string
end
