(** SHA-256 (FIPS 180-4), from scratch.

    Digests are raw 32-byte strings; use {!Hex.of_string} to render.
    The module has no global mutable state: distinct contexts may be
    used on distinct domains at the same time. A single context must
    not be shared between domains. *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx
(** Fresh context. *)

val copy : ctx -> ctx
(** Independent clone of a mid-stream context. Feeding the copy does
    not disturb the original — this is what lets HMAC precompute and
    reuse the ipad/opad midstates for a long-lived key. *)

val update : ctx -> string -> unit
(** Absorb more message bytes. *)

val update_sub : ctx -> string -> int -> int -> unit
(** [update_sub ctx s off len] absorbs [s.[off .. off+len-1]], exactly
    as [update ctx (String.sub s off len)] would, without the copy.
    @raise Invalid_argument if the range is not within [s]. *)

val finalize : ctx -> string
(** Pad, finish, and return the 32-byte digest. The context must not be
    reused afterwards. *)

val digest : string -> string
(** One-shot digest of a full message. *)

val digest_list : string list -> string
(** Digest of the concatenation of [parts], without building it. *)

val hex : string -> string
(** [hex s] is [Hex.of_string (digest s)]. *)
