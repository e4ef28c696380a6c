(** Keyed (HMAC-SHA256) Merkle tree for page-store integrity and
    freshness, as in IronSafe §4.1: leaves are per-page HMAC tags,
    internal nodes HMAC the concatenation of their children, and only
    the root needs rollback protection (anchored in RPMB). *)

type t

val create : key:string -> leaves:int -> t
(** Tree over [leaves] pages, all initially holding the empty-leaf tag.
    Capacity rounds up to a power of two. *)

val leaf_count : t -> int

val depth : t -> int
(** Internal nodes on a leaf's path to the root: the HMACs one path
    verification computes. *)

val root : t -> string
(** Current 32-byte root tag. *)

val leaf : t -> int -> string
(** Stored tag of leaf [i]. *)

val leaf_tag_of_data : t -> string -> string
(** The tag this tree assigns to raw page bytes. *)

val update : t -> int -> string -> unit
(** [update t i data] re-tags leaf [i] from page bytes and recomputes
    the root path. *)

val set_leaf : t -> int -> string -> unit
(** Like {!update} but with a precomputed tag. *)

val hash_ops : t -> int
(** HMAC evaluations performed by this tree since last reset. *)

val reset_hash_ops : t -> unit
