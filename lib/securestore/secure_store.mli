(** Encrypted, integrity- and freshness-protected page store over an
    untrusted block device, anchored in RPMB (IronSafe §4.1).

    Every read verifies (1) the per-page HMAC, (2) freshness: that tag
    against the page's leaf in the Merkle tree, which lives in trusted
    memory, and (3) the tree's root against the replay-protected RPMB
    anchor. Every write re-hashes the leaf's path and re-anchors the
    new root; a reboot rebuilds the tree from the on-device tags and
    checks its root against the anchor. Crypto operation counts are
    exposed for the simulator's cost attribution: [merkle_hashes]
    counts the path walk the cost model charges per read (the tree's
    depth), which the read itself does not hash. *)

type t

val capacity : int
(** Plaintext bytes that fit in one protected page (page size minus
    IV, MAC and length header). *)

type stats = {
  mutable page_decrypts : int;
  mutable page_encrypts : int;
  mutable page_mac_checks : int;
  mutable merkle_hashes : int;
  mutable rpmb_accesses : int;
  mutable device_reads : int;
  mutable device_writes : int;
}

type error =
  | Tampered_page of int
  | Stale_root
  | Rpmb_error of Ironsafe_storage.Rpmb.error
  | Corrupt_page of int * string

val pp_error : Format.formatter -> error -> unit

val device_pages_for : data_pages:int -> int
(** Device pages needed for [data_pages] of data plus Merkle metadata. *)

type key_mode =
  | Single_key  (** one AES key for every page (the paper's default) *)
  | Per_page_keys  (** per-page keys derived from the data key (§4.1) *)

val initialize :
  ?key_mode:key_mode ->
  device:Ironsafe_storage.Block_device.t ->
  rpmb:Ironsafe_storage.Rpmb.t ->
  hardware_key:string ->
  data_pages:int ->
  drbg:Ironsafe_crypto.Drbg.t ->
  unit ->
  (t, error) result
(** First boot: generates and persists the data key, anchors an empty
    tree. *)

val open_existing :
  ?key_mode:key_mode ->
  device:Ironsafe_storage.Block_device.t ->
  rpmb:Ironsafe_storage.Rpmb.t ->
  hardware_key:string ->
  data_pages:int ->
  drbg:Ironsafe_crypto.Drbg.t ->
  unit ->
  (t, error) result
(** Reboot path: recovers keys from RPMB, rebuilds the tree from
    on-device tags, and detects rollback/fork via the anchored root.
    [key_mode] must match the mode used at initialization. *)

val set_faults : t -> Ironsafe_fault.Fault.t -> unit
(** Attach the deployment's fault plan. Under a plan, the recovery
    layer activates: failed page verifications are re-read up to a
    bounded budget before surfacing the typed error, and RPMB counter
    desyncs are re-synced by refetching the device counter. Without a
    plan (the default) every failure surfaces on the first attempt —
    genuine attacks are never retried away. *)

val write_page : t -> int -> string -> (unit, error) result
val read_page : t -> int -> (string, error) result

val data_page_count : t -> int
val stats : t -> stats
val reset_stats : t -> unit
