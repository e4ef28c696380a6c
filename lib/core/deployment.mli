(** A full IronSafe deployment: simulated host (x86 + SGX) and storage
    server (ARM + TrustZone), plain and secure replicas of the same
    database (so the five Table-2 configurations run over identical
    data), the trusted monitor, and the attestation wiring. *)

type t = {
  params : Ironsafe_sim.Params.t;
  host : Ironsafe_sim.Node.t;
  storage : Ironsafe_sim.Node.t;
  drbg : Ironsafe_crypto.Drbg.t;
  device_plain : Ironsafe_storage.Block_device.t;
  device_secure : Ironsafe_storage.Block_device.t;
  rpmb : Ironsafe_storage.Rpmb.t;
  mutable secure_store : Ironsafe_securestore.Secure_store.t;
      (** mutable: {!reboot_secure} swaps in the reopened store *)
  plain_db : Ironsafe_sql.Database.t;
  secure_db : Ironsafe_sql.Database.t;
  pool_frames : int;
      (** frames per decrypted-page buffer pool (0 = the pagers are not
          wrapped, and every page access reaches the backend) *)
  plain_pool : Ironsafe_sql.Bufpool.t option;
  secure_pool : Ironsafe_sql.Bufpool.t option;
  device_wal : Ironsafe_storage.Block_device.t option;
      (** dedicated log device ([None] when the WAL is off) *)
  txn_store : Ironsafe_wal.Txn_store.t option;
      (** transactional overlay the secure pager routes through when
          the WAL is on; [None] leaves the pager directly on the secure
          store *)
  ias : Ironsafe_tee.Sgx.ias;
  sgx : Ironsafe_tee.Sgx.platform;
  host_enclave : Ironsafe_tee.Sgx.enclave;
  tz_device : Ironsafe_tee.Trustzone.device;
  tz_booted : Ironsafe_tee.Trustzone.booted;
  host_image : Ironsafe_tee.Image.t;
  storage_nw_image : Ironsafe_tee.Image.t;
  host_sk : Ironsafe_crypto.Signature.secret_key;
      (** host engine session key; public half certified at attestation *)
  host_pk : Ironsafe_crypto.Signature.public_key;
  monitor : Ironsafe_monitor.Trusted_monitor.t;
  faults : Ironsafe_fault.Fault.t;
      (** shared fault plan ([Fault.none] when injection is off) *)
}

val create :
  ?params:Ironsafe_sim.Params.t ->
  ?host_cores:int ->
  ?storage_cores:int ->
  ?storage_mem_limit:int ->
  ?host_version:int ->
  ?storage_version:int ->
  ?storage_location:string ->
  ?faults:Ironsafe_fault.Fault.t ->
  ?pool_frames:int ->
  ?wal:bool ->
  ?wal_window_ns:float ->
  ?wal_log_pages:int ->
  seed:string ->
  populate:(Ironsafe_sql.Database.t -> unit) ->
  unit ->
  t
(** Build and load a deployment. [populate] fills the plain database;
    its contents are then copied into the freshly initialized secure
    store. Defaults mirror the paper's testbed (§6.1): 10 host cores,
    16 storage cores, 96 MiB usable EPC.

    [pool_frames] (default 0) interposes a {!Ironsafe_sql.Bufpool}
    decrypted-page cache of that many frames in front of {e both}
    media; population runs through the pools, which are then drained
    and dropped so measured workloads start cold.

    A [faults] plan is wired into the secure medium (block device,
    RPMB, secure store) only {e after} population, so setup writes are
    always clean; the plain replica is never faulted and doubles as a
    fault-free oracle over the same deployment.

    [wal] (default false) enables the crash-safe write path: an
    encrypted HMAC-chained log on its own [wal_log_pages]-page device
    (default 512) with its commit horizon anchored in RPMB, and the
    secure pager routed through a {!Ironsafe_wal.Txn_store} overlay.
    [wal_window_ns] (default 0 = synchronous commit) is the
    group-commit window on the virtual clock. Population runs before
    the overlay engages, so loaded bytes are identical either way. *)

val faults : t -> Ironsafe_fault.Fault.t

val wal_enabled : t -> bool
val txn_store : t -> Ironsafe_wal.Txn_store.t option

val reboot_secure : t -> (unit, string) result
(** Crash-and-reboot of the secure medium: drop every volatile layer
    (pool frames are {e not} written back — with power they never
    existed), reopen the secure store and the WAL from the persistent
    media, verify the chained log against the RPMB anchor, and
    redo-apply the committed records. The reopened WAL draws a fresh
    boot salt and epoch, so post-recovery record encryption never
    reuses a pre-crash nonce.
    Existing pager closures (and therefore the SQL layer) survive the
    swap; the SQL layer's volatile heap cursors and indexes are
    re-anchored on the recovered pages
    ({!Ironsafe_sql.Database.reload_storage}). *)

val exec_mode : t -> Ironsafe_sql.Exec.exec_mode
(** Always [Row_at_a_time]; kept only for the benchmark loader that
    passes it to {!Host_engine.run_host}. *)

val attest :
  ?host_location:string -> ?storage_location:string -> t -> (unit, string) result
(** Run both attestation protocols (Fig. 4a and 4b) against the
    monitor's registries. Under a fault plan, [Sgx_quote_reject] and
    [Tz_ta_crash] garble the respective evidence and [Tz_world_switch]
    aborts the storage protocol. *)

val attest_reliable :
  ?host_location:string ->
  ?storage_location:string ->
  ?max_attempts:int ->
  t ->
  (unit, string) result
(** {!attest} with bounded re-attestation: up to [max_attempts]
    (default 5) full protocol reruns with exponential backoff charged
    to both nodes. Retries happen only under an enabled fault plan —
    a genuine attestation failure (wrong software) is never retried
    away. *)

(** {2 One storage node}

    The pieces {!create} and {!attest} build a storage node from; the
    sharded cluster ({!Ironsafe_cluster.Cluster}) applies them once per
    shard. *)

val boot_storage_tee :
  who:string ->
  location:string ->
  device_id:string ->
  normal_world:Ironsafe_tee.Image.t ->
  Ironsafe_crypto.Drbg.t ->
  Ironsafe_tee.Trustzone.device * Ironsafe_tee.Trustzone.booted
(** Manufacture a TrustZone device, provision the reference
    secure-world images ({!atf_image}, {!optee_image}) and secure-boot
    it with [normal_world] measured.

    @raise Invalid_argument (prefixed with [who]) when boot fails. *)

type secure_medium = {
  device : Ironsafe_storage.Block_device.t;
  rpmb : Ironsafe_storage.Rpmb.t;
  store : Ironsafe_securestore.Secure_store.t;
}

val provision_secure :
  who:string ->
  plain_pages:int ->
  Ironsafe_tee.Trustzone.device ->
  Ironsafe_crypto.Drbg.t ->
  secure_medium
(** A block device, an RPMB partition and an initialized secure store
    keyed to the device's hardware key, with room for [plain_pages]
    data pages plus a quarter of headroom.

    @raise Invalid_argument (prefixed with [who]) when the store cannot
    be initialized. *)

val fault_medium : Ironsafe_fault.Fault.t -> secure_medium -> unit
(** Wire a fault plan into the medium's device, RPMB and store. *)

val attest_storage_node :
  ?shard:int ->
  faults:Ironsafe_fault.Fault.t ->
  location:string ->
  Ironsafe_monitor.Trusted_monitor.t ->
  Ironsafe_sim.Node.t ->
  Ironsafe_tee.Trustzone.booted ->
  (unit, string) result
(** Fig. 4b for one storage node, in an [attest.storage] span on the
    node's lane: a fresh monitor challenge, the attestation TA's
    signed response, the monitor's verdict ([shard] tags the audit
    entry). *)

val retry_attestation :
  ?max_attempts:int ->
  ?also:Ironsafe_sim.Node.t list ->
  t ->
  (unit -> (unit, string) result) ->
  (unit, string) result
(** The bounded re-attestation loop behind {!attest_reliable}: rerun
    the protocol up to [max_attempts] (default 5) times, charging the
    exponential backoff to the host, the storage node and every node in
    [also]. *)

val pool_bytes : t -> int
(** Capacity of the secure medium's buffer pool in bytes (0 without a
    pool); charged against EPC residency where the decrypted cache
    lives inside the host enclave. *)

val reset_counters : t -> unit
(** Zero all clocks, traces, crypto statistics and TEE counters; pool
    frames are written back and dropped so runs start cold. *)

val with_nodes :
  ?host_cores:int -> ?storage_cores:int -> ?storage_mem_limit:int -> t -> t
(** Functional copy with different node shapes; the loaded databases
    are shared (used by the core-count and memory sweeps). *)

(** {2 Reference software images} *)

val host_engine_image : version:int -> Ironsafe_tee.Image.t
val storage_engine_image : version:int -> Ironsafe_tee.Image.t
val atf_image : Ironsafe_tee.Image.t
val optee_image : Ironsafe_tee.Image.t

val copy_database : Ironsafe_sql.Database.t -> Ironsafe_sql.Database.t -> unit
