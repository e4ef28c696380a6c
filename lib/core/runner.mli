(** Executes statements under a Table-2 configuration: the query really
    runs on the real engine over the real (plain or secure) backend,
    and the simulated clocks are charged from measured operation counts
    (rows, pages, crypto ops, bytes shipped, enclave transitions, EPC
    pressure, memory spills). *)

type metrics = {
  config : Config.t;
  end_to_end_ns : float;  (** simulated end-to-end latency *)
  host_breakdown : (string * float) list;  (** per-category ns *)
  storage_breakdown : (string * float) list;
  bytes_shipped : int;  (** host<->storage data-path bytes *)
  pages_scanned : int;  (** storage-medium data pages read (pool misses) *)
  page_hits : int;
      (** buffer-pool hits: reads served from the decrypted-page cache,
          skipping device I/O and (on the secure medium) crypto *)
  host_rows : int;  (** row-operator steps on the host *)
  storage_rows : int;
  affected : int;
      (** rows a DML statement inserted, updated or deleted (0 for a
          query; split configs run queries only) *)
  result : Ironsafe_sql.Exec.result;  (** identical across configs *)
  profile : Ironsafe_obs.Obs.profile option;
      (** span tree + metrics snapshot, when tracing was enabled *)
}

val run_stmt :
  ?reset:bool ->
  ?project:bool ->
  Deployment.t ->
  Config.t ->
  Ironsafe_sql.Ast.stmt ->
  metrics
(** [reset] (default true) zeroes all node clocks/counters first (the
    engine passes [false] after charging control-path costs);
    [project] is forwarded to the partitioner (projection ablation). *)

val run_query : Deployment.t -> Config.t -> string -> metrics

(** {2 Fault-aware execution}

    {!run_stmt_outcome} wraps {!run_stmt} with the recovery layer: TEE
    faults scheduled by the deployment's plan are injected before the
    query (enclave abort → restart + re-attestation; EPC storm and
    world-switch failures → charged degradation), and integrity
    failures that survive the secure store's own re-read budget surface
    as a typed rejection naming the faulted site. With faults disabled
    it is exactly [Ok (run_stmt ...)]. *)

type violation = {
  v_site : string;  (** dotted fault-site name, e.g. ["device.bit_rot"] *)
  v_detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

type outcome =
  | Ok of metrics  (** fault-free execution *)
  | Degraded of metrics * Ironsafe_fault.Fault.incident list
      (** correct result, but faults were injected (and recovered from)
          during this query *)
  | Rejected of violation
      (** the query was refused rather than answered wrongly *)
  | Crashed of violation
      (** a WAL crash fault fired mid-statement (power loss): the
          statement did not complete — not even partially, the log
          protocol guarantees — and the deployment must go through
          {!Deployment.reboot_secure} before serving again *)

val run_stmt_outcome :
  ?reset:bool ->
  ?project:bool ->
  Deployment.t ->
  Config.t ->
  Ironsafe_sql.Ast.stmt ->
  outcome

val run_query_outcome : Deployment.t -> Config.t -> string -> outcome

val total : (string * float) list -> float
(** Sum of a breakdown. *)

(** {2 Cost-charging primitives}

    The per-configuration charging recipes above are built from these
    helpers; the cluster runner ({!Ironsafe_cluster.Cluster}) reuses
    them so an N-shard execution charges the same cost categories with
    the same constants as the single-node arms. *)

val with_counters :
  Ironsafe_sql.Database.t ->
  (unit -> 'a) ->
  'a * Ironsafe_sql.Observer.counters
(** Run a thunk with a fresh counting observer installed on [db]
    (restored to {!Ironsafe_sql.Observer.null} afterwards). *)

val snapshot_secure_stats :
  Ironsafe_securestore.Secure_store.t -> int * int * int * int
(** (decrypts, MAC checks, Merkle hashes, RPMB accesses) since the last
    reset. *)

val charge_crypto :
  ?parallel:bool ->
  ?lanes:int ->
  Ironsafe_sim.Node.t ->
  Ironsafe_sim.Params.t ->
  decrypts:int ->
  macs:int ->
  merkle:int ->
  rpmb:int ->
  unit

val charge_transfer :
  Ironsafe_sim.Params.t ->
  Ironsafe_sim.Node.t ->
  Ironsafe_sim.Node.t ->
  secure:bool ->
  bytes:int ->
  messages:int ->
  unit
(** Charge a bulk transfer to both ends and synchronize their clocks. *)

val charge_io : Ironsafe_sim.Node.t -> Ironsafe_sim.Params.t -> int -> unit
val charge_cache_hits : Ironsafe_sim.Node.t -> Ironsafe_sim.Params.t -> int -> unit
val charge_compute : Ironsafe_sim.Node.t -> rows:int -> unit
val charge_memory : Ironsafe_sim.Node.t -> category:string -> int -> unit

val charge_enclave_transitions :
  Ironsafe_sim.Node.t -> Ironsafe_sim.Params.t -> int -> unit

val charge_epc :
  Ironsafe_sim.Node.t ->
  Ironsafe_tee.Sgx.enclave ->
  Ironsafe_sim.Params.t ->
  working_set:int ->
  accesses:int ->
  unit

val merkle_bytes : Ironsafe_securestore.Secure_store.t -> int
(** Host-resident Merkle footprint when the host verifies freshness. *)

val message_count : Ironsafe_sim.Params.t -> int -> int
(** Number of network messages a byte count batches into. *)

val with_offload :
  Ironsafe_sim.Node.t -> Ironsafe_sim.Node.t -> (unit -> 'a) -> 'a
(** Wrap storage-side work in a [storage.exec] span on the second
    node's lane, flow-linked to the first node's open query span. *)

val violation_of_faults :
  Ironsafe_fault.Fault.t -> default:string -> detail:string -> violation
(** Name the violation after the last unrecovered incident (or
    [default] when the plan recorded none). *)
