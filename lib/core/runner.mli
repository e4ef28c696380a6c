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
    as a typed rejection naming the faulted site. [reset] (default
    true) zeroes the clocks before the pre-flight, so the metrics'
    latency includes any recovery it charged. With faults disabled it
    is exactly [Ok (run_stmt ...)]. *)

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

(** {2 One query path for one storage node or N}

    {!run_stmt} and {!run_stmt_outcome} are built from the entry points
    below; the sharded cluster ({!Ironsafe_cluster.Cluster}) applies
    them once per shard, so an N-shard execution charges the same cost
    categories with the same constants, in the same order, as the
    single-node runner, and shares its root span and its fault-aware
    outcome. *)

val with_counters :
  Ironsafe_sql.Database.t ->
  (unit -> 'a) ->
  'a * Ironsafe_sql.Observer.counters
(** Run a thunk with a fresh counting observer installed on [db]
    (restored to {!Ironsafe_sql.Observer.null} afterwards). *)

val storage_share :
  Deployment.t ->
  Config.t ->
  storage:Ironsafe_sim.Node.t ->
  store:Ironsafe_securestore.Secure_store.t ->
  sessions:int ->
  shipped:int ->
  Ironsafe_sql.Observer.counters ->
  int * int
(** Charge one storage node's share of a query under a config, in a
    [storage.exec] span on [storage]'s lane: page I/O and pool hits,
    offload sessions (vcs/scs: [sessions] sub-statements), page crypto
    from [store]'s statistics (on the host enclave under hos), compute,
    spill and the transfer to the deployment's host. The counters are
    what ran against [storage]'s medium; [shipped] is the encoded size
    of the rows it returned (split configs and sos; hons/hos ship whole
    pages). Returns the bytes and messages that crossed the network. *)

val host_share :
  Deployment.t ->
  Config.t ->
  rows:int ->
  pages:int ->
  messages:int ->
  working_set:int ->
  unit
(** Charge the host's share: [rows] row steps of compute, plus under
    hos one enclave transition pair per page and EPC paging for
    [working_set] over [3 * pages] touches, and under scs one pair per
    arriving message and EPC paging over [messages] touches. *)

val merkle_bytes : Ironsafe_securestore.Secure_store.t -> int
(** Host-resident Merkle footprint when the host verifies freshness. *)

val with_query :
  ?attrs:(string * string) list ->
  Deployment.t ->
  Config.t ->
  (unit -> metrics) ->
  metrics
(** Run a query's execution inside its [query] root span on the host
    (attributes: [config], then [attrs], then the trace context), emit
    [query.done] and attach the captured profile when tracing is on. *)

val with_outcome :
  ?admit:(unit -> violation option) ->
  ?storage:Ironsafe_sim.Node.t ->
  ?peers:Ironsafe_sim.Node.t list ->
  Deployment.t ->
  Config.t ->
  (unit -> metrics) ->
  outcome
(** The fault-aware wrapper behind {!run_stmt_outcome}: [admit]
    (default: admit everything) may refuse the query first; then the
    pre-flight TEE faults are injected and recovered (a failed world
    switch is retried on [storage], default the deployment's storage
    node). A recovery is a stall: the host and every node in [peers]
    (default [[storage]]: the nodes besides the host that the query
    runs on) wait until it ends, so their clocks all start the query at
    the same time. Then the execution runs, and faults, integrity failures,
    enclave aborts and WAL crashes become typed outcomes with their
    [query.degraded] / [query.rejected] / [query.crashed] events. *)
