(** Sharded multi-node CSA cluster (scatter–gather execution).

    One host coordinates [N] storage shards holding hash- or
    range-partitions of the deployment's tables, each attested under
    its own TrustZone identity into a single monitor session. Queries
    scatter into per-shard sub-plans and gather through one of three
    merge operators: partial-aggregation recombination, k-way
    merge-sort, or ord-ordered concatenation (the generic path, which
    reconstructs the exact single-node scan order from a hidden
    per-row insertion index and is therefore exact for every SELECT).

    Each shard is one application of the single storage-node path:
    {!Ironsafe.Deployment}'s boot, provisioning and attestation
    functions build and attest it, {!Ironsafe.Runner.storage_share}
    charges its slice of a query, and the query runs inside the
    runner's root span and outcome wrapper.

    A one-shard cluster is the single-node {!Ironsafe.Runner} on the
    base deployment's storage node; {!engine} runs the §3.1 workflow
    ({!Ironsafe.Engine.submit}) over either shape. *)

type t

val create :
  ?storage_cores:int ->
  ?storage_version:int ->
  ?storage_location:string ->
  shards:int ->
  scheme:Ironsafe.Partitioner.scheme ->
  Ironsafe.Deployment.t ->
  t
(** Build [shards] storage nodes over [base]'s loaded tables. Each
    shard gets its own simulated ARM node, TrustZone device (secure
    boot from the same images), block device, RPMB, secure store, and
    plain + secure replicas of its partition. Rows route to shards via
    {!Ironsafe.Partitioner.shard_of_key} over the table's first
    integer column (insertion index otherwise). The deployment's
    fault plan, when enabled, is wired into shard 0's secure medium
    only (the "flaky shard").

    @raise Invalid_argument when [shards < 1]. *)

val nshards : t -> int
val base : t -> Ironsafe.Deployment.t
val scheme : t -> Ironsafe.Partitioner.scheme

val ord_column : t -> string
(** Name of the hidden leading insertion-index column on shard tables. *)

val shard_nodes : t -> Ironsafe_sim.Node.t list
(** Simulated nodes of the shards (empty when [nshards = 1]). *)

val storage_nodes : t -> Ironsafe_sim.Node.t list
(** The storage nodes a statement runs on: the base deployment's
    storage node for one shard, the shard nodes otherwise. This is
    the [?storage_nodes] argument of the workload scheduler's
    [Sched.run] for tapes captured through this cluster. *)

val shard_device_ids : t -> string list

val reset_counters : t -> unit
(** {!Ironsafe.Deployment.reset_counters} plus every shard's node,
    store, device and TEE counters. *)

(** {2 Attestation and policy} *)

val attest :
  ?host_location:string -> ?storage_location:string -> t ->
  (unit, string) result
(** Attest the base deployment, then every shard under its own
    TrustZone identity. The monitor records one evidence entry per
    shard in the audit chain — on success {e and} on failure — so a
    rejected shard is observable as its own distinct entry. Stops at
    the first failing shard. *)

val attest_reliable :
  ?host_location:string ->
  ?storage_location:string ->
  ?max_attempts:int ->
  t ->
  (unit, string) result
(** {!attest} under {!Ironsafe.Deployment.retry_attestation}: bounded
    exponential-backoff re-attestation (only under an enabled fault
    plan), charging the backoff to the host, the base storage node and
    every shard lane. *)

val gather_operator : t -> string -> string
(** Which gather operator the query would use: ["partial-agg"],
    ["merge-sort"], or ["concat"] (["none"] for non-SELECT). *)

(** {2 Execution} *)

val run_stmt :
  ?reset:bool ->
  ?project:bool ->
  t ->
  Ironsafe.Config.t ->
  Ironsafe_sql.Ast.stmt ->
  Ironsafe.Runner.metrics
(** Scatter–gather execution under a Table-2 configuration. Results
    are exactly the single-node {!Ironsafe.Runner.run_stmt} results;
    each shard is charged {!Ironsafe.Runner.storage_share} on its own
    lane (parallel contended storage servers), and the host
    {!Ironsafe.Runner.host_share} for the gather and host portion.

    @raise Invalid_argument for non-SELECT statements when
    [nshards > 1] (shard replicas are read-only). *)

val run_query : t -> Ironsafe.Config.t -> string -> Ironsafe.Runner.metrics

val run_stmt_outcome :
  ?reset:bool ->
  ?project:bool ->
  t ->
  Ironsafe.Config.t ->
  Ironsafe_sql.Ast.stmt ->
  Ironsafe.Runner.outcome
(** Fault-aware execution through {!Ironsafe.Runner.with_outcome}. A
    non-SELECT statement on [nshards > 1] is [Rejected] (site
    [cluster.read_only]) without the fault bookkeeping: a refusal, not
    a fault. An unattested shard rejects a query (site
    [cluster.attest]); then the pre-flight TEE faults strike as on one
    node (a failed world switch is retried on shard 0, the flaky
    shard); a flaky shard degrades the query (faults recovered
    mid-query) or rejects it (integrity failure surviving the re-read
    budget) — typed outcomes with their outcome events, never
    silently-wrong rows. *)

val run_query_outcome : t -> Ironsafe.Config.t -> string -> Ironsafe.Runner.outcome

val engine : t -> Ironsafe.Engine.t
(** The §3.1 engine over this cluster: {!Ironsafe.Engine.submit}
    attests through {!attest_reliable}, refuses a write on
    [nshards > 1] before any session key is delivered, and runs each
    statement through {!run_stmt_outcome}. A split configuration runs
    host-only unless every shard's device satisfies the execution
    policy. *)

(** {2 Gathered latency} *)

val scatter_latency_view : t -> Ironsafe_obs.Histogram.view
(** Bucket-wise merge ({!Ironsafe_obs.Histogram.merge}) of every
    shard's [scatter_latency_ns] histogram from the live metrics
    registry — identical to one histogram observing all shard streams.
    Empty view when observability is off or nothing ran. *)

val scatter_latency_table : t -> string
(** Per-shard p50/p95/p99 lines plus the merged row. *)
