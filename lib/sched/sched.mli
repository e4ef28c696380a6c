(** Multi-tenant workload scheduler: discrete-event concurrent query
    execution with admission control and tail-latency reporting.

    Queries are profiled once through the sequential {!Ironsafe.Runner}
    (capturing their cost tape), then replayed concurrently against
    contended servers — host cores, storage cores, NVMe queue depth,
    host<->storage channel streams — under a virtual-time event queue,
    with the SGX EPC modeled as shared capacity that inflates paging
    cost with concurrent residency. Runs are deterministic: the same
    seed and spec reproduce a byte-identical event log and percentile
    table. *)

(** {2 Query profiles} *)

type query_profile = {
  qp_label : string;
  qp_sql : string;
  qp_config : Ironsafe.Config.t;
  qp_tape : Ironsafe_sim.Tape.event list;
  qp_itape : Ironsafe_sim.Tape.interned;
      (** shared interned form of [qp_tape] (structural memo): all
          profiles of the same query shape point at one copy, and
          replaying sessions walk it with an int cursor *)
  qp_end_to_end_ns : float;  (** sequential (uncontended) latency *)
  qp_working_set : int;  (** host-enclave residency, bytes *)
}

val profile :
  ?project:bool ->
  Ironsafe.Deployment.t ->
  Ironsafe.Config.t ->
  label:string ->
  sql:string ->
  query_profile
(** Run [sql] once through the sequential runner under tape capture
    and package the result for replay. Resets the deployment first
    (via the runner's own reset). *)

val profile_run :
  working_set:(unit -> int) ->
  label:string ->
  sql:string ->
  Ironsafe.Config.t ->
  (unit -> Ironsafe.Runner.metrics) ->
  query_profile
(** Tape-capture an arbitrary runner invocation — e.g. a sharded
    {!Ironsafe_cluster.Cluster.run_stmt}, whose tape charges several
    storage nodes. [working_set] is sampled after the run to report the
    enclave residency the query leaves behind; for a deployment's
    runs, including a cluster over it, that is
    [host_working_set deploy]. *)

val host_working_set : Ironsafe.Deployment.t -> unit -> int
(** The host enclave's heap in use: the EPC residency {!profile}
    records (0 when the host enclave is off the query path). *)

val mean_sequential_ns : query_profile list -> float

(** {2 Workload specification} *)

type arrival =
  | Open_loop of { qps : float }  (** Poisson arrivals at target rate *)
  | Closed_loop of { sessions : int; think_ns : float }
      (** N sessions, each submitting, waiting for completion, thinking
          (exponential, mean [think_ns]), repeating *)

type spec = {
  seed : int;
  arrival : arrival;
  queries : int;  (** total queries submitted across the run *)
  tenants : string list;
  max_inflight : int;  (** admission bound: concurrently executing *)
  queue_depth : int;  (** run-queue bound; beyond it arrivals shed *)
  device_queue_depth : int;  (** NVMe queue-depth slots *)
  channel_streams : int;  (** concurrent host<->storage transfers *)
  control_ns : float;  (** per-query control-path charge on the host *)
  sample_sessions : int;
      (** forensics retention, {e tail-based} at every setting: each
          task buffers its log lines plus a ring of recent segments
          undecided, and the verdict at completion keeps anomalous
          lanes (shed, denied, tail-latency breach — all of them) while
          normal lanes pass through a deterministic splitmix64
          K-exemplar reservoir (K = this field; the side stream is
          split off [seed], so the arrival schedule is untouched).
          [-1] (the default) keeps every lane in full: K is [queries]
          and the segment ring has no cap, so the event log, records
          and trace segments cover every session. Counts, per-tenant
          stats, utilization, makespan and the latency distribution
          are exact over {e all} sessions at any setting. Retained log
          lines merge back in chronological order — a subsequence of
          the full log. *)
  lane_frames : int;
      (** per-task ring capacity for undecided trace segments ([<= 0]
          = no cap); kept lanes carry their most recent [lane_frames]
          segments. Ignored at [sample_sessions = -1], which keeps
          every segment. Default 32. *)
  tail_slo_ns : float;
      (** [> 0.0] arms tail classification and the SLO burn-rate
          watchdog: completions slower than this are anomalous
          (retained, counted in [rep_tail_breaches], emitted as
          [sched.tail_breach] events) and the p99-latency plus
          error-rate objectives stream over the run, emitting
          [slo.breach]/[slo.recovered] events. [0.0] (default) off. *)
  slo_window_ns : float;
      (** long burn-rate window on the virtual clock (default 100 ms);
          the short window is 1/12 of it. *)
}

val default_spec : spec
(** Open loop at 100 q/s, 32 queries, one tenant, 8-way admission with
    a 16-deep run queue, device QD 8, 2 channel streams, no control
    charge, every lane retained in full ([sample_sessions = -1]; the
    32-segment [lane_frames] cap applies only once a sample size is
    set), SLO watchdog off. *)

val arrival_name : arrival -> string

val capacity_qps : Ironsafe.Deployment.t -> spec -> query_profile list -> float
(** Analytic capacity of [profiles] as a uniform mix on the deployment's
    single storage node: each contended server class's mean per-query
    occupancy, read off the interned tapes — host charges over the host
    cores, other charges over the storage cores, IO charges over
    [spec.device_queue_depth], sync transfers over
    [spec.channel_streams] — divided by its slots. The largest quotient
    is the bottleneck; the result is [1e9 /. bottleneck_ns] queries per
    second ([infinity] for tapes that charge nothing).
    @raise Invalid_argument on an empty mix. *)

(** {2 Outcomes} *)

type shed_reason = Queue_full of { depth : int }

type outcome =
  | Completed of { latency_ns : float }
  | Shed of shed_reason  (** refused at admission — never silent *)
  | Denied of string  (** tenant gate (policy) refusal *)

val outcome_name : outcome -> string

type record = {
  r_qid : int;
  r_label : string;
  r_tenant : string;
  r_lane : int;  (** session lane (trace tid) *)
  r_arrive_ns : float;
  r_start_ns : float;  (** admission time; [= r_arrive_ns] if unqueued *)
  r_done_ns : float;
  r_outcome : outcome;
  r_segments : (string * float * float) list;
      (** (resource.category, begin, end), chronological *)
}

(** Latency digest of the completed queries, folded into the shared
    log-bucketed histogram ({!Ironsafe_obs.Histogram}) as they
    complete: mean and max exact, percentiles bucket-resolution
    nearest-rank — the same extraction the metrics registry applies to
    its [sched/latency_ns] series, so the two p99s agree exactly on the
    same completions. *)
type latency_stats = {
  mean_ns : float;
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
  max_ns : float;
}

type tenant_stats = {
  mutable t_submitted : int;
  mutable t_completed : int;
  mutable t_shed : int;
  mutable t_denied : int;
}

type report = {
  rep_config : Ironsafe.Config.t;
  rep_spec : spec;
  rep_submitted : int;
  rep_completed : int;
  rep_shed : int;
  rep_denied : int;
  rep_makespan_ns : float;
  rep_throughput_qps : float;
  rep_latency : latency_stats;  (** over completed queries *)
  rep_per_tenant : (string * tenant_stats) list;
  rep_records : record list;
      (** qid order: every anomalous lane plus the reservoir exemplars
          (every lane at [sample_sessions = -1]) *)
  rep_event_log : string list;  (** chronological, deterministic *)
  rep_util : (string * float) list;  (** server -> utilization, [0,1] *)
  rep_events : int;
      (** simulator events processed (event-queue pops) — the
          numerator of the events/sec wall-clock throughput the
          saturation bench gates on *)
  rep_wall_ns : float;  (** wall-clock time spent inside {!run} *)
  rep_peak_words : int;
      (** [Gc.top_heap_words] sampled after the run: process peak live
          heap, the memory-guard datum of the saturation sweep *)
  rep_anomalous : int;
      (** anomalous lanes (shed/denied/tail-breach) retained in full —
          100% of them, by construction, at every [sample_sessions]
          setting; [rep_shed + rep_denied + rep_tail_breaches] *)
  rep_tail_breaches : int;
      (** completions slower than [tail_slo_ns] (0 when unarmed) *)
  rep_slo : Ironsafe_obs.Slo.summary list;
      (** SLO watchdog summaries (latency-p99, error-rate); [] when
          the watchdog is off *)
}

(** {2 Running} *)

val run :
  ?gate:(tenant:string -> sql:string -> (unit, string) result) ->
  ?storage_nodes:Ironsafe_sim.Node.t list ->
  Ironsafe.Deployment.t ->
  spec ->
  query_profile list ->
  report
(** Simulate [spec]'s arrival process drawing uniformly from the query
    mix [profiles]; [gate] (default: admit all) authorizes each query
    under its tenant before it may execute.

    [storage_nodes] (default: the deployment's single storage node)
    lists the parallel contended storage servers: each node gets its
    own ARM-cores, NVMe-queue-depth and channel-stream servers (named
    [<node>.cores] / [<node>.device] / [<node>.channel]), and tape
    charges route to the server set of the node they were recorded
    against, so a sharded cluster's scatter phases contend per shard
    while sharing the host's gather capacity.

    @raise Invalid_argument on an infeasible spec, an empty mix, a
    mix spanning different configurations, an empty or duplicate
    storage node list, the host listed among the storage nodes, or a
    profile whose tape charges a node that is neither the host nor a
    listed storage node. *)

val monitor_gate :
  ?database:string ->
  Ironsafe.Deployment.t ->
  tenant:string ->
  sql:string ->
  (unit, string) result
(** Gate backed by the deployment's trusted monitor: authorizes the
    query under the tenant's registered principal against the access
    policy (issuing and immediately releasing a session key), so policy
    denials surface as [Denied]. Tenants must be registered with the
    monitor and the host attested. *)

(** {2 Rendering} *)

val percentile_table : report -> string
(** One-line throughput + p50/p95/p99 summary (deterministic; used by
    the determinism tests). *)

val pp_report : Format.formatter -> report -> unit
val json_of_report : report -> string

val to_spans : ?offset_ns:float -> report -> Ironsafe_obs.Span.t list
(** Chrome-trace lanes: one root span per completed query on lane
    [session-<n>] (queue wait and every resource segment as children),
    instant markers for sheds and denials. *)

val trace_json : report -> string
(** Standalone Chrome trace JSON for the report's lanes. *)

val add_to_collector : report -> unit
(** Splice the lanes into the global {!Ironsafe_obs} collector (after
    an epoch bump, so timelines never overlap); no-op when tracing is
    disabled. *)
