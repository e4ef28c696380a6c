(* Multi-tenant workload scheduler: discrete-event concurrent query
   execution over one deployment.

   The sequential runner executes one query at a time and charges its
   costs as an atomic sequence of clock operations. This module turns
   those sequences into *interleavable* traffic:

   1. each query of the mix is profiled once through the real runner
      under {!Ironsafe_sim.Tape.capture}, yielding its cost tape (the
      exact per-node charges and blocking syncs the runner performed);
   2. a client generator (open-loop Poisson arrivals at a target QPS,
      or N closed-loop sessions with think time) submits queries drawn
      from the mix, each owned by a tenant whose policy principal is
      checked through the trusted monitor at admission;
   3. admitted queries replay their tapes event by event through a
      central virtual-time event queue; every charge contends for a
      FIFO multi-slot server (host cores, storage ARM cores, NVMe
      queue depth, host<->storage channel streams), and EPC-bound
      charges are inflated by the working sets of concurrently
      resident queries;
   4. arrivals beyond the admission bound wait in a FIFO run queue of
      configured depth; beyond that they are refused with a typed
      [Shed] outcome (never dropped silently) and counted in the
      metrics registry.

   Determinism: all randomness (arrival gaps, think times, mix and
   tenant draws) comes from one {!Ironsafe_sim.Prng} stream seeded
   from the spec, event ties break by submission order, and server
   slots tie-break by index — the same seed and spec reproduce a
   byte-identical event log and percentile table.

   With one closed-loop session the replay degenerates to the
   sequential model: every server has a free slot, the EPC holds one
   working set, and the tape arithmetic is exactly {!Node.charge} /
   {!Clock.sync} — latency reproduces {!Runner.run_stmt} end-to-end
   within float tolerance (bit-exact for the first query). *)

open Ironsafe
module Sim = Ironsafe_sim
module Sql = Ironsafe_sql
module Tee = Ironsafe_tee
module Obs = Ironsafe_obs

(* -- query profiles ---------------------------------------------------- *)

type query_profile = {
  qp_label : string;
  qp_sql : string;
  qp_config : Config.t;
  qp_tape : Sim.Tape.event list;
  qp_itape : Sim.Tape.interned;
  qp_end_to_end_ns : float;
  qp_working_set : int;
}

(* enclave residency a query leaves behind (0 when the host enclave is
   off the query path): the EPC is shared under concurrency *)
let host_working_set deploy () =
  Tee.Sgx.heap_used deploy.Deployment.host_enclave

let profile_run ~working_set ~label ~sql config run =
  let m, tape = Sim.Tape.capture run in
  {
    qp_label = label;
    qp_sql = sql;
    qp_config = config;
    qp_tape = tape;
    (* structural memo: re-profiling the same query shape (another
       sweep point, another session count) shares one interned copy *)
    qp_itape = Sim.Tape.intern tape;
    qp_end_to_end_ns = m.Runner.end_to_end_ns;
    (* read after the run: enclave residency the query leaves behind *)
    qp_working_set = working_set ();
  }

let profile ?project deploy config ~label ~sql =
  let stmt = Sql.Parser.parse sql in
  profile_run ~working_set:(host_working_set deploy) ~label ~sql config
    (fun () -> Runner.run_stmt ?project deploy config stmt)

let mean_sequential_ns profiles =
  match profiles with
  | [] -> 0.0
  | l ->
      List.fold_left (fun acc p -> acc +. p.qp_end_to_end_ns) 0.0 l
      /. float_of_int (List.length l)

(* -- workload specification -------------------------------------------- *)

type arrival =
  | Open_loop of { qps : float }
  | Closed_loop of { sessions : int; think_ns : float }

type spec = {
  seed : int;
  arrival : arrival;
  queries : int;  (** total queries submitted across the run *)
  tenants : string list;
  max_inflight : int;  (** admission bound: concurrently executing *)
  queue_depth : int;  (** run-queue bound; beyond it arrivals shed *)
  device_queue_depth : int;  (** NVMe queue-depth slots *)
  channel_streams : int;  (** concurrent host<->storage transfers *)
  control_ns : float;  (** per-query control-path charge (host) *)
  sample_sessions : int;
      (** tail-based retention: every task buffers its log lines and a
          ring of recent trace segments undecided, and at its verdict an
          anomalous task (shed, denied, tail-latency breach) is kept in
          full while normal tasks pass through a deterministic
          splitmix64 reservoir holding this many exemplars. [-1] keeps
          every lane: the reservoir holds [queries] exemplars and the
          ring has no cap. Counters, registry metrics and the latency
          histogram are exact over all sessions at any setting. *)
  lane_frames : int;
      (** per-task ring capacity for undecided trace segments ([<= 0]
          keeps every segment; ignored at [sample_sessions = -1]). Kept
          tasks carry their most recent [lane_frames] segments,
          bounding per-lane memory flight-recorder-style. *)
  tail_slo_ns : float;
      (** [> 0.0] arms the tail-latency objective: completions slower
          than this are anomalous (retained, counted, and emitted as
          [sched.tail_breach] events) and feed the p99 burn-rate SLO.
          [0.0] disables tail classification and the SLO watchdog. *)
  slo_window_ns : float;
      (** long burn-rate window (virtual ns) for the SLO watchdog; the
          short window is 1/12 of it (see {!Ironsafe_obs.Slo}). *)
}

let default_spec =
  {
    seed = 42;
    arrival = Open_loop { qps = 100.0 };
    queries = 32;
    tenants = [ "tenant-0" ];
    max_inflight = 8;
    queue_depth = 16;
    device_queue_depth = 8;
    channel_streams = 2;
    control_ns = 0.0;
    sample_sessions = -1;
    lane_frames = 32;
    tail_slo_ns = 0.0;
    slo_window_ns = 1e8;
  }

let arrival_name = function
  | Open_loop { qps } -> Printf.sprintf "open(qps=%.2f)" qps
  | Closed_loop { sessions; think_ns } ->
      Printf.sprintf "closed(sessions=%d,think=%.0fns)" sessions think_ns

(* -- analytic capacity ------------------------------------------------- *)

(* Mean per-query occupancy of each contended server class over the
   mix, read off the interned tapes, divided by the class's parallel
   slots; the largest quotient is the bottleneck, and its inverse bounds
   the deliverable rate. *)
let capacity_qps deploy spec profiles =
  if profiles = [] then invalid_arg "Sched.capacity_qps: empty query mix";
  let host_name = Sim.Node.name deploy.Deployment.host in
  let slots node = float_of_int (Sim.Cpu.cores (Sim.Node.cpu node)) in
  let h = ref 0.0 and c = ref 0.0 and io = ref 0.0 and ch = ref 0.0 in
  List.iter
    (fun p ->
      let it = p.qp_itape in
      let is_host =
        Array.map (fun nm -> nm = host_name) (Sim.Tape.interned_nodes it)
      in
      for i = 0 to Sim.Tape.interned_length it - 1 do
        let cls = Sim.Tape.cls it i in
        let ns = Sim.Tape.ns it i in
        if cls = Sim.Tape.cls_sync then ch := !ch +. ns
        else if is_host.(Sim.Tape.node_id it i) then h := !h +. ns
        else if cls = Sim.Tape.cls_io then io := !io +. ns
        else c := !c +. ns
      done)
    profiles;
  let n = float_of_int (List.length profiles) in
  let bottleneck_ns =
    List.fold_left Float.max 0.0
      [
        !h /. n /. slots deploy.Deployment.host;
        !c /. n /. slots deploy.Deployment.storage;
        !io /. n /. float_of_int spec.device_queue_depth;
        !ch /. n /. float_of_int spec.channel_streams;
      ]
  in
  1e9 /. bottleneck_ns

(* -- outcomes and records ---------------------------------------------- *)

type shed_reason = Queue_full of { depth : int }

type outcome =
  | Completed of { latency_ns : float }
  | Shed of shed_reason
  | Denied of string

let outcome_name = function
  | Completed _ -> "completed"
  | Shed _ -> "shed"
  | Denied _ -> "denied"

type record = {
  r_qid : int;
  r_label : string;
  r_tenant : string;
  r_lane : int;
  r_arrive_ns : float;
  r_start_ns : float;
  r_done_ns : float;
  r_outcome : outcome;
  r_segments : (string * float * float) list;
}

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
  rep_config : Config.t;
  rep_spec : spec;
  rep_submitted : int;
  rep_completed : int;
  rep_shed : int;
  rep_denied : int;
  rep_makespan_ns : float;
  rep_throughput_qps : float;
  rep_latency : latency_stats;
  rep_per_tenant : (string * tenant_stats) list;
  rep_records : record list;  (** qid order *)
  rep_event_log : string list;  (** chronological *)
  rep_util : (string * float) list;  (** server -> utilization in [0,1] *)
  rep_events : int;  (** simulator events processed (queue pops) *)
  rep_wall_ns : float;  (** wall-clock time spent inside [run] *)
  rep_peak_words : int;  (** [Gc.stat].top_heap_words after the run *)
  rep_anomalous : int;
      (** anomalous tasks (shed/denied/tail-breach) retained in full —
          every one of them, by construction *)
  rep_tail_breaches : int;  (** completions slower than [tail_slo_ns] *)
  rep_slo : Obs.Slo.summary list;  (** SLO watchdog summaries; [] when off *)
}

(* -- the simulation ---------------------------------------------------- *)

(* The event queue is {!Event_queue}: an intrusive pairing heap on
   (time, seq) keys with internal monotone seq assignment — the pop
   order is exactly the old ordered map's (time, seq) iteration order,
   without the per-event key tuple and O(log n) path rebuilding. *)

(* Per-session state is flat: ints (indices into the run's shared
   arrays), one float-only record for the mutable clocks (all-float
   records are unboxed, so clock writes do not allocate — in the old
   mixed record every [task.h <- _] boxed a fresh float), and an int
   cursor into the profile's compiled tape instead of a private
   [event list]. *)

type clocks = {
  mutable c_arrive : float;
  mutable c_h : float;  (** task-local host clock (absolute) *)
  mutable c_start : float;
}

type task = {
  qid : int;
  session : int;  (** closed-loop session id; -1 for open loop *)
  tenant : int;  (** index into the run's tenant array *)
  prof : int;  (** index into the run's profile array *)
  mutable cursor : int;  (** next compiled-tape event; -1 = control charge *)
  mutable lane : int;
  mutable last_s : int;  (** index of the last-charged storage node *)
  mutable step_act : action;
      (** this task's [Step] action, allocated once: a task has at most
          one pending event, so every step pushes the same box *)
  ck : clocks;
  s : float array;  (** task-local storage clocks, one per storage node *)
  (* undecided forensics: log lines tagged with a global sequence (so
     kept lanes merge back into chronological order) and a ring of the
     most recent [lane_frames] segments. The ring is two
     parallel arrays — labels (shared tape strings) and an unboxed
     begin/end float pair per slot — grown geometrically to capacity,
     so 10^5 undecided lanes cost tens of words each, not a boxed
     tuple array apiece *)
  mutable lines_rev : (int * string) list;
  mutable seg_labels : string array;
  mutable seg_times : float array;  (* 2 per slot: begin, end *)
  mutable seg_start : int;
  mutable seg_len : int;
}

and action = Arrive of task | Step of task

(* A profile's tape compiled against the run's server set: per event
   one routing kind, one storage index, the (possibly EPC-inflated)
   duration and the precomputed replay label. Shared by every session
   replaying the profile — a session carries only its cursor. *)

let k_host = 0 (* host-cores charge *)
let k_cores = 1 (* storage ARM-cores charge *)
let k_device = 2 (* NVMe queue-depth charge *)
let k_sync = 3 (* blocking host<->storage sync *)

type ctape = {
  ct_len : int;
  ct_kind : int array;
  ct_idx : int array;  (** storage index for [k_cores]/[k_device] *)
  ct_epc : bool array;  (** duration inflates with EPC residency *)
  ct_ns : float array;
  ct_label : string array;
}

let validate spec profiles =
  if spec.queries < 1 then invalid_arg "Sched.run: queries must be >= 1";
  if spec.tenants = [] then invalid_arg "Sched.run: no tenants";
  if spec.max_inflight < 1 then invalid_arg "Sched.run: max_inflight must be >= 1";
  if spec.queue_depth < 0 then invalid_arg "Sched.run: negative queue_depth";
  if spec.device_queue_depth < 1 then
    invalid_arg "Sched.run: device_queue_depth must be >= 1";
  if spec.channel_streams < 1 then
    invalid_arg "Sched.run: channel_streams must be >= 1";
  if spec.control_ns < 0.0 then invalid_arg "Sched.run: negative control_ns";
  if spec.sample_sessions < -1 then
    invalid_arg "Sched.run: sample_sessions must be >= -1";
  if spec.tail_slo_ns < 0.0 then
    invalid_arg "Sched.run: negative tail_slo_ns";
  if spec.slo_window_ns <= 0.0 then
    invalid_arg "Sched.run: slo_window_ns must be positive";
  (match spec.arrival with
  | Open_loop { qps } ->
      if qps <= 0.0 then invalid_arg "Sched.run: qps must be positive"
  | Closed_loop { sessions; think_ns } ->
      if sessions < 1 then invalid_arg "Sched.run: sessions must be >= 1";
      if think_ns < 0.0 then invalid_arg "Sched.run: negative think time");
  match profiles with
  | [] -> invalid_arg "Sched.run: empty query mix"
  | p :: rest ->
      if List.exists (fun q -> q.qp_config <> p.qp_config) rest then
        invalid_arg "Sched.run: mixed configurations in one workload";
      p.qp_config

let run ?gate ?storage_nodes deploy spec profiles =
  let wall0 = Unix.gettimeofday () in
  let config = validate spec profiles in
  let params = deploy.Deployment.params in
  let host_name = Sim.Node.name deploy.Deployment.host in
  let host_srv =
    Server.create ~name:"host.cores"
      ~slots:(Sim.Cpu.cores (Sim.Node.cpu deploy.Deployment.host))
  in
  (* One (cores, device, channel) server triple per storage node, named
     after the node: a sharded cluster contends each shard's ARM cores,
     NVMe queue depth and host<->shard channel streams independently,
     sharing only the host. *)
  let storage_nodes =
    Array.of_list
      (Option.value storage_nodes ~default:[ deploy.Deployment.storage ])
  in
  let n_storage = Array.length storage_nodes in
  if n_storage = 0 then invalid_arg "Sched.run: no storage nodes";
  let storage_index : (string, int) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun i n -> Hashtbl.replace storage_index (Sim.Node.name n) i)
    storage_nodes;
  if Hashtbl.length storage_index <> n_storage then
    invalid_arg "Sched.run: duplicate storage node names";
  if Hashtbl.mem storage_index host_name then
    invalid_arg "Sched.run: host listed among storage nodes";
  let servers kind ~slots =
    Array.map
      (fun node -> Server.create ~name:(Sim.Node.name node ^ kind) ~slots:(slots node))
      storage_nodes
  in
  let srv_cores =
    servers ".cores" ~slots:(fun node -> Sim.Cpu.cores (Sim.Node.cpu node))
  in
  let srv_device = servers ".device" ~slots:(fun _ -> spec.device_queue_depth) in
  let srv_channel = servers ".channel" ~slots:(fun _ -> spec.channel_streams) in
  (* sync segments label after the channel they ride *)
  let sync_label =
    Array.map (fun srv -> Server.name srv ^ ".transfer") srv_channel
  in
  let epc_limit = params.Sim.Params.epc_limit_bytes in
  (* EPC occupancy starts at the decrypted-page pool's footprint when
     the pool lives inside the host enclave (hos); it is pinned cache
     capacity every admitted query contends with. Zero without a pool. *)
  let epc_resident =
    ref (if config = Config.Hos then Deployment.pool_bytes deploy else 0)
  in
  let prng = Sim.Prng.create ~seed:spec.seed in
  let tenants = Array.of_list spec.tenants in
  let n_tenants = Array.length tenants in
  let profs = Array.of_list profiles in
  let n_profiles = Array.length profs in
  let prof_ws = Array.map (fun p -> p.qp_working_set) profs in
  let prof_label = Array.map (fun p -> p.qp_label) profs in

  (* compile each profile's interned tape against this run's server
     set: resolve node names to routing kinds and storage indices once,
     so the per-event replay is pure array reads *)
  let compile p =
    let it = p.qp_itape in
    let names = Sim.Tape.interned_nodes it in
    let node_to_idx =
      Array.map
        (fun n -> Option.value (Hashtbl.find_opt storage_index n) ~default:(-1))
        names
    in
    let node_is_host = Array.map (fun n -> n = host_name) names in
    let len = Sim.Tape.interned_length it in
    let ct_kind = Array.make len k_sync in
    let ct_idx = Array.make len 0 in
    let ct_epc = Array.make len false in
    let ct_ns = Array.make len 0.0 in
    let ct_label = Array.make len "" in
    for i = 0 to len - 1 do
      let cls = Sim.Tape.cls it i in
      ct_ns.(i) <- Sim.Tape.ns it i;
      if cls <> Sim.Tape.cls_sync then begin
        let nid = Sim.Tape.node_id it i in
        ct_label.(i) <- Sim.Tape.label it i;
        ct_epc.(i) <- cls = Sim.Tape.cls_epc;
        if node_is_host.(nid) then ct_kind.(i) <- k_host
        else begin
          if node_to_idx.(nid) < 0 then
            invalid_arg
              (Printf.sprintf
                 "Sched.run: profile %s charges node %s, which is neither \
                  the host nor a listed storage node"
                 p.qp_label names.(nid));
          ct_idx.(i) <- node_to_idx.(nid);
          ct_kind.(i) <- (if cls = Sim.Tape.cls_io then k_device else k_cores)
        end
      end
    done;
    { ct_len = len; ct_kind; ct_idx; ct_epc; ct_ns; ct_label }
  in
  let progs = Array.map compile profs in
  let control_label = host_name ^ ".policy" in
  let has_control = spec.control_ns > 0.0 in

  (* tail-based forensics: every task buffers its forensics undecided
     (log lines + a segment ring) and the verdict at completion decides
     retention — anomalous tasks (shed/denied/tail-breach) are always
     kept, normal tasks pass through a K-exemplar reservoir driven by a
     splitmix64 side stream (split off the seed, so the arrival schedule
     is untouched). [sample_sessions = -1] keeps every lane in full: K is
     the query budget, so the reservoir never fills (and never draws),
     and the ring has no cap. *)
  let keep_all = spec.sample_sessions < 0 in
  let seg_cap =
    if keep_all || spec.lane_frames <= 0 then max_int else spec.lane_frames
  in
  let k_exemplars = if keep_all then spec.queries else spec.sample_sessions in
  let reservoir :
      (record * (int * string) list) option array =
    Array.make (max 1 k_exemplars) None
  in
  let reservoir_rng =
    Sim.Prng.split (Sim.Prng.create ~seed:spec.seed) ~index:0
  in
  let n_normal = ref 0 in
  let kept_rev : (record * (int * string) list) list ref = ref [] in
  let anomalous = ref 0 in
  let tail_breaches = ref 0 in
  let log_seq = ref 0 in

  (* event queue *)
  let dummy_clocks = { c_arrive = 0.0; c_h = 0.0; c_start = 0.0 } in
  let rec dummy_task =
    {
      qid = -1;
      session = -1;
      tenant = 0;
      prof = 0;
      cursor = 0;
      lane = -1;
      last_s = 0;
      step_act = Arrive dummy_task;
      ck = dummy_clocks;
      s = [||];
      lines_rev = [];
      seg_labels = [||];
      seg_times = [||];
      seg_start = 0;
      seg_len = 0;
    }
  in
  let queue = Event_queue.create ~dummy:(Arrive dummy_task) in
  let push t action = Event_queue.push queue t action in

  (* bookkeeping: log lines buffer as (seq, line) on the task so the
     verdict can keep or drop the whole lane, and kept lanes merge back
     chronologically *)
  let tlogf task fmt =
    Printf.ksprintf
      (fun s ->
        let n = !log_seq in
        incr log_seq;
        task.lines_rev <- (n, s) :: task.lines_rev)
      fmt
  in
  let submitted = ref 0
  and completed = ref 0
  and shed = ref 0
  and denied = ref 0 in
  (* latencies fold into one histogram as they complete: O(1) memory
     at 10^6 sessions *)
  let lat_hist = Obs.Histogram.create () in
  let makespan = ref 0.0 in
  let n_events = ref 0 in
  let c_submitted = Obs.Obs.counter ~scope:"sched" "submitted" in
  let c_completed = Obs.Obs.counter ~scope:"sched" "completed" in
  let c_shed = Obs.Obs.counter ~scope:"sched" "shed" in
  let c_denied = Obs.Obs.counter ~scope:"sched" "denied" in
  let s_latency = Obs.Obs.series ~scope:"sched" "latency_ns" in
  let tenant_stats : (string, tenant_stats) Hashtbl.t =
    Hashtbl.create (max 4 n_tenants)
  in
  Array.iter
    (fun t ->
      Hashtbl.replace tenant_stats t
        { t_submitted = 0; t_completed = 0; t_shed = 0; t_denied = 0 })
    tenants;
  (* duplicate tenant names share one stats record (replace semantics) *)
  let tstats = Array.map (fun t -> Hashtbl.find tenant_stats t) tenants in
  let tstat task = tstats.(task.tenant) in
  let note_done done_ns = if done_ns > !makespan then makespan := done_ns in
  let ring_segments task =
    let cap = Array.length task.seg_labels in
    List.init task.seg_len (fun i ->
        let j = (task.seg_start + i) mod cap in
        ( task.seg_labels.(j),
          task.seg_times.(2 * j),
          task.seg_times.((2 * j) + 1) ))
  in
  let make_record task outcome ~start_ns ~done_ns =
    task.ck.c_start <- start_ns;
    {
      r_qid = task.qid;
      r_label = prof_label.(task.prof);
      r_tenant = tenants.(task.tenant);
      r_lane = task.lane;
      r_arrive_ns = task.ck.c_arrive;
      r_start_ns = start_ns;
      r_done_ns = done_ns;
      r_outcome = outcome;
      r_segments = ring_segments task;
    }
  in
  (* the verdict: anomalous lanes are kept unconditionally;
     normal lanes offer themselves to the K-exemplar reservoir
     (Algorithm R on the dedicated splitmix64 stream — deterministic in
     verdict order) *)
  let settle task outcome ~start_ns ~done_ns ~anom =
    let rc = make_record task outcome ~start_ns ~done_ns in
    let lane = (rc, List.rev task.lines_rev) in
    if anom then begin
      incr anomalous;
      kept_rev := lane :: !kept_rev
    end
    else begin
      let n = !n_normal in
      incr n_normal;
      if n < k_exemplars then reservoir.(n) <- Some lane
      else if k_exemplars > 0 then begin
        let j = Sim.Prng.rand_int reservoir_rng (n + 1) in
        if j < k_exemplars then reservoir.(j) <- Some lane
      end
    end;
    (* the lane's buffers are spent either way *)
    task.lines_rev <- [];
    task.seg_labels <- [||];
    task.seg_times <- [||];
    task.seg_len <- 0;
    task.seg_start <- 0
  in
  (* SLO watchdog: armed by a positive tail threshold. Latency feeds as
     histogram interval diffs against the p99 budget; sheds+denials
     feed the error-rate objective. Samples flush on a virtual-clock
     tick of window/48 (four per short window). *)
  let slo_on = spec.tail_slo_ns > 0.0 in
  let slo_hist = Obs.Histogram.create () in
  let lat_slo =
    Obs.Slo.create
      {
        Obs.Slo.s_name = "latency-p99";
        s_scope = "sched";
        s_budget = 0.01;
        s_windows = Obs.Slo.default_windows ~window_ns:spec.slo_window_ns;
      }
  in
  let err_slo =
    Obs.Slo.create
      {
        Obs.Slo.s_name = "error-rate";
        s_scope = "sched";
        s_budget = 0.05;
        s_windows = Obs.Slo.default_windows ~window_ns:spec.slo_window_ns;
      }
  in
  let slo_tick_ns = spec.slo_window_ns /. 48.0 in
  let slo_last_tick = ref 0.0 in
  let slo_last_view = ref Obs.Histogram.empty_view in
  let slo_last_good = ref 0 in
  let slo_last_bad = ref 0 in
  let slo_flush t =
    let after = Obs.Histogram.view slo_hist in
    Obs.Slo.feed_view lat_slo ~now_ns:t ~threshold_ns:spec.tail_slo_ns
      ~before:!slo_last_view ~after;
    slo_last_view := after;
    let bad = !shed + !denied - !slo_last_bad in
    let good = !completed - !slo_last_good in
    Obs.Slo.feed err_slo ~now_ns:t ~good:(max 0 good) ~bad:(max 0 bad);
    slo_last_good := !completed;
    slo_last_bad := !shed + !denied
  in
  let slo_tick t =
    if slo_on && t -. !slo_last_tick >= slo_tick_ns then begin
      slo_last_tick := t;
      slo_flush t
    end
  in

  (* admission state *)
  let inflight = ref 0 in
  (* run queue: a pre-sized ring buffer of queue_depth slots (freed
     slots are reset to the dummy so waiting tasks are not pinned) *)
  let wq_cap = max 1 spec.queue_depth in
  let wq = Array.make wq_cap dummy_task in
  let wq_head = ref 0 in
  let wq_len = ref 0 in
  let wq_push task =
    wq.((!wq_head + !wq_len) mod wq_cap) <- task;
    incr wq_len
  in
  let wq_pop () =
    let task = wq.(!wq_head) in
    wq.(!wq_head) <- dummy_task;
    wq_head := (!wq_head + 1) mod wq_cap;
    decr wq_len;
    task
  in
  (* free-lane pool for open-loop tasks: a bitset over lane indices
     with a lowest-live-word hint. [take] returns the minimum free lane
     — identical to the old sorted list's head — in O(words scanned);
     [release] is O(1) (the old code re-sorted the whole list with
     polymorphic compare on every release: O(n log n) per event at
     10^5+ lanes). Closed-loop lanes are the session ids. *)
  let lane_words = (spec.max_inflight + 62) / 63 in
  let lane_bits = Array.make lane_words 0 in
  for l = 0 to spec.max_inflight - 1 do
    lane_bits.(l / 63) <- lane_bits.(l / 63) lor (1 lsl (l mod 63))
  done;
  let lane_hint = ref 0 (* no free lanes below this word *) in
  let take_lane task =
    if task.session >= 0 then task.session
    else begin
      let w = ref !lane_hint in
      while !w < lane_words && lane_bits.(!w) = 0 do
        incr w
      done;
      if !w >= lane_words then 0 (* unreachable: guarded by max_inflight *)
      else begin
        let bits = lane_bits.(!w) in
        let b = bits land -bits in
        lane_bits.(!w) <- bits lxor b;
        lane_hint := !w;
        let i = ref 0 in
        let b = ref b in
        while !b land 1 = 0 do
          b := !b lsr 1;
          incr i
        done;
        (!w * 63) + !i
      end
    end
  in
  let release_lane task =
    if task.session < 0 then begin
      let w = task.lane / 63 in
      lane_bits.(w) <- lane_bits.(w) lor (1 lsl (task.lane mod 63));
      if w < !lane_hint then lane_hint := w
    end
  in

  (* closed-loop continuation: sessions resubmit until the global query
     budget is spent *)
  let next_qid = ref 0 in
  let remaining = ref spec.queries in
  let new_task ~session ~tenant ~arrive_ns prof =
    let qid = !next_qid in
    incr next_qid;
    let task =
      {
        qid;
        session;
        tenant;
        prof;
        cursor = 0;
        lane = session;
        last_s = 0;
        step_act = Arrive dummy_task;
        ck = { c_arrive = arrive_ns; c_h = arrive_ns; c_start = arrive_ns };
        s = Array.make n_storage arrive_ns;
        lines_rev = [];
        seg_labels = [||];
        seg_times = [||];
        seg_start = 0;
        seg_len = 0;
      }
    in
    task.step_act <- Step task;
    task
  in
  let draw_profile () = Sim.Prng.rand_int prng n_profiles in
  let submit_session_query session t =
    let tenant = session mod n_tenants in
    let prof = draw_profile () in
    push t (Arrive (new_task ~session ~tenant ~arrive_ns:t prof))
  in
  let session_next session t =
    match spec.arrival with
    | Open_loop _ -> ()
    | Closed_loop { think_ns; _ } ->
        if !remaining > 0 then begin
          decr remaining;
          let think = Sim.Prng.exponential prng ~mean_ns:think_ns in
          submit_session_query session (t +. think)
        end
  in

  (* EPC pressure: concurrent residency beyond this query's own working
     set inflates its paging cost (alone, the factor is exactly 1). *)
  let epc_factor task =
    let others = !epc_resident - prof_ws.(task.prof) in
    if others <= 0 || epc_limit <= 0 then 1.0
    else 1.0 +. (float_of_int others /. float_of_int epc_limit)
  in
  let done_time task = Array.fold_left Float.max task.ck.c_h task.s in
  let ready_time task =
    let c = task.cursor in
    if c < 0 then task.ck.c_h (* pending control charge rides the host *)
    else begin
      let p = progs.(task.prof) in
      if c >= p.ct_len then done_time task
      else
        let k = p.ct_kind.(c) in
        if k = k_host then task.ck.c_h
        else if k = k_sync then Float.max task.ck.c_h task.s.(task.last_s)
        else task.s.(p.ct_idx.(c))
    end
  in

  let rec admit task t =
    let verdict =
      match gate with
      | None -> Ok ()
      | Some g -> g ~tenant:tenants.(task.tenant) ~sql:profs.(task.prof).qp_sql
    in
    match verdict with
    | Error e ->
        incr denied;
        (tstat task).t_denied <- (tstat task).t_denied + 1;
        Obs.Obs.count_via c_denied;
        note_done t;
        if Obs.Obs.enabled () then
          Obs.Obs.event ~ts_ns:t ~scope:"sched" ~kind:"sched.denied"
            [
              ("qid", Obs.Event_log.I task.qid);
              ("tenant", Obs.Event_log.S tenants.(task.tenant));
              ("reason", Obs.Event_log.S e);
            ];
        tlogf task "%.0f deny q%d tenant=%s (%s)" t task.qid
          tenants.(task.tenant) e;
        settle task (Denied e) ~start_ns:t ~done_ns:t ~anom:true;
        slo_tick t;
        session_next task.session t
    | Ok () ->
        incr inflight;
        task.lane <- take_lane task;
        task.ck.c_h <- t;
        Array.fill task.s 0 (Array.length task.s) t;
        task.cursor <- (if has_control then -1 else 0);
        task.ck.c_start <- t;
        epc_resident := !epc_resident + prof_ws.(task.prof);
        tlogf task "%.0f start q%d lane=%d inflight=%d" t task.qid task.lane
          !inflight;
        push (ready_time task) task.step_act

  and dispatch t =
    if !inflight < spec.max_inflight && !wq_len > 0 then begin
      let task = wq_pop () in
      admit task t;
      dispatch t
    end
  in

  let arrive task t =
    incr submitted;
    (tstat task).t_submitted <- (tstat task).t_submitted + 1;
    Obs.Obs.count_via c_submitted;
    tlogf task "%.0f submit q%d tenant=%s query=%s" t task.qid
      tenants.(task.tenant) prof_label.(task.prof);
    if !inflight < spec.max_inflight then admit task t
    else if !wq_len < spec.queue_depth then begin
      wq_push task;
      tlogf task "%.0f enqueue q%d depth=%d" t task.qid !wq_len
    end
    else begin
      (* backpressure: the run queue is full — refuse, loudly *)
      incr shed;
      (tstat task).t_shed <- (tstat task).t_shed + 1;
      Obs.Obs.count_via c_shed;
      note_done t;
      if Obs.Obs.enabled () then
        Obs.Obs.event ~ts_ns:t ~scope:"sched" ~kind:"sched.shed"
          [
            ("qid", Obs.Event_log.I task.qid);
            ("tenant", Obs.Event_log.S tenants.(task.tenant));
            ("queue_depth", Obs.Event_log.I spec.queue_depth);
          ];
      tlogf task "%.0f shed q%d queue_full depth=%d" t task.qid
        spec.queue_depth;
      settle task
        (Shed (Queue_full { depth = spec.queue_depth }))
        ~start_ns:t ~done_ns:t ~anom:true;
      slo_tick t;
      session_next task.session t
    end
  in

  let complete task =
    let done_t = done_time task in
    let latency = done_t -. task.ck.c_arrive in
    incr completed;
    (tstat task).t_completed <- (tstat task).t_completed + 1;
    Obs.Obs.count_via c_completed;
    (* same data, same bucket extraction: the registry's p99 for
       sched/latency_ns matches the report's percentile table *)
    Obs.Obs.observe_via s_latency latency;
    Obs.Histogram.observe lat_hist latency;
    if slo_on then Obs.Histogram.observe slo_hist latency;
    note_done done_t;
    let tail_anom = spec.tail_slo_ns > 0.0 && latency > spec.tail_slo_ns in
    if tail_anom then begin
      incr tail_breaches;
      if Obs.Obs.enabled () then
        Obs.Obs.event ~ts_ns:done_t ~scope:"sched" ~kind:"sched.tail_breach"
          [
            ("qid", Obs.Event_log.I task.qid);
            ("latency_ns", Obs.Event_log.F latency);
            ("threshold_ns", Obs.Event_log.F spec.tail_slo_ns);
          ]
    end;
    tlogf task "%.0f done q%d latency=%.0f" done_t task.qid latency;
    settle task
      (Completed { latency_ns = latency })
      ~start_ns:task.ck.c_start ~done_ns:done_t ~anom:tail_anom;
    slo_tick done_t;
    decr inflight;
    release_lane task;
    epc_resident := !epc_resident - prof_ws.(task.prof);
    dispatch done_t;
    session_next task.session done_t
  in

  (* one compiled-tape charge: route to the server, advance the task's
     clock, and push the segment into the per-lane ring (keeping the
     most recent [lane_frames] undecided, flight-recorder-style).
     Zero-ns charges are skipped entirely (no clock movement, no
     segment). *)
  let seg_push task label start fin =
    let cur = Array.length task.seg_labels in
    (* grow geometrically toward [seg_cap]; the ring stays linear
       (start = 0) until it reaches full capacity, so growth is a plain
       blit — an uncapped ring never wraps *)
    if task.seg_len = cur && cur < seg_cap then begin
      let cap' = min seg_cap (max 4 (2 * cur)) in
      let labels' = Array.make cap' "" in
      let times' = Array.make (2 * cap') 0.0 in
      Array.blit task.seg_labels 0 labels' 0 cur;
      Array.blit task.seg_times 0 times' 0 (2 * cur);
      task.seg_labels <- labels';
      task.seg_times <- times'
    end;
    let cap = Array.length task.seg_labels in
    if task.seg_len < cap then begin
      let j = (task.seg_start + task.seg_len) mod cap in
      task.seg_labels.(j) <- label;
      task.seg_times.(2 * j) <- start;
      task.seg_times.((2 * j) + 1) <- fin;
      task.seg_len <- task.seg_len + 1
    end
    else begin
      task.seg_labels.(task.seg_start) <- label;
      task.seg_times.(2 * task.seg_start) <- start;
      task.seg_times.((2 * task.seg_start) + 1) <- fin;
      task.seg_start <- (task.seg_start + 1) mod seg_cap
    end
  in
  let exec_charge task ~kind ~idx ~epc ~ns ~label =
    if ns > 0.0 then begin
      let dur = if epc then ns *. epc_factor task else ns in
      if kind = k_host then begin
        let start = Server.request host_srv ~at:task.ck.c_h ~duration_ns:dur in
        let fin = start +. dur in
        task.ck.c_h <- fin;
        seg_push task label start fin
      end
      else begin
        let srv =
          if kind = k_device then srv_device.(idx) else srv_cores.(idx)
        in
        let start = Server.request srv ~at:task.s.(idx) ~duration_ns:dur in
        let fin = start +. dur in
        task.s.(idx) <- fin;
        task.last_s <- idx;
        seg_push task label start fin
      end
    end
  in
  let step task =
    let c = task.cursor in
    if c < 0 then begin
      (* per-query control-path charge (policy check) on the host *)
      task.cursor <- 0;
      exec_charge task ~kind:k_host ~idx:0 ~epc:false ~ns:spec.control_ns
        ~label:control_label;
      push (ready_time task) task.step_act
    end
    else
      let p = progs.(task.prof) in
      if c >= p.ct_len then complete task
      else begin
        task.cursor <- c + 1;
        let kind = p.ct_kind.(c) in
        if kind = k_sync then begin
          (* the tape's sync carries no node name: a sync always
             follows charges to the node it pairs with, so it rides
             that node's channel *)
          let idx = task.last_s in
          let transfer_ns = p.ct_ns.(c) in
          let at = Float.max task.ck.c_h task.s.(idx) in
          let fin =
            if transfer_ns > 0.0 then begin
              let start =
                Server.request srv_channel.(idx) ~at ~duration_ns:transfer_ns
              in
              seg_push task sync_label.(idx) start (start +. transfer_ns);
              start +. transfer_ns
            end
            else at
          in
          task.ck.c_h <- fin;
          task.s.(idx) <- fin
        end
        else
          exec_charge task ~kind ~idx:p.ct_idx.(c) ~epc:p.ct_epc.(c)
            ~ns:p.ct_ns.(c) ~label:p.ct_label.(c);
        push (ready_time task) task.step_act
      end
  in

  (* seed the arrival process *)
  (match spec.arrival with
  | Open_loop { qps } ->
      let mean_gap = 1e9 /. qps in
      let t = ref 0.0 in
      for _ = 1 to spec.queries do
        t := !t +. Sim.Prng.exponential prng ~mean_ns:mean_gap;
        let tenant = Sim.Prng.rand_int prng n_tenants in
        let prof = draw_profile () in
        push !t (Arrive (new_task ~session:(-1) ~tenant ~arrive_ns:!t prof))
      done;
      remaining := 0
  | Closed_loop { sessions; _ } ->
      for s = 0 to sessions - 1 do
        if !remaining > 0 then begin
          decr remaining;
          submit_session_query s 0.0
        end
      done);

  (* main loop *)
  while not (Event_queue.is_empty queue) do
    let t = Event_queue.min_time queue in
    let action = Event_queue.pop queue in
    incr n_events;
    match action with Arrive task -> arrive task t | Step task -> step task
  done;

  let makespan_ns = !makespan in
  if slo_on then begin
    (* close the last partial tick so the summaries cover the run *)
    slo_flush makespan_ns;
    if Obs.Obs.enabled () then
      Obs.Obs.event ~ts_ns:makespan_ns ~scope:"sched" ~kind:"slo.summary"
        (List.concat_map
           (fun slo ->
             let s = Obs.Slo.summary slo in
             [
               ( s.Obs.Slo.sum_name ^ ".breaches",
                 Obs.Event_log.I s.Obs.Slo.sum_breaches );
               ( s.Obs.Slo.sum_name ^ ".worst_burn",
                 Obs.Event_log.F s.Obs.Slo.sum_worst_burn );
             ])
           [ lat_slo; err_slo ])
  end;
  (* reassemble retained forensics — anomalous lanes plus reservoir
     exemplars, records back in qid order and log lines merged by their
     global sequence (a chronological subsequence of the full log, all
     of it under [sample_sessions = -1]) *)
  let retained =
    List.rev !kept_rev @ (Array.to_list reservoir |> List.filter_map Fun.id)
  in
  let rep_records =
    List.sort
      (fun (a : record) b -> Int.compare a.r_qid b.r_qid)
      (List.map fst retained)
  in
  let rep_event_log =
    List.concat_map snd retained
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  (* latency digest from the log-bucketed histogram: mean and max exact,
     percentiles bucket-resolution nearest-rank — the extraction the
     metrics registry applies to sched/latency_ns, so the two p99s agree
     on the same completions *)
  let latency =
    let v = Obs.Histogram.view lat_hist in
    if v.Obs.Histogram.v_count = 0 then
      { mean_ns = 0.0; p50_ns = 0.0; p95_ns = 0.0; p99_ns = 0.0; max_ns = 0.0 }
    else
      {
        mean_ns = v.Obs.Histogram.v_sum /. float_of_int v.Obs.Histogram.v_count;
        p50_ns = Obs.Histogram.percentile_of_view v 0.50;
        p95_ns = Obs.Histogram.percentile_of_view v 0.95;
        p99_ns = Obs.Histogram.percentile_of_view v 0.99;
        max_ns = v.Obs.Histogram.v_max;
      }
  in
  {
    rep_config = config;
    rep_spec = spec;
    rep_submitted = !submitted;
    rep_completed = !completed;
    rep_shed = !shed;
    rep_denied = !denied;
    rep_makespan_ns = makespan_ns;
    rep_throughput_qps =
      (if makespan_ns > 0.0 then float_of_int !completed /. (makespan_ns /. 1e9)
       else 0.0);
    rep_latency = latency;
    rep_per_tenant =
      List.map (fun t -> (t, Hashtbl.find tenant_stats t)) spec.tenants;
    rep_records;
    rep_event_log;
    rep_util =
      List.map
        (fun srv -> (Server.name srv, Server.utilization srv ~makespan_ns))
        ((host_srv
         :: List.concat_map
              (fun i -> [ srv_cores.(i); srv_device.(i) ])
              (List.init n_storage Fun.id))
        @ Array.to_list srv_channel);
    rep_events = !n_events;
    rep_wall_ns = (Unix.gettimeofday () -. wall0) *. 1e9;
    rep_peak_words = (Gc.quick_stat ()).Gc.top_heap_words;
    rep_anomalous = !anomalous;
    rep_tail_breaches = !tail_breaches;
    rep_slo =
      (if slo_on then [ Obs.Slo.summary lat_slo; Obs.Slo.summary err_slo ]
       else []);
  }

(* -- tenant gate through the trusted monitor --------------------------- *)

(* Each query is authorized under its tenant's principal: the monitor
   checks the access policy, logs obligations/denials in the audit log
   and issues (then releases) a session key — the control-path work the
   [control_ns] charge accounts for on the virtual clocks. *)
let monitor_gate ?(database = "ironsafe") deploy =
  let monitor = deploy.Deployment.monitor in
  let catalog = Sql.Database.catalog deploy.Deployment.secure_db in
  fun ~tenant ~sql ->
    match
      Ironsafe_monitor.Trusted_monitor.authorize monitor ~catalog
        ~client_label:tenant ~database ~exec_policy:[] ~sql
    with
    | Error e -> Error e
    | Ok auth ->
        Ironsafe_monitor.Trusted_monitor.session_cleanup monitor
          auth.Ironsafe_monitor.Trusted_monitor.auth_session_key;
        Ok ()

(* -- rendering --------------------------------------------------------- *)

let ms ns = ns /. 1e6

let percentile_table r =
  Printf.sprintf
    "%s %s completed=%d shed=%d denied=%d qps=%.3f p50=%.3fms p95=%.3fms p99=%.3fms mean=%.3fms max=%.3fms"
    (Config.abbrev r.rep_config)
    (arrival_name r.rep_spec.arrival)
    r.rep_completed r.rep_shed r.rep_denied r.rep_throughput_qps
    (ms r.rep_latency.p50_ns) (ms r.rep_latency.p95_ns)
    (ms r.rep_latency.p99_ns) (ms r.rep_latency.mean_ns)
    (ms r.rep_latency.max_ns)

let pp_report ppf r =
  Fmt.pf ppf "workload %s under %s:@." (arrival_name r.rep_spec.arrival)
    (Config.abbrev r.rep_config);
  Fmt.pf ppf "  submitted %d, completed %d, shed %d, denied %d@."
    r.rep_submitted r.rep_completed r.rep_shed r.rep_denied;
  Fmt.pf ppf "  makespan %.3f ms, throughput %.2f q/s@." (ms r.rep_makespan_ns)
    r.rep_throughput_qps;
  Fmt.pf ppf "  latency p50 %.3f / p95 %.3f / p99 %.3f / max %.3f ms@."
    (ms r.rep_latency.p50_ns) (ms r.rep_latency.p95_ns)
    (ms r.rep_latency.p99_ns) (ms r.rep_latency.max_ns);
  List.iter
    (fun (tenant, (st : tenant_stats)) ->
      Fmt.pf ppf "  tenant %-12s submitted=%d completed=%d shed=%d denied=%d@."
        tenant st.t_submitted st.t_completed st.t_shed st.t_denied)
    r.rep_per_tenant;
  List.iter
    (fun (name, u) -> Fmt.pf ppf "  util %-16s %5.1f%%@." name (100.0 *. u))
    r.rep_util;
  if r.rep_spec.tail_slo_ns > 0.0 then begin
    Fmt.pf ppf "  tail threshold %.3f ms: %d breaches, %d anomalous retained@."
      (ms r.rep_spec.tail_slo_ns) r.rep_tail_breaches r.rep_anomalous;
    List.iter
      (fun s -> Fmt.pf ppf "  slo %s@." (Obs.Slo.summary_line s))
      r.rep_slo
  end

let json_of_report r =
  let b = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  addf "{\"config\":%S," (Config.abbrev r.rep_config);
  (match r.rep_spec.arrival with
  | Open_loop { qps } -> addf "\"mode\":\"open\",\"qps\":%.3f," qps
  | Closed_loop { sessions; think_ns } ->
      addf "\"mode\":\"closed\",\"sessions\":%d,\"think_ms\":%.3f," sessions
        (ms think_ns));
  addf "\"seed\":%d,\"tenants\":%d," r.rep_spec.seed
    (List.length r.rep_spec.tenants);
  addf "\"submitted\":%d,\"completed\":%d,\"shed\":%d,\"denied\":%d,"
    r.rep_submitted r.rep_completed r.rep_shed r.rep_denied;
  addf "\"makespan_ms\":%.6f,\"throughput_qps\":%.6f," (ms r.rep_makespan_ns)
    r.rep_throughput_qps;
  addf
    "\"latency_ms\":{\"mean\":%.6f,\"p50\":%.6f,\"p95\":%.6f,\"p99\":%.6f,\"max\":%.6f},"
    (ms r.rep_latency.mean_ns) (ms r.rep_latency.p50_ns)
    (ms r.rep_latency.p95_ns) (ms r.rep_latency.p99_ns)
    (ms r.rep_latency.max_ns);
  addf "\"per_tenant\":[";
  List.iteri
    (fun i (tenant, (st : tenant_stats)) ->
      if i > 0 then addf ",";
      addf "{\"tenant\":%S,\"submitted\":%d,\"completed\":%d,\"shed\":%d,\"denied\":%d}"
        tenant st.t_submitted st.t_completed st.t_shed st.t_denied)
    r.rep_per_tenant;
  addf "],\"utilization\":{";
  List.iteri
    (fun i (name, u) ->
      if i > 0 then addf ",";
      addf "%S:%.6f" name u)
    r.rep_util;
  addf "}";
  (* the SLO block appears only when the watchdog was armed *)
  if r.rep_spec.tail_slo_ns > 0.0 then begin
    addf ",\"tail_breaches\":%d,\"anomalous\":%d," r.rep_tail_breaches
      r.rep_anomalous;
    addf "\"slo\":[";
    List.iteri
      (fun i s ->
        if i > 0 then addf ",";
        addf "%s" (Obs.Slo.summary_json s))
      r.rep_slo;
    addf "]"
  end;
  addf "}";
  Buffer.contents b

(* -- Chrome trace lanes ------------------------------------------------ *)

(* One lane (pid/tid) per concurrent session: closed-loop sessions map
   to their session id, open-loop queries to the admission lane they
   occupied. Queue wait renders as an explicit child segment. *)
let to_spans ?(offset_ns = 0.0) r =
  let mk ~name ~scope ~kind ~attrs b e =
    let s = Obs.Span.make ~name ~scope ~kind ~attrs (offset_ns +. b) in
    s.Obs.Span.end_ns <- offset_ns +. e;
    s
  in
  List.map
    (fun rc ->
      match rc.r_outcome with
      | Completed { latency_ns } ->
          (* the root span occupies the lane [start, done] — a lane runs
             one query at a time, so roots on a track never overlap;
             queue wait is carried as an attribute (the lane was not
             ours yet). Each resource's segments go on a per-resource
             sub-track of the lane: host and storage clocks advance
             concurrently within one query, and B/E events on a single
             Chrome track must nest. *)
          let scope = Printf.sprintf "session-%d" rc.r_lane in
          let queued_ns = rc.r_start_ns -. rc.r_arrive_ns in
          let root =
            mk
              ~name:(Printf.sprintf "%s#%d" rc.r_label rc.r_qid)
              ~scope ~kind:Obs.Span.Complete
              ~attrs:
                ([
                   ("tenant", rc.r_tenant);
                   ("config", Config.abbrev r.rep_config);
                   ("latency_ms", Printf.sprintf "%.3f" (ms latency_ns));
                 ]
                @
                if queued_ns > 0.0 then
                  [ ("queued_ms", Printf.sprintf "%.3f" (ms queued_ns)) ]
                else [])
              rc.r_start_ns rc.r_done_ns
          in
          let track name =
            let res =
              match String.index_opt name '.' with
              | Some i -> String.sub name 0 i
              | None -> name
            in
            scope ^ "." ^ res
          in
          let children =
            List.map
              (fun (name, b, e) ->
                mk ~name ~scope:(track name) ~kind:Obs.Span.Complete ~attrs:[]
                  b e)
              rc.r_segments
          in
          root.Obs.Span.children_rev <- List.rev children;
          root
      | Shed _ ->
          mk
            ~name:(Printf.sprintf "shed#%d" rc.r_qid)
            ~scope:"sched" ~kind:Obs.Span.Instant
            ~attrs:[ ("tenant", rc.r_tenant); ("reason", "queue_full") ]
            rc.r_arrive_ns rc.r_arrive_ns
      | Denied reason ->
          mk
            ~name:(Printf.sprintf "denied#%d" rc.r_qid)
            ~scope:"sched" ~kind:Obs.Span.Instant
            ~attrs:[ ("tenant", rc.r_tenant); ("reason", reason) ]
            rc.r_arrive_ns rc.r_arrive_ns)
    r.rep_records

let trace_json r = Obs.Chrome_trace.to_json (to_spans r)

(* Splice the lanes into the global observability collector (no-op with
   tracing off), shifted past everything already recorded so the bench
   --trace-out file keeps a monotonic timeline. *)
let add_to_collector r =
  if Obs.Obs.enabled () then begin
    Obs.Obs.new_epoch ();
    let off = Obs.Span.current_epoch () in
    List.iter Obs.Span.add_root (to_spans ~offset_ns:off r)
  end
