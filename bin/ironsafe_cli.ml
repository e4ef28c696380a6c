(* ironsafe-cli: run policy-checked SQL against a simulated IronSafe
   deployment from the command line.

     ironsafe-cli query --sql "select ..." [--config scs] [--scale 0.005]
                        [--profile] [--shards N] [--partition-scheme hash]
     ironsafe-cli tpch --id 6 [--config all] [--shards N]
     ironsafe-cli shell            (interactive; \policy and \config)

   With --shards N (N > 1) the tables are partitioned across N storage
   nodes, each attested under its own TrustZone identity, and SELECTs
   scatter-gather across them; results are exactly the single-node
   results. --shards 1 (the default) runs on the deployment's own
   storage node. query and shell statements go through Engine.submit.

   The deployment is built fresh per invocation (TPC-H data at the
   requested scale factor), attested, and queries flow through the
   trusted monitor with the given access policy. *)

open Cmdliner
open Ironsafe
module Sql = Ironsafe_sql
module Tpch = Ironsafe_tpch
module Fault = Ironsafe_fault.Fault
module Cluster = Ironsafe_cluster.Cluster

let build_deployment ?(faults = Fault.none) ?(pool_frames = 0) scale =
  Deployment.create ~seed:"ironsafe-cli" ~faults ~pool_frames
    ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale))
    ()

(* The deployment partitioned over [shards] storage nodes (one shard is
   the deployment's own storage node); [Engine.submit] attests it *)
let build_cluster ?faults ?pool_frames ~shards ~scheme scale =
  Cluster.create ~shards ~scheme (build_deployment ?faults ?pool_frames scale)

let attested cl =
  match Cluster.attest_reliable cl with
  | Ok () -> cl
  | Error e -> failwith ("attestation failed: " ^ e)

let setup_engine cl policy =
  let engine = Cluster.engine cl in
  ignore (Engine.register_client engine ~label:"cli" ~reuse_bit:0 ());
  Engine.set_access_policy engine policy;
  engine

let config_conv =
  let parse s =
    match Config.of_string s with
    | Some c -> Ok c
    | None -> Error (`Msg (Printf.sprintf "unknown config %s (hons/hos/vcs/scs/sos)" s))
  in
  Arg.conv (parse, Config.pp)

let scale_arg =
  Arg.(value & opt float 0.005 & info [ "scale" ] ~docv:"SF" ~doc:"TPC-H scale factor.")

let config_arg =
  Arg.(
    value
    & opt config_conv Config.Scs
    & info [ "config" ] ~docv:"CONF" ~doc:"Execution configuration (Table 2).")

let policy_arg =
  Arg.(
    value
    & opt string "read ::= sessionKeyIs(cli)\nwrite ::= sessionKeyIs(cli)"
    & info [ "policy" ] ~docv:"POLICY" ~doc:"Access policy source.")

let fault_profile_conv =
  let parse s =
    match Fault.profile_of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown fault profile %s (none/flaky-net/bit-rot/hostile)" s))
  in
  Arg.conv (parse, fun ppf p -> Fmt.string ppf (Fault.profile_name p))

let fault_profile_arg =
  Arg.(
    value
    & opt fault_profile_conv Fault.Profile_none
    & info [ "fault-profile" ] ~docv:"PROFILE"
        ~doc:"Fault-injection profile: $(b,none), $(b,flaky-net), $(b,bit-rot) or $(b,hostile).")

let fault_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:"Seed for the deterministic fault schedule (same seed, same incidents).")

let pool_frames_arg =
  Arg.(
    value & opt int 0
    & info [ "pool-frames" ] ~docv:"N"
        ~doc:
          "Decrypted-page buffer pool size in frames for both media (0 \
           disables the pool entirely; reads then always hit the backend).")

let shards_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "--shards must be >= 1 (got %d)" n))
    | None -> Error (`Msg (Printf.sprintf "invalid shard count %S" s))
  in
  Arg.conv (parse, Fmt.int)

let shards_arg =
  Arg.(
    value & opt shards_conv 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Number of storage shards. $(b,1) (the default) runs on the \
           deployment's own storage node; $(b,N > 1) partitions every \
           table across N storage nodes, each attested under its own \
           TrustZone identity, and scatters SELECTs across them (writes \
           are refused). A split configuration runs host-only unless \
           every shard's device satisfies the execution policy.")

let scheme_conv =
  let parse s =
    match Partitioner.scheme_of_string s with
    | Some sch -> Ok sch
    | None ->
        Error (`Msg (Printf.sprintf "unknown partition scheme %s (hash/range)" s))
  in
  Arg.conv (parse, fun ppf sch -> Fmt.string ppf (Partitioner.scheme_name sch))

let scheme_arg =
  Arg.(
    value
    & opt scheme_conv Partitioner.Hash
    & info [ "partition-scheme" ] ~docv:"SCHEME"
        ~doc:
          "Row-to-shard assignment over the table's first integer column: \
           $(b,hash) or $(b,range).")

let fault_plan seed profile = Fault.of_profile ~seed profile

let print_faults faults =
  if Fault.enabled faults then begin
    Fmt.pr "-- faults: %a@." Fault.pp_stats (Fault.stats faults);
    List.iter
      (fun inc -> Fmt.pr "--   %a@." Fault.pp_incident inc)
      (Fault.incidents_since faults 0)
  end

let print_metrics (m : Runner.metrics) =
  Fmt.pr "-- %s: %.2f ms simulated, %d bytes shipped, %d pages scanned@."
    (Config.abbrev m.Runner.config)
    (m.Runner.end_to_end_ns /. 1e6)
    m.Runner.bytes_shipped m.Runner.pages_scanned

(* -- flight recorder / SLO flags (shared by query and workload) -------- *)

(* Parse-time validated converters: a bad value fails argument parsing
   (exit 124) instead of surfacing mid-run. *)
let nonneg_float_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some v when v >= 0.0 && Float.is_finite v -> Ok v
    | _ ->
        Error
          (`Msg (Printf.sprintf "%s must be a finite number >= 0, got %S" what s))
  in
  Arg.conv (parse, fun ppf v -> Format.fprintf ppf "%g" v)

let pos_int_conv what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "%s must be a positive integer, got %S" what s))
  in
  Arg.conv (parse, fun ppf v -> Format.fprintf ppf "%d" v)

let slo_p99_ms_arg =
  Arg.(
    value
    & opt (nonneg_float_conv "--slo-p99-ms") 0.0
    & info [ "slo-p99-ms" ] ~docv:"MS"
        ~doc:
          "Arm the tail-latency SLO: completions slower than $(docv) \
           milliseconds count as breaches, the burn-rate watchdog streams \
           over the run, and breaches trigger flight recorder dumps. 0 \
           (the default) leaves the watchdog off.")

let recorder_frames_arg =
  Arg.(
    value
    & opt (pos_int_conv "--recorder-frames") 256
    & info [ "recorder-frames" ] ~docv:"N"
        ~doc:
          "Flight recorder ring capacity per scope (default 256 frames). \
           Takes effect when the recorder is armed with $(b,--dump-dir).")

let dump_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-dir" ] ~docv:"DIR"
        ~doc:
          "Arm the flight recorder: keep per-scope rings of recent events, \
           charges and spans, and dump them (JSONL + Chrome trace) into \
           $(docv) whenever an anomaly fires — fault injection, policy \
           denial, crash/reject/degrade outcomes, WAL crashes, attestation \
           failures, SLO or tail-latency breaches. Created if missing. \
           Defaults to off.")

(* Single-query tail check: a run slower than the armed threshold emits
   a [query.tail_breach] event (a recorder trigger) and a warning. *)
let check_query_slo ~slo_p99_ms latency_ns =
  if slo_p99_ms > 0.0 && latency_ns > slo_p99_ms *. 1e6 then begin
    Ironsafe_obs.Obs.event ~ts_ns:latency_ns ~scope:"core"
      ~kind:"query.tail_breach"
      [
        ("latency_ns", Ironsafe_obs.Event_log.F latency_ns);
        ("threshold_ns", Ironsafe_obs.Event_log.F (slo_p99_ms *. 1e6));
      ];
    Fmt.pr "-- tail SLO breached: %.3f ms > %.3f ms threshold@."
      (latency_ns /. 1e6) slo_p99_ms
  end

let arm_recorder ~frames = function
  | None -> false
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Ironsafe_obs.Obs.enable ();
      Ironsafe_obs.Flight_recorder.configure ~frames ~dir ();
      Ironsafe_obs.Flight_recorder.enable ();
      true

let report_recorder () =
  if Ironsafe_obs.Flight_recorder.is_enabled () then begin
    let n = Ironsafe_obs.Flight_recorder.dump_count () in
    let dropped = Ironsafe_obs.Flight_recorder.dropped () in
    List.iter
      (fun (d : Ironsafe_obs.Flight_recorder.dump) ->
        match d.Ironsafe_obs.Flight_recorder.d_path with
        | Some p ->
            Fmt.pr "-- flight recorder dump (%s) written to %s@."
              d.Ironsafe_obs.Flight_recorder.d_reason p
        | None -> ())
      (Ironsafe_obs.Flight_recorder.dumps ());
    if n = 0 then Fmt.pr "-- flight recorder: no anomalies, no dumps@."
    else if dropped > 0 then
      Fmt.pr "-- flight recorder: %d dumps (%d past the cap dropped)@." n
        dropped;
    Ironsafe_obs.Flight_recorder.disable ()
  end

let write_artifact ?(validate = false) ~what file contents =
  if validate && not (Ironsafe_obs.Chrome_trace.is_valid_json contents) then begin
    Fmt.epr "internal error: emitted %s is not valid JSON@." what;
    exit 1
  end;
  let oc = open_out file in
  output_string oc contents;
  close_out oc;
  Fmt.pr "-- %s written to %s@." what file

(* Observability for one CLI query: arm the recorder and the collectors
   the flags ask for. Returns whether collection is on and the function
   that writes the requested artifacts once the query is over. *)
let start_exports ~profile ?trace_out ?jsonl_out ?metrics_out ~sample_every
    ~recorder_frames dump_dir =
  let recorder = arm_recorder ~frames:recorder_frames dump_dir in
  let obs_on =
    profile || trace_out <> None || jsonl_out <> None || metrics_out <> None
    || recorder
  in
  if obs_on then begin
    Ironsafe_obs.Obs.enable ();
    Ironsafe_obs.Obs.set_sample_every sample_every;
    (* stream the event log: events reach the file as they happen, and
       terminal outcomes (crash/reject) force a flush — the log survives
       even if the process dies mid-query *)
    match jsonl_out with
    | Some f -> Ironsafe_obs.Event_log.open_sink f
    | None -> ()
  end;
  let write_exports () =
    (match trace_out with
    | Some f ->
        write_artifact ~validate:true ~what:"trace" f
          (Ironsafe_obs.Obs.to_chrome_json ())
    | None -> ());
    (match jsonl_out with
    | Some f ->
        Ironsafe_obs.Event_log.close_sink ();
        Fmt.pr "-- event log (JSONL) streamed to %s@." f
    | None -> ());
    (match metrics_out with
    | Some f ->
        write_artifact ~what:"metrics (OpenMetrics)" f
          (Ironsafe_obs.Obs.to_openmetrics ())
    | None -> ());
    report_recorder ()
  in
  (obs_on, write_exports)

let run_query ?(profile = false) ?trace_out ?jsonl_out ?metrics_out
    ?(sample_every = 1) ?(faults = Fault.none) ?(pool_frames = 0)
    ?(recorder_frames = 256) ?dump_dir ?(slo_p99_ms = 0.0) ~shards ~scheme
    scale config policy sql =
  let obs_on, write_exports =
    start_exports ~profile ?trace_out ?jsonl_out ?metrics_out ~sample_every
      ~recorder_frames dump_dir
  in
  let cl = build_cluster ~faults ~pool_frames ~shards ~scheme scale in
  let engine = setup_engine cl policy in
  match Engine.submit engine ~client:"cli" ~config ~sql () with
  | Error e ->
      Fmt.epr "error: %s@." e;
      print_faults faults;
      (* the event log of a denial is forensic evidence: still export *)
      write_exports ();
      1
  | Ok resp ->
      Fmt.pr "%a" Sql.Exec.pp_result resp.Engine.resp_result;
      print_metrics resp.Engine.resp_metrics;
      (match resp.Engine.resp_metrics.Runner.profile with
      | Some p when profile ->
          Fmt.pr "-- profile (virtual time):@.%a@." Ironsafe_obs.Obs.pp_profile p
      | _ -> ());
      if Cluster.nshards cl > 1 then begin
        Fmt.pr "-- gather: %s over %d shards (%s partitioning)@."
          (Cluster.gather_operator cl sql)
          (Cluster.nshards cl) (Partitioner.scheme_name scheme);
        if obs_on then
          Fmt.pr "-- scatter latency (per shard, bucket-merged):@.%s"
            (Cluster.scatter_latency_table cl)
      end;
      print_faults faults;
      Fmt.pr "-- proof of compliance: %s@."
        (if Engine.verify_response engine resp ~sql then "verified" else "INVALID");
      check_query_slo ~slo_p99_ms
        resp.Engine.resp_metrics.Runner.end_to_end_ns;
      write_exports ();
      0

let query_cmd =
  let sql =
    Arg.(required & opt (some string) None & info [ "sql" ] ~docv:"SQL" ~doc:"Statement to run.")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print the host/storage split instead of running.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Print the span tree and metrics of the run (virtual time).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace of the query (host and storage lanes \
             linked by flow arrows) to $(docv).")
  in
  let jsonl_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl-out" ] ~docv:"FILE"
          ~doc:
            "Write the structured query-lifecycle event log (plan split, \
             policy decisions, attestations, faults) as JSONL to $(docv).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the metrics registry in OpenMetrics text format to $(docv).")
  in
  let sample_every =
    Arg.(
      value & opt int 1
      & info [ "sample-every" ] ~docv:"N"
          ~doc:
            "Collect spans for every $(docv)-th query only (metrics and \
             events are always collected while observability is on).")
  in
  let run scale config policy explain profile trace_out jsonl_out metrics_out
      sample_every fault_seed fault_profile pool_frames shards scheme
      recorder_frames dump_dir slo_p99_ms sql =
    if explain then begin
      let deploy = build_deployment scale in
      let plan =
        Partitioner.split
          (Sql.Database.catalog deploy.Deployment.plain_db)
          (Sql.Parser.parse sql)
      in
      print_string (Partitioner.describe plan);
      0
    end
    else
      run_query ~profile ?trace_out ?jsonl_out ?metrics_out ~sample_every
        ~faults:(fault_plan fault_seed fault_profile)
        ~pool_frames ~recorder_frames ?dump_dir ~slo_p99_ms ~shards ~scheme
        scale config policy sql
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run one policy-checked SQL statement")
    Term.(
      const run $ scale_arg $ config_arg $ policy_arg $ explain $ profile
      $ trace_out $ jsonl_out $ metrics_out $ sample_every $ fault_seed_arg
      $ fault_profile_arg $ pool_frames_arg $ shards_arg $ scheme_arg
      $ recorder_frames_arg $ dump_dir_arg $ slo_p99_ms_arg $ sql)

let tpch_cmd =
  let id =
    Arg.(required & opt (some int) None & info [ "id" ] ~docv:"N" ~doc:"TPC-H query number.")
  in
  let all =
    Arg.(value & flag & info [ "all-configs" ] ~doc:"Run under all five configurations.")
  in
  let run scale config all fault_seed fault_profile pool_frames shards scheme
      id =
    let q = Tpch.Queries.by_id_complete id in
    let faults = fault_plan fault_seed fault_profile in
    let cl = attested (build_cluster ~faults ~pool_frames ~shards ~scheme scale) in
    let configs = if all then Config.all else [ config ] in
    let code = ref 0 in
    List.iter
      (fun cfg ->
        match Cluster.run_query_outcome cl cfg q.Tpch.Queries.sql with
        | Runner.Ok m | Runner.Degraded (m, _) ->
            if List.length configs = 1 then
              Fmt.pr "%a" Sql.Exec.pp_result m.Runner.result;
            print_metrics m
        | Runner.Rejected v | Runner.Crashed v ->
            Fmt.pr "-- %s: rejected (%a)@." (Config.abbrev cfg)
              Runner.pp_violation v;
            code := 1)
      configs;
    print_faults faults;
    !code
  in
  Cmd.v
    (Cmd.info "tpch" ~doc:"Run a TPC-H query under one or all configurations")
    Term.(
      const run $ scale_arg $ config_arg $ all $ fault_seed_arg
      $ fault_profile_arg $ pool_frames_arg $ shards_arg $ scheme_arg $ id)

let workload_cmd =
  let module Sched = Ironsafe_sched.Sched in
  let qps =
    Arg.(
      value
      & opt (some float) None
      & info [ "qps" ] ~docv:"QPS"
          ~doc:"Open-loop mode: Poisson arrivals at this rate.")
  in
  let sessions =
    Arg.(
      value & opt int 4
      & info [ "sessions" ] ~docv:"N"
          ~doc:"Closed-loop mode (default): number of concurrent sessions.")
  in
  let think_ms =
    Arg.(
      value & opt float 2.0
      & info [ "think-ms" ] ~docv:"MS"
          ~doc:"Closed-loop mean think time between a session's queries.")
  in
  let queries =
    Arg.(
      value & opt int 64
      & info [ "queries" ] ~docv:"N" ~doc:"Total queries to submit.")
  in
  let tenants =
    Arg.(
      value & opt int 2
      & info [ "tenants" ] ~docv:"N"
          ~doc:"Number of tenants (each registered with the monitor).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Workload seed (same seed, same schedule).")
  in
  let max_inflight =
    Arg.(
      value & opt int 8
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Admission bound: queries executing concurrently.")
  in
  let queue_depth =
    Arg.(
      value & opt int 16
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Run-queue depth; arrivals beyond it are shed.")
  in
  let sample_sessions =
    Arg.(
      value & opt int (-1)
      & info [ "sample-sessions" ] ~docv:"N"
          ~doc:
            "Forensics retention: every anomalous lane (shed, denied, tail \
             breach) plus a deterministic reservoir of $(docv) normal lanes \
             keep their event log lines, per-query records and trace \
             segments. Counts, per-tenant stats, utilization and latency \
             percentiles stay exact over every session. -1 (the default) \
             keeps every lane in full.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace (one lane per session) to $(docv).")
  in
  let lane_frames =
    Arg.(
      value
      & opt (pos_int_conv "--lane-frames") 32
      & info [ "lane-frames" ] ~docv:"N"
          ~doc:
            "Per-session ring of recent trace segments held while the \
             lane's verdict is undecided (default 32). Ignored at \
             --sample-sessions -1, which keeps every segment.")
  in
  let run scale config qps sessions think_ms queries tenants seed max_inflight
      queue_depth sample_sessions json trace_out pool_frames shards scheme
      slo_p99_ms recorder_frames dump_dir lane_frames =
    let recorder = arm_recorder ~frames:recorder_frames dump_dir in
    if recorder then Ironsafe_obs.Obs.enable ();
    let cl = attested (build_cluster ~pool_frames ~shards ~scheme scale) in
    let deploy = Cluster.base cl in
    let tenant_names =
      List.init (max 1 tenants) (Printf.sprintf "tenant-%d")
    in
    let engine = Cluster.engine cl in
    List.iter
      (fun t -> ignore (Engine.register_client engine ~label:t ()))
      tenant_names;
    Engine.set_access_policy engine
      (Printf.sprintf "read ::= %s"
         (String.concat " | "
            (List.map (Printf.sprintf "sessionKeyIs(%s)") tenant_names)));
    let p = deploy.Deployment.params in
    let mix = [ 1; 6; 14 ] in
    let profiles =
      List.map
        (fun id ->
          let q = Tpch.Queries.by_id id in
          let stmt = Sql.Parser.parse q.Tpch.Queries.sql in
          Sched.profile_run
            ~working_set:(Sched.host_working_set deploy)
            ~label:(Printf.sprintf "q%d" id) ~sql:q.Tpch.Queries.sql config
            (fun () -> Cluster.run_stmt cl config stmt))
        mix
    in
    let spec =
      {
        Sched.default_spec with
        Sched.seed;
        arrival =
          (match qps with
          | Some q -> Sched.Open_loop { qps = q }
          | None ->
              Sched.Closed_loop { sessions; think_ns = think_ms *. 1e6 });
        queries;
        tenants = tenant_names;
        max_inflight;
        queue_depth;
        sample_sessions;
        lane_frames;
        tail_slo_ns = slo_p99_ms *. 1e6;
        control_ns =
          p.Ironsafe_sim.Params.monitor_policy_ns
          +. p.Ironsafe_sim.Params.monitor_session_ns;
      }
    in
    let gate = Sched.monitor_gate deploy in
    let report =
      Sched.run ~gate ~storage_nodes:(Cluster.storage_nodes cl) deploy spec
        profiles
    in
    if json then print_endline (Sched.json_of_report report)
    else Fmt.pr "%a" Sched.pp_report report;
    (match trace_out with
    | None -> ()
    | Some file ->
        let trace = Sched.trace_json report in
        if not (Ironsafe_obs.Chrome_trace.is_valid_json trace) then begin
          Fmt.epr "internal error: emitted trace is not valid JSON@.";
          exit 1
        end;
        let oc = open_out file in
        output_string oc trace;
        close_out oc;
        Fmt.pr "-- trace written to %s (open in Perfetto)@." file);
    report_recorder ();
    if report.Sched.rep_completed > 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Simulate a multi-tenant concurrent workload (discrete-event) and \
          report throughput and tail latency")
    Term.(
      const run $ scale_arg $ config_arg $ qps $ sessions $ think_ms $ queries
      $ tenants $ seed $ max_inflight $ queue_depth $ sample_sessions $ json
      $ trace_out $ pool_frames_arg $ shards_arg $ scheme_arg $ slo_p99_ms_arg
      $ recorder_frames_arg $ dump_dir_arg $ lane_frames)

let shell_cmd =
  let run scale policy =
    let cl = build_cluster ~shards:1 ~scheme:Partitioner.Hash scale in
    let engine = setup_engine cl policy in
    let config = ref Config.Scs in
    Fmt.pr "IronSafe shell (scale %g). \\config <c> to switch, \\quit to exit.@." scale;
    let rec loop () =
      Fmt.pr "ironsafe[%s]> %!" (Config.abbrev !config);
      match input_line stdin with
      | exception End_of_file -> 0
      | "\\quit" | "\\q" -> 0
      | "" -> loop ()
      | line when String.length line > 8 && String.sub line 0 8 = "\\config " -> (
          match Config.of_string (String.trim (String.sub line 8 (String.length line - 8))) with
          | Some c ->
              config := c;
              loop ()
          | None ->
              Fmt.pr "unknown config@.";
              loop ())
      | line ->
          (match Engine.submit engine ~client:"cli" ~config:!config ~sql:line () with
          | Ok resp ->
              Fmt.pr "%a" Sql.Exec.pp_result resp.Engine.resp_result;
              print_metrics resp.Engine.resp_metrics
          | Error e -> Fmt.pr "error: %s@." e);
          loop ()
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "shell" ~doc:"Interactive policy-checked SQL shell")
    Term.(const run $ scale_arg $ policy_arg)

let forensics_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR"
          ~doc:
            "Flight recorder dump directory (or any directory of JSONL \
             event logs).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"ID"
          ~doc:"Restrict the timeline to one trace id (hex).")
  in
  let run dir trace =
    print_string (Ironsafe_obs.Forensics.report_dir ?trace dir);
    0
  in
  Cmd.v
    (Cmd.info "forensics"
       ~doc:
         "Reconstruct per-query causal timelines (host/shard hops, WAL \
          records, fault sites, policy decisions, SLO breaches) from flight \
          recorder dumps and event logs")
    Term.(const run $ dir $ trace)

let () =
  let info =
    Cmd.info "ironsafe-cli" ~version:"1.0.0"
      ~doc:"Secure policy-compliant query processing on computational storage"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ query_cmd; tpch_cmd; workload_cmd; shell_cmd; forensics_cmd ]))
