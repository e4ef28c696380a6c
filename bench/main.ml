(* IronSafe experiment harness.

   Regenerates every table and figure of the paper's evaluation (§6):

     table2    system configurations
     figure6   TPC-H speedups (hons/vcs and hos/scs)
     figure7   data-movement (IO) reduction
     figure8   scs cost breakdown per query
     figure9a  input-size sweep (Q1; hos/scs/sos)
     figure9b  selectivity sweep (Q1; hos/scs/sos)
     figure9c  sos secure-storage breakdown (Q2, Q9)
     figure10  storage-CPU sweep (hos vs scs)
     figure11  storage-memory sweep (offloaded portion)
     figure12  storage-side multi-instance scalability
     table3    GDPR anti-pattern latencies (non-secure vs IronSafe)
     table4    attestation breakdown
     cluster   shard-count sweep (scatter-gather QPS) → BENCH_cluster.json

     microbench wall-clock ns/op of the hot-path kernels (AES, CBC,
                SHA-256/HMAC, Merkle, secure-store read, buffer-pool
                hit/miss, obs hooks on/off, scheduler event queue and
                tape cursor) → BENCH_hotpath.json

     saturation open-loop knee sweep at 10^5+ concurrent sessions
                (not part of "all"; --sat-sessions/--sat-queries/
                --sample-sessions/--saturation-out/--sat-floor/
                --sat-slo-p99-ms/--sat-dump-dir)
                → BENCH_saturation.json

   Usage: main.exe [--experiment <id>] [--scale <sf>] [--trace-out FILE]
          [--quick] [--bench-out FILE]
          [--check-floor FILE] [--sat-sessions N] [--sat-queries N]
          [--sample-sessions N] [--saturation-out FILE]
          [--sat-floor FILE] [--sat-slo-p99-ms MS] [--sat-dump-dir DIR]

   --quick shrinks the microbench measurement windows (CI mode);
   --check-floor compares the microbench results against a floor file
   (`kernel max-ns` lines) and fails the run if any kernel regresses
   past 2x its entry. --sat-floor fails the saturation sweep if its
   overall simulator throughput drops below the floor file's
   events-per-sec entry. --sat-slo-p99-ms arms the scheduler's
   tail-latency SLO (breach column + slo events); --sat-dump-dir arms
   the flight recorder for the sweep (anomaly dumps land there, and the
   --sat-floor bar relaxes to 0.9x, the recorder-overhead acceptance).

   With --trace-out, observability collection is enabled for the whole
   run and a Chrome trace_event JSON (virtual-time timestamps; open in
   Perfetto / chrome://tracing) is written to FILE on exit.

   Queries really execute on the real engine over the real storage
   backends; reported times are simulated (virtual) time from the
   calibrated cost model (DESIGN.md, EXPERIMENTS.md). The benchmark
   scale factor defaults to 0.01 (a ~6 MB database): absolute numbers
   are therefore much smaller than the paper's, but the ratios are the
   reproduction target. *)

open Ironsafe
module Sql = Ironsafe_sql
module Sim = Ironsafe_sim
module Tpch = Ironsafe_tpch
module C = Ironsafe_crypto
module Fault = Ironsafe_fault.Fault
module Sched = Ironsafe_sched.Sched

let default_scale = 0.01
let workload_seed = ref 42

(* Fault injection: a single plan (from --fault-seed/--fault-profile)
   shared by every deployment the harness builds. *)
let fault_plan = ref Fault.none
let fault_profile = ref Fault.Profile_none
let fault_seed = ref 42

(* ------------------------------------------------------------------ *)
(* Deployment cache: most experiments share one loaded deployment.    *)

let deployments : (string, Deployment.t) Hashtbl.t = Hashtbl.create 4

let deployment ?(params = Sim.Params.default) ~scale () =
  let key =
    Printf.sprintf "%f|%s" scale (Digest.string (Marshal.to_string params []))
  in
  match Hashtbl.find_opt deployments key with
  | Some d -> d
  | None ->
      let d =
        Deployment.create ~params ~seed:"ironsafe-bench" ~faults:!fault_plan
          ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale))
          ()
      in
      (match Deployment.attest_reliable d with
      | Ok () -> ()
      | Error e -> failwith ("attestation failed: " ^ e));
      Hashtbl.replace deployments key d;
      d

let ms ns = ns /. 1e6

let header title = Fmt.pr "@.=== %s ===@." title

(* Under a fault plan a query may be rejected rather than answered
   (e.g. persistent bit rot that survives the re-read budget); the
   harness degrades by abandoning the experiment, not the run. *)
exception Rejected_under_faults of string

let run d config sql =
  match Runner.run_query_outcome d config sql with
  | Runner.Ok m | Runner.Degraded (m, _) -> m
  | Runner.Rejected v | Runner.Crashed v ->
      raise (Rejected_under_faults (Fmt.str "%a" Runner.pp_violation v))

let breakdown_total m =
  Runner.total m.Runner.host_breakdown
  +. Runner.total m.Runner.storage_breakdown

let category m name =
  let get l = try List.assoc name l with Not_found -> 0.0 in
  get m.Runner.host_breakdown +. get m.Runner.storage_breakdown

(* ------------------------------------------------------------------ *)

let table2 _scale =
  header "Table 2: system configurations";
  Fmt.pr "%-6s %-32s %-6s %-7s@." "abbrv" "system" "split" "secure";
  List.iter
    (fun c ->
      Fmt.pr "%-6s %-32s %-6b %-7b@." (Config.abbrev c) (Config.description c)
        (Config.split_execution c) (Config.secure c))
    Config.all

let figure6 scale =
  header "Figure 6: TPC-H speedup from computational storage";
  let d = deployment ~scale () in
  Fmt.pr "%-4s %10s %10s %10s %10s %12s %12s@." "Q" "hons(ms)" "vcs(ms)"
    "hos(ms)" "scs(ms)" "hons/vcs" "hos/scs";
  let speedups_ns = ref [] and speedups_s = ref [] in
  List.iter
    (fun (q : Tpch.Queries.t) ->
      let hons = run d Config.Hons q.sql in
      let vcs = run d Config.Vcs q.sql in
      let hos = run d Config.Hos q.sql in
      let scs = run d Config.Scs q.sql in
      let s_ns = hons.Runner.end_to_end_ns /. vcs.Runner.end_to_end_ns in
      let s_s = hos.Runner.end_to_end_ns /. scs.Runner.end_to_end_ns in
      speedups_ns := s_ns :: !speedups_ns;
      speedups_s := s_s :: !speedups_s;
      Fmt.pr "%-4d %10.2f %10.2f %10.2f %10.2f %11.2fx %11.2fx@." q.id
        (ms hons.Runner.end_to_end_ns)
        (ms vcs.Runner.end_to_end_ns)
        (ms hos.Runner.end_to_end_ns)
        (ms scs.Runner.end_to_end_ns)
        s_ns s_s)
    Tpch.Queries.evaluated;
  let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  Fmt.pr "avg speedup: non-secure %.2fx, secure %.2fx@." (avg !speedups_ns)
    (avg !speedups_s)

let figure7 scale =
  header "Figure 7: IO (data movement) reduction, host-only vs CS";
  let d = deployment ~scale () in
  Fmt.pr "%-4s %14s %14s %10s@." "Q" "host-only(B)" "shipped(B)" "reduction";
  let reductions = ref [] in
  List.iter
    (fun (q : Tpch.Queries.t) ->
      let scs = run d Config.Scs q.sql in
      let full = scs.Runner.pages_scanned * 4096 in
      let red =
        if scs.Runner.bytes_shipped = 0 then Float.infinity
        else float_of_int full /. float_of_int scs.Runner.bytes_shipped
      in
      reductions := red :: !reductions;
      Fmt.pr "%-4d %14d %14d %9.2fx@." q.id full scs.Runner.bytes_shipped red)
    Tpch.Queries.evaluated;
  let finite = List.filter Float.is_finite !reductions in
  Fmt.pr "avg IO reduction: %.2fx@."
    (List.fold_left ( +. ) 0.0 finite /. float_of_int (List.length finite))

let figure8 scale =
  header "Figure 8: IronSafe (scs) relative cost breakdown";
  let d = deployment ~scale () in
  Fmt.pr "%-4s %8s %10s %11s %9s %7s@." "Q" "ndp%" "freshness%" "decryption%"
    "network%" "other%";
  List.iter
    (fun (q : Tpch.Queries.t) ->
      let m = run d Config.Scs q.sql in
      let tot = breakdown_total m in
      let pct name = 100.0 *. category m name /. tot in
      let ndp = pct "ndp" +. pct "io" in
      let fresh = pct "freshness" in
      let dec = pct "decryption" in
      let net = pct "network" in
      let other = 100.0 -. ndp -. fresh -. dec -. net in
      Fmt.pr "%-4d %8.1f %10.1f %11.1f %9.1f %7.1f@." q.id ndp fresh dec net
        other)
    Tpch.Queries.evaluated

(* Fig. 9 sweeps: the paper uses SF 3/4/5 on a 96 MiB EPC. We run the
   same experiment at ~1/300 of the scale with the EPC limit scaled by
   the same ratio, so the paging crossover lands between the second and
   third input size as in the paper (59/78/98 MiB vs 96 MiB EPC). *)
let fig9_scales = [ 0.010; 0.01333; 0.01667 ]

let fig9_params () =
  (* measure the hos working set at the largest scale, then place the
     EPC limit at 85% of it *)
  let probe_scale = List.nth fig9_scales 2 in
  let d = deployment ~scale:probe_scale () in
  ignore (run d Config.Hos (Tpch.Queries.q1_with_selectivity 0.15));
  let ws = Ironsafe_tee.Sgx.heap_used d.Deployment.host_enclave in
  { Sim.Params.default with Sim.Params.epc_limit_bytes = max 4096 (ws * 85 / 100) }

let figure9a _scale =
  header "Figure 9a: input size sweep (Q1 filter, sel=15%), lower is better";
  let params = fig9_params () in
  Fmt.pr "%-12s %12s %12s %12s@." "input(SF~)" "hos(ms)" "scs(ms)" "sos(ms)";
  List.iteri
    (fun i scale ->
      let d = deployment ~params ~scale () in
      let sql = Tpch.Queries.q1_with_selectivity 0.15 in
      let hos = run d Config.Hos sql in
      let scs = run d Config.Scs sql in
      let sos = run d Config.Sos sql in
      Fmt.pr "%-12s %12.2f %12.2f %12.2f@."
        (Printf.sprintf "%d" (i + 3))
        (ms hos.Runner.end_to_end_ns)
        (ms scs.Runner.end_to_end_ns)
        (ms sos.Runner.end_to_end_ns))
    fig9_scales

let figure9b _scale =
  header "Figure 9b: selectivity sweep (Q1 filter, SF~3), lower is better";
  let params = fig9_params () in
  let d = deployment ~params ~scale:(List.nth fig9_scales 0) () in
  Fmt.pr "%-12s %12s %12s %12s@." "selectivity" "hos(ms)" "scs(ms)" "sos(ms)";
  List.iter
    (fun sel ->
      let sql = Tpch.Queries.q1_with_selectivity sel in
      let hos = run d Config.Hos sql in
      let scs = run d Config.Scs sql in
      let sos = run d Config.Sos sql in
      Fmt.pr "%-12s %12.2f %12.2f %12.2f@."
        (Printf.sprintf "%.1f%%" (100.0 *. sel))
        (ms hos.Runner.end_to_end_ns)
        (ms scs.Runner.end_to_end_ns)
        (ms sos.Runner.end_to_end_ns))
    [ 0.10; 0.125; 0.15; 0.175; 0.20 ]

let figure9c scale =
  header "Figure 9c: sos secure-storage cost breakdown (Q2, Q9)";
  let d = deployment ~scale () in
  Fmt.pr "%-4s %10s %11s %9s %8s@." "Q" "fresh%" "decrypt%" "compute%" "other%";
  List.iter
    (fun qid ->
      let q = Tpch.Queries.by_id qid in
      let m = run d Config.Sos q.Tpch.Queries.sql in
      let tot = breakdown_total m in
      let pct name = 100.0 *. category m name /. tot in
      let fresh = pct "freshness" in
      let dec = pct "decryption" in
      let comp = pct "ndp" +. pct "io" in
      Fmt.pr "%-4d %10.1f %11.1f %9.1f %8.1f@." qid fresh dec comp
        (100.0 -. fresh -. dec -. comp))
    [ 2; 9 ]

let figure10 scale =
  header "Figure 10: storage CPU sweep (hos/scs speedup per core count)";
  let d0 = deployment ~scale () in
  let cores_list = [ 1; 2; 4; 8; 16 ] in
  Fmt.pr "%-4s" "Q";
  List.iter (fun c -> Fmt.pr " %8s" (Printf.sprintf "%dcpu" c)) cores_list;
  Fmt.pr "@.";
  List.iter
    (fun (q : Tpch.Queries.t) ->
      Fmt.pr "%-4d" q.id;
      List.iter
        (fun cores ->
          let d = Deployment.with_nodes ~storage_cores:cores d0 in
          let hos = run d Config.Hos q.sql in
          let scs = run d Config.Scs q.sql in
          Fmt.pr " %7.2fx"
            (hos.Runner.end_to_end_ns /. scs.Runner.end_to_end_ns))
        cores_list;
      Fmt.pr "@.")
    Tpch.Queries.evaluated

let figure11 scale =
  header
    "Figure 11: storage memory sweep (offloaded portion speedup vs 128 MiB)";
  let d0 = deployment ~scale () in
  (* the paper's 128 MiB / 256 MiB / 2 GiB, scaled with the data (1/100) *)
  let mems =
    [ ("128MiB", 750_000); ("256MiB", 1_500_000); ("2GiB", 12_000_000) ]
  in
  Fmt.pr "%-4s %10s %10s %10s@." "Q" "128MiB" "256MiB" "2GiB";
  List.iter
    (fun (q : Tpch.Queries.t) ->
      let storage_time mem =
        let d = Deployment.with_nodes ~storage_mem_limit:mem d0 in
        let m = run d Config.Scs q.sql in
        Runner.total m.Runner.storage_breakdown
      in
      let base = storage_time (snd (List.nth mems 0)) in
      Fmt.pr "%-4d" q.id;
      List.iter (fun (_, mem) -> Fmt.pr " %9.2fx" (base /. storage_time mem)) mems;
      Fmt.pr "@.")
    Tpch.Queries.evaluated

let figure12 scale =
  header
    "Figure 12: storage-side scalability (per-instance slowdown vs 1 \
     instance; 1.00 = linear)";
  let d0 = deployment ~scale () in
  let instances = [ 1; 2; 4; 8; 16 ] in
  (* N independent single-threaded engine instances, each running its
     query's offloaded portion on its own copy of the database (per the
     paper). The 16 storage cores absorb up to 16 instances; the shared
     storage RAM (32 GiB on the testbed, scaled ~1:10 to the data as in
     the paper's SF-3 setup) is the contended resource. *)
  let storage_ram = 64 * 1024 * 1024 in
  Fmt.pr "%-4s" "Q";
  List.iter (fun n -> Fmt.pr " %8s" (Printf.sprintf "%dinst" n)) instances;
  Fmt.pr "@.";
  List.iter
    (fun (q : Tpch.Queries.t) ->
      let d = Deployment.with_nodes ~storage_cores:1 d0 in
      let m = run d Config.Scs q.sql in
      let t1 = Runner.total m.Runner.storage_breakdown in
      let ws =
        max
          (Sim.Resource.high_water (Sim.Node.memory d.Deployment.storage))
          (m.Runner.bytes_shipped + 65536)
      in
      Fmt.pr "%-4d" q.id;
      List.iter
        (fun n ->
          (* instances are single threads: no CPU contention up to the
             16 cores; beyond the shared RAM, pages thrash *)
          let cpu_factor = if n > 16 then float_of_int n /. 16.0 else 1.0 in
          let mem_factor =
            let demand = n * ws in
            if demand > storage_ram then
              1.0
              +. (float_of_int (demand - storage_ram)
                 /. float_of_int storage_ram)
            else 1.0
          in
          Fmt.pr " %8.2f" (t1 *. cpu_factor *. mem_factor /. t1))
        instances;
      Fmt.pr "@.")
    [
      Tpch.Queries.by_id 2; Tpch.Queries.by_id 6; Tpch.Queries.by_id 9;
      Tpch.Queries.by_id 13; Tpch.Queries.by_id 14;
    ]

(* ------------------------------------------------------------------ *)
(* Workload: concurrent multi-tenant execution (lib/sched).            *)

let workload scale =
  header "Workload: QPS sweep x config x tenants (throughput, tail latency)";
  let d = deployment ~scale () in
  (* two tenants registered with the trusted monitor; every query is
     authorized under its tenant's principal at admission *)
  let all_tenants = [ "acme"; "globex" ] in
  let engine = Engine.create d in
  List.iter
    (fun t -> ignore (Engine.register_client engine ~label:t ()))
    all_tenants;
  Engine.set_access_policy engine
    "read ::= sessionKeyIs(acme) | sessionKeyIs(globex)";
  let gate = Sched.monitor_gate d in
  let p = d.Deployment.params in
  let control_ns =
    p.Sim.Params.monitor_policy_ns +. p.Sim.Params.monitor_session_ns
  in
  let mix = [ 1; 6; 14 ] in
  let max_inflight = 4 in
  Fmt.pr
    "mix: TPC-H %s; %d-way admission, run queue 8; control path %.2f ms/query@."
    (String.concat "/" (List.map (fun q -> Printf.sprintf "Q%d" q) mix))
    max_inflight (ms control_ns);
  Fmt.pr "%-6s %-8s %10s %5s %5s %5s %9s %9s %9s %9s@." "config" "tenants"
    "offered" "done" "shed" "deny" "qps" "p50(ms)" "p95(ms)" "p99(ms)";
  let json_rows = ref [] in
  List.iter
    (fun config ->
      let profiles =
        List.map
          (fun qid ->
            let q = Tpch.Queries.by_id qid in
            Sched.profile d config
              ~label:(Printf.sprintf "q%d" qid)
              ~sql:q.Tpch.Queries.sql)
          mix
      in
      (* offered load relative to the config's own capacity, so every
         config sweeps the same under/at/over-saturation points *)
      let capacity =
        float_of_int max_inflight *. 1e9 /. Sched.mean_sequential_ns profiles
      in
      List.iter
        (fun n_tenants ->
          let tenants = List.filteri (fun i _ -> i < n_tenants) all_tenants in
          List.iter
            (fun mult ->
              let qps = mult *. capacity in
              let spec =
                {
                  Sched.default_spec with
                  Sched.seed = !workload_seed;
                  arrival = Sched.Open_loop { qps };
                  queries = 64;
                  tenants;
                  max_inflight;
                  queue_depth = 8;
                  control_ns;
                }
              in
              let r = Sched.run ~gate d spec profiles in
              Fmt.pr "%-6s %-8d %10.1f %5d %5d %5d %9.1f %9.3f %9.3f %9.3f@."
                (Config.abbrev config) n_tenants qps r.Sched.rep_completed
                r.Sched.rep_shed r.Sched.rep_denied r.Sched.rep_throughput_qps
                (ms r.Sched.rep_latency.Sched.p50_ns)
                (ms r.Sched.rep_latency.Sched.p95_ns)
                (ms r.Sched.rep_latency.Sched.p99_ns);
              json_rows := Sched.json_of_report r :: !json_rows;
              Sched.add_to_collector r)
            [ 0.5; 1.0; 2.0 ])
        [ 1; 2 ];
      (* one closed-loop point per config: N sessions with think time *)
      let spec =
        {
          Sched.default_spec with
          Sched.seed = !workload_seed;
          arrival = Sched.Closed_loop { sessions = 4; think_ns = 2e6 };
          queries = 32;
          tenants = all_tenants;
          max_inflight;
          queue_depth = 8;
          control_ns;
        }
      in
      let r = Sched.run ~gate d spec profiles in
      Fmt.pr "%-6s %-8s %10s %5d %5d %5d %9.1f %9.3f %9.3f %9.3f@."
        (Config.abbrev config) "closed" "4x2ms" r.Sched.rep_completed
        r.Sched.rep_shed r.Sched.rep_denied r.Sched.rep_throughput_qps
        (ms r.Sched.rep_latency.Sched.p50_ns)
        (ms r.Sched.rep_latency.Sched.p95_ns)
        (ms r.Sched.rep_latency.Sched.p99_ns);
      json_rows := Sched.json_of_report r :: !json_rows;
      Sched.add_to_collector r)
    Config.all;
  Fmt.pr "@.workload JSON:@.[%s]@."
    (String.concat ",\n " (List.rev !json_rows))

(* ------------------------------------------------------------------ *)
(* Table 3: GDPR anti-patterns.                                        *)

let table3 _scale =
  header "Table 3: GDPR anti-patterns (non-secure vs IronSafe)";
  let open Ironsafe_policy in
  (* a small governed customer-data deployment: an airline's trips
     table shared with a hotel chain (the paper's §3.1 scenario) *)
  let populate db =
    Sql.Database.create_table db
      (Gdpr.governed_schema ~expiry:true ~reuse:true ~name:"trips"
         ~columns:
           [
             ("trip_id", Sql.Value.TInt);
             ("customer", Sql.Value.TStr);
             ("origin", Sql.Value.TStr);
             ("destination", Sql.Value.TStr);
             ("price", Sql.Value.TFloat);
             ("trip_date", Sql.Value.TDate);
           ]
         ());
    let rows =
      List.init 4000 (fun i ->
          [|
            Sql.Value.Int i;
            Sql.Value.Str (Printf.sprintf "Customer#%05d" (i mod 500));
            Sql.Value.Str (if i mod 2 = 0 then "LIS" else "MUC");
            Sql.Value.Str (if i mod 3 = 0 then "EDI" else "LHR");
            Sql.Value.Float (float_of_int (50 + (i mod 400)));
            Sql.Value.Date (Sql.Date.of_ymd ~y:1998 ~m:((i mod 12) + 1) ~d:1);
            Sql.Value.Date
              (Sql.Date.of_ymd
                 ~y:(if i mod 10 = 0 then 1998 else 1999)
                 ~m:6 ~d:1);
            Sql.Value.Str (if i mod 4 = 0 then "10" else "11");
          |])
    in
    Sql.Database.insert_rows db "trips" rows
  in
  let d = Deployment.create ~seed:"gdpr-bench" ~populate () in
  let engine = Engine.create d in
  let _ = Engine.register_client engine ~label:"Ka" () in
  let _ = Engine.register_client engine ~label:"Kb" ~reuse_bit:1 () in
  let nonsecure query =
    let m = Runner.run_query d Config.Vcs query in
    m.Runner.end_to_end_ns
  in
  let ironsafe ~policy ~client query =
    Engine.set_access_policy engine policy;
    match Engine.submit engine ~client ~sql:query () with
    | Ok r -> r.Engine.resp_metrics.Runner.end_to_end_ns
    | Error e -> failwith ("table3: " ^ e)
  in
  (* each anti-pattern exercises a different workload, as in the paper *)
  let cases =
    [
      ( "#1: Timely deletion",
        Gdpr.timely_deletion ~owner_key:"Ka" ~consumer_key:"Kb",
        "Kb",
        "select customer, trip_date from trips where customer = 'Customer#00042' \
         order by trip_date" );
      ( "#2: Indiscriminate use",
        Gdpr.prevent_indiscriminate_use ~owner_key:"Ka",
        "Kb",
        "select origin, count(*) as n from trips group by origin order by n desc" );
      ( "#3: Transparency",
        Gdpr.transparent_sharing ~owner_key:"Ka" ~log_name:"share-log",
        "Kb",
        "select customer, count(*) as trips from trips where origin = 'LIS' \
         group by customer order by trips desc limit 10" );
      ( "#4: Risk agnostic",
        Gdpr.timely_deletion ~owner_key:"Ka" ~consumer_key:"Kb"
        ^ "\n"
        ^ Gdpr.risk_aware_execution ~host_version:"latest"
            ~storage_version:"latest",
        "Kb",
        "select destination, sum(price) as rev, avg(price) as avg_price from \
         trips where trip_date >= date '1998-06-01' group by destination \
         order by rev desc" );
      ( "#5: Data breaches",
        Gdpr.breach_detection ~log_name:"breach-log",
        "Kb",
        "select t1.customer, count(*) as pairs from trips t1, trips t2 where \
         t1.customer = t2.customer and t1.trip_id < t2.trip_id and t1.origin \
         = 'LIS' group by t1.customer order by pairs desc limit 5" );
    ]
  in
  Fmt.pr "%-26s %14s %14s %10s@." "GDPR Anti-pattern" "Non-secure(ms)"
    "IronSafe(ms)" "Overhead";
  List.iter
    (fun (name, policy, client, query) ->
      let base = nonsecure query in
      let sec = ironsafe ~policy ~client query in
      Fmt.pr "%-26s %14.2f %14.2f %9.2fx@." name (ms base) (ms sec)
        (sec /. base))
    cases;
  let log =
    Ironsafe_monitor.Trusted_monitor.audit_log (Engine.monitor engine)
  in
  match Ironsafe_monitor.Audit_log.verify log with
  | Ok () ->
      Fmt.pr "audit log: %d entries, hash chain verifies@."
        (Ironsafe_monitor.Audit_log.length log)
  | Error seq -> Fmt.pr "audit log: chain BROKEN at %d@." seq

(* ------------------------------------------------------------------ *)
(* Table 4: attestation breakdown.                                     *)

let table4 scale =
  header "Table 4: host and storage attestation breakdown";
  let d = deployment ~scale () in
  let p = d.Deployment.params in
  (* run the real protocols once (functional check) *)
  (match Deployment.attest d with
  | Ok () -> Fmt.pr "(protocols executed and verified against the registries)@."
  | Error e -> Fmt.pr "attestation FAILED: %s@." e);
  let interconnect = p.Sim.Params.tz_attest_interconnect_ns in
  let host_total = p.Sim.Params.ias_roundtrip_ns in
  let tee = p.Sim.Params.tz_attest_tee_ns in
  let ree = p.Sim.Params.tz_attest_ree_ns in
  Fmt.pr "%-16s %-14s %10s@." "Component" "Breakdown" "Time(ms)";
  Fmt.pr "%-16s %-14s %10.0f@." "Host" "CAS response" (ms host_total);
  Fmt.pr "%-16s %-14s %10.0f@." "Storage server" "TEE" (ms tee);
  Fmt.pr "%-16s %-14s %10.0f@." "" "REE" (ms ree);
  Fmt.pr "%-16s %-14s %10.1f@." "" "Interconnect" (ms interconnect);
  Fmt.pr "%-16s %-14s %10.1f@." "Total" ""
    (ms (host_total +. tee +. ree +. interconnect))

(* ------------------------------------------------------------------ *)
(* Ablations: isolate the cost of individual design choices.           *)

let ablations scale =
  header "Ablation A1: secure-storage components (scs, Q1/Q3/Q9)";
  (* strip one protection mechanism at a time from the cost model *)
  let variants =
    [
      ("full IronSafe", Sim.Params.default);
      ( "no freshness (encrypt only)",
        {
          Sim.Params.default with
          Sim.Params.hmac_page_ns = 0.0;
          merkle_node_ns = 0.0;
          rpmb_access_ns = 0.0;
        } );
      ("no encryption", { Sim.Params.default with Sim.Params.decrypt_page_ns = 0.0 });
      ( "no protection (vcs-equivalent)",
        {
          Sim.Params.default with
          Sim.Params.hmac_page_ns = 0.0;
          merkle_node_ns = 0.0;
          rpmb_access_ns = 0.0;
          decrypt_page_ns = 0.0;
          tls_record_ns_per_byte = 0.05;
        } );
    ]
  in
  Fmt.pr "%-32s %10s %10s %10s@." "variant" "Q1(ms)" "Q3(ms)" "Q9(ms)";
  List.iter
    (fun (name, params) ->
      let d = deployment ~params ~scale () in
      let t qid =
        ms (run d Config.Scs (Tpch.Queries.by_id qid).Tpch.Queries.sql).Runner.end_to_end_ns
      in
      Fmt.pr "%-32s %10.2f %10.2f %10.2f@." name (t 1) (t 3) (t 9))
    variants;

  header "Ablation A2: projection pushdown (scs bytes shipped)";
  let d = deployment ~scale () in
  Fmt.pr "%-4s %14s %14s %9s@." "Q" "projected(B)" "full-rows(B)" "saving";
  List.iter
    (fun qid ->
      let q = Tpch.Queries.by_id qid in
      let stmt = Sql.Parser.parse q.Tpch.Queries.sql in
      let proj = Runner.run_stmt d Config.Scs stmt in
      let full = Runner.run_stmt ~project:false d Config.Scs stmt in
      Fmt.pr "%-4d %14d %14d %8.2fx@." qid proj.Runner.bytes_shipped
        full.Runner.bytes_shipped
        (float_of_int full.Runner.bytes_shipped
        /. float_of_int (max 1 proj.Runner.bytes_shipped)))
    [ 1; 3; 6; 9; 10; 14 ];

  header "Ablation A3: enclave message batch size (hos end-to-end, Q3)";
  Fmt.pr "%-12s %12s@." "batch" "hos(ms)";
  List.iter
    (fun batch ->
      let params = { Sim.Params.default with Sim.Params.net_batch_bytes = batch } in
      let d = deployment ~params ~scale () in
      let m = run d Config.Hos (Tpch.Queries.by_id 3).Tpch.Queries.sql in
      Fmt.pr "%-12s %12.2f@."
        (Printf.sprintf "%dKiB" (batch / 1024))
        (ms m.Runner.end_to_end_ns))
    [ 4096; 16384; 65536; 262144 ];

  header "Ablation A5: interconnect profile (scs, Q3/Q9; paper S5)";
  Fmt.pr "%-12s %10s %10s@." "profile" "Q3(ms)" "Q9(ms)";
  List.iter
    (fun profile ->
      let params = Sim.Params.with_interconnect profile Sim.Params.default in
      let d = deployment ~params ~scale () in
      let t qid =
        ms (run d Config.Scs (Tpch.Queries.by_id qid).Tpch.Queries.sql).Runner.end_to_end_ns
      in
      Fmt.pr "%-12s %10.2f %10.2f@." (Sim.Params.interconnect_name profile)
        (t 3) (t 9))
    [ Sim.Params.Tls_tcp; Sim.Params.Nvme_of; Sim.Params.Pcie ];

  header
    "Ablation A6: secondary index on the secure store (point lookup on \
     lineitem.l_orderkey)";
  (* beyond the paper: an index over the encrypted store lets the
     storage engine skip not just page reads but their decryption and
     freshness verification *)
  let d6 =
    Deployment.create ~seed:"ablation-index"
      ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:0.005))
      ()
  in
  let point = "select l_quantity from lineitem where l_orderkey = 500" in
  Fmt.pr "%-14s %10s %10s %12s@." "variant" "hos(ms)" "scs(ms)" "pages(scs)";
  let row label =
    let hos = run d6 Config.Hos point in
    let scs = run d6 Config.Scs point in
    Fmt.pr "%-14s %10.2f %10.2f %12d@." label (ms hos.Runner.end_to_end_ns)
      (ms scs.Runner.end_to_end_ns) scs.Runner.pages_scanned
  in
  row "full scan";
  ignore (Sql.Database.exec d6.Deployment.plain_db "create index li_ok on lineitem (l_orderkey)");
  ignore (Sql.Database.exec d6.Deployment.secure_db "create index li_ok on lineitem (l_orderkey)");
  row "indexed";

  header
    "Ablation A4: ARMv9-Realms-style isolation (per-page world switch on \
     storage, scs)";
  (* the paper (S3.3) notes Realms would remove the normal-world OS from
     the TCB; the flip side is realm-transition costs on the data path *)
  Fmt.pr "%-28s %10s %10s@." "variant" "Q3(ms)" "Q9(ms)";
  List.iter
    (fun (name, extra_ns) ->
      let params =
        {
          Sim.Params.default with
          Sim.Params.decrypt_page_ns =
            Sim.Params.default.Sim.Params.decrypt_page_ns +. extra_ns;
        }
      in
      let d = deployment ~params ~scale () in
      let t qid =
        ms (run d Config.Scs (Tpch.Queries.by_id qid).Tpch.Queries.sql).Runner.end_to_end_ns
      in
      Fmt.pr "%-28s %10.2f %10.2f@." name (t 3) (t 9))
    [
      ("TrustZone (normal world TCB)", 0.0);
      ("Realms (+1 switch/page)", Sim.Params.default.Sim.Params.world_switch_ns);
      ("Realms (+2 switches/page)", 2.0 *. Sim.Params.default.Sim.Params.world_switch_ns);
    ]

(* ------------------------------------------------------------------ *)

(* OLTP: a mixed reader/writer workload over the crash-safe write path
   (Sos), sweeping the group-commit window. Writers are INSERTs going
   through the WAL's implicit statement transactions; readers run
   snapshot SELECTs. The virtual clock accumulates across the whole
   run (reset only on the first statement) so window expiry, group
   flushes and RPMB anchor amortization all play out on the simulated
   timeline: wider windows buy commit throughput (fewer anchor
   updates) at the price of acknowledgement latency. Emits
   BENCH_oltp.json with commits/sec and snapshot-read p99 per window. *)
let oltp_out = ref "BENCH_oltp.json"

let oltp scale =
  header "OLTP: group-commit window sweep (mixed readers/writers, Sos)";
  let module W = Ironsafe_wal in
  let windows = [ 0.0; 20_000.0; 100_000.0; 500_000.0; 2_000_000.0 ] in
  let n_ops = 120 in
  Fmt.pr "%-12s %7s %7s %8s %10s %12s %13s@." "window(ns)" "writes" "reads"
    "flushes" "avg_group" "commits/s" "read_p99(ms)";
  let rows =
    List.map
      (fun window_ns ->
        let d =
          Deployment.create ~seed:"oltp-bench" ~faults:!fault_plan ~wal:true
            ~wal_window_ns:window_ns
            ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale))
            ()
        in
        (match Deployment.attest_reliable d with
        | Ok () -> ()
        | Error e -> failwith ("attestation failed: " ^ e));
        let ts = Option.get (Deployment.txn_store d) in
        let prng = Sim.Prng.create ~seed:!workload_seed in
        let read_lat = ref [] in
        let writes = ref 0 and reads = ref 0 in
        let last = ref 0.0 in
        let next_key = ref 1000 in
        for i = 0 to n_ops - 1 do
          (* ~2:1 writer/reader mix *)
          let is_write = Sim.Prng.rand_int prng 3 < 2 in
          let sql =
            if is_write then begin
              incr writes;
              incr next_key;
              Printf.sprintf
                "insert into nation values (%d, 'N%d', %d, 'oltp writer row')"
                !next_key !next_key
                (Sim.Prng.rand_int prng 5)
            end
            else begin
              incr reads;
              "select count(*), max(n_nationkey) from nation"
            end
          in
          let m =
            Runner.run_stmt ~reset:(i = 0) d Config.Sos (Sql.Parser.parse sql)
          in
          let t1 = m.Runner.end_to_end_ns in
          if not is_write then read_lat := (t1 -. !last) :: !read_lat;
          last := t1
        done;
        (* drain the window so trailing queued commits become durable *)
        (match W.Txn_store.flush ts with
        | Ok () -> ()
        | Error e -> failwith (Fmt.str "wal flush: %a" W.Txn_store.pp_error e));
        let st = W.Txn_store.stats ts in
        let cps =
          float_of_int st.W.Txn_store.durable_commits /. (!last /. 1e9)
        in
        let p99 =
          let l = List.sort compare !read_lat in
          let n = List.length l in
          List.nth l (max 0 (int_of_float (ceil (0.99 *. float_of_int n)) - 1))
        in
        let avg_group =
          if st.W.Txn_store.group_flushes = 0 then 0.0
          else
            float_of_int st.W.Txn_store.durable_commits
            /. float_of_int st.W.Txn_store.group_flushes
        in
        Fmt.pr "%-12.0f %7d %7d %8d %10.2f %12.0f %13.3f@." window_ns !writes
          !reads st.W.Txn_store.group_flushes avg_group cps (ms p99);
        (window_ns, cps, p99, st))
      windows
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"schema\": \"ironsafe-oltp-v1\",\n";
  Printf.bprintf buf "  \"scale\": %g,\n  \"ops\": %d,\n" scale n_ops;
  Buffer.add_string buf "  \"windows\": [\n";
  List.iteri
    (fun i (w, cps, p99, st) ->
      Printf.bprintf buf
        "    {\"window_ns\": %.0f, \"commits_per_sec\": %.1f, \
         \"read_p99_ns\": %.0f, \"durable_commits\": %d, \
         \"group_flushes\": %d, \"max_group\": %d}%s\n"
        w cps p99 st.W.Txn_store.durable_commits st.W.Txn_store.group_flushes
        st.W.Txn_store.max_group
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out !oltp_out in
  Buffer.output_buffer oc buf;
  close_out oc;
  Fmt.pr "@.wrote %s@." !oltp_out

(* ------------------------------------------------------------------ *)
(* Cluster: scatter-gather shard sweep. Each point builds an N-shard
   cluster over the cached deployment (each shard attested under its
   own TrustZone identity into the monitor's audit chain), checks the
   scatter-gather results against the single-node runner, profiles a
   small TPC-H mix through the cluster runner, and replays the tapes
   through the scheduler with one contended server set per shard —
   yielding the capacity-normalized QPS curve vs shard count. Emits
   BENCH_cluster.json. *)

let cluster_out = ref "BENCH_cluster.json"

let cluster scale =
  header "Cluster: scatter-gather shard sweep (per-shard TrustZone identities)";
  let module Cluster = Ironsafe_cluster.Cluster in
  let d = deployment ~scale () in
  let config = Config.Scs in
  let shard_counts = [ 1; 2; 4; 8 ] in
  let queries =
    List.map
      (fun qid -> (qid, (Tpch.Queries.by_id qid).Tpch.Queries.sql))
      [ 1; 6 ]
  in
  let max_inflight = 8 in
  Fmt.pr "mix: %s under %s; open loop at 2x single-node capacity@."
    (String.concat "/"
       (List.map (fun (q, _) -> Printf.sprintf "Q%d" q) queries))
    (Config.abbrev config);
  Fmt.pr "%-7s %-22s %10s %11s %10s %8s@." "shards" "gather" "seq(ms)"
    "offered" "qps" "speedup";
  let base_capacity = ref 0.0 in
  let base_qps = ref 0.0 in
  let points =
    List.map
      (fun n ->
        let cl = Cluster.create ~shards:n ~scheme:Partitioner.Hash d in
        (match Cluster.attest_reliable cl with
        | Ok () -> ()
        | Error e -> failwith ("cluster attestation failed: " ^ e));
        (* every shard count must return exactly the single-node rows *)
        List.iter
          (fun (qid, sql) ->
            let mc = Cluster.run_query cl config sql in
            let m1 = Runner.run_query d config sql in
            if mc.Runner.result <> m1.Runner.result then
              failwith
                (Printf.sprintf "cluster Q%d diverged at %d shards" qid n))
          queries;
        let gathers =
          List.map (fun (_, sql) -> Cluster.gather_operator cl sql) queries
        in
        let profiles =
          List.map
            (fun (qid, sql) ->
              let stmt = Sql.Parser.parse sql in
              Sched.profile_run
                ~working_set:(Sched.host_working_set (Cluster.base cl))
                ~label:(Printf.sprintf "q%d" qid)
                ~sql config
                (fun () -> Cluster.run_stmt cl config stmt))
            queries
        in
        let seq_ns = Sched.mean_sequential_ns profiles in
        if !base_capacity = 0.0 then
          base_capacity := float_of_int max_inflight *. 1e9 /. seq_ns;
        (* every point faces the same offered load, normalized to the
           single-node capacity, so the curve isolates scatter-gather
           scaling from load generation *)
        let offered = 2.0 *. !base_capacity in
        let spec =
          {
            Sched.default_spec with
            Sched.seed = !workload_seed;
            arrival = Sched.Open_loop { qps = offered };
            queries = 64;
            max_inflight;
            queue_depth = 16;
          }
        in
        let r =
          Sched.run ~storage_nodes:(Cluster.storage_nodes cl) d spec profiles
        in
        let qps = r.Sched.rep_throughput_qps in
        if !base_qps = 0.0 then base_qps := qps;
        let speedup = if !base_qps > 0.0 then qps /. !base_qps else 0.0 in
        Fmt.pr "%-7d %-22s %10.3f %11.1f %10.1f %8.2f@." n
          (String.concat "," gathers) (ms seq_ns) offered qps speedup;
        Sched.add_to_collector r;
        (n, gathers, seq_ns, offered, r, speedup))
      shard_counts
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"schema\": \"ironsafe-cluster-v1\",\n";
  Printf.bprintf buf "  \"scale\": %g,\n  \"config\": %S,\n  \"scheme\": %S,\n"
    scale (Config.abbrev config)
    (Partitioner.scheme_name Partitioner.Hash);
  Printf.bprintf buf "  \"mix\": [%s],\n"
    (String.concat ", "
       (List.map (fun (q, _) -> string_of_int q) queries));
  Buffer.add_string buf "  \"points\": [\n";
  List.iteri
    (fun i (n, gathers, seq_ns, offered, r, speedup) ->
      Printf.bprintf buf
        "    {\"shards\": %d, \"gather\": [%s], \"seq_mean_ms\": %.6f, \
         \"offered_qps\": %.3f, \"qps\": %.3f, \"normalized_qps\": %.4f, \
         \"completed\": %d, \"shed\": %d}%s\n"
        n
        (String.concat ", " (List.map (Printf.sprintf "%S") gathers))
        (ms seq_ns) offered r.Sched.rep_throughput_qps speedup
        r.Sched.rep_completed r.Sched.rep_shed
        (if i = List.length points - 1 then "" else ","))
    points;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out !cluster_out in
  Buffer.output_buffer oc buf;
  close_out oc;
  Fmt.pr "@.wrote %s@." !cluster_out

(* ------------------------------------------------------------------ *)
(* Hot-path microbenchmark: wall-clock ns/op of the kernels on the
   secure read path (AES, CBC page, SHA-256/HMAC, Merkle, secure-store
   page read, buffer-pool hit vs miss), emitted as JSON so successive
   runs have a trajectory to beat and CI can diff against the
   checked-in floor file (bench/floor_hotpath.txt). Unlike the rest of
   the harness these are real elapsed nanoseconds, not virtual time. *)

let bench_quick = ref false
let bench_out = ref "BENCH_hotpath.json"
let floor_file = ref None

(* (ns/op, spread) on the monotonic clock. The iteration count is found
   once, by quadrupling it until one window lasts long enough to trust
   the clock; then [timing_trials] windows run at that count. ns/op is
   the minimum over those windows, spread the max/min ratio. *)
let timing_trials = 5

let time_ns_per_op f =
  let target_ns = if !bench_quick then 2e7 else 2.5e8 in
  for _ = 1 to 8 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let window iters =
    let t0 = Monotonic_clock.now () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)
  in
  let rec calibrate iters =
    if window iters >= target_ns then iters else calibrate (iters * 4)
  in
  let iters = calibrate 16 in
  let per_op =
    List.init timing_trials (fun _ -> window iters /. float_of_int iters)
  in
  let lo = List.fold_left Float.min infinity per_op in
  let hi = List.fold_left Float.max 0.0 per_op in
  (lo, if lo > 0.0 then hi /. lo else 1.0)

let write_hotpath_json ?(derived = []) ~spread results =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"schema\": \"ironsafe-hotpath-v2\",\n";
  Printf.bprintf buf "  \"quick\": %b,\n" !bench_quick;
  Printf.bprintf buf "  \"trials\": %d,\n" timing_trials;
  (* which crypto implementation the dispatched kernels ran on *)
  Printf.bprintf buf "  \"crypto_path\": %S,\n" C.Accel.path;
  Buffer.add_string buf "  \"kernels\": {\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.bprintf buf "    %S: %.1f%s\n" name ns
        (if i = List.length results - 1 then "" else ","))
    results;
  (* per kernel, max/min ns/op over the timed windows *)
  Buffer.add_string buf "  },\n  \"spread\": {\n";
  List.iteri
    (fun i (name, r) ->
      Printf.bprintf buf "    %S: %.3f%s\n" name r
        (if i = List.length spread - 1 then "" else ","))
    spread;
  Buffer.add_string buf "  }";
  if derived <> [] then begin
    Buffer.add_string buf ",\n  \"derived\": {\n";
    List.iteri
      (fun i (name, v) ->
        Printf.bprintf buf "    %S: %.2f%s\n" name v
          (if i = List.length derived - 1 then "" else ","))
      derived;
    Buffer.add_string buf "  }"
  end;
  Buffer.add_string buf "\n}\n";
  let oc = open_out !bench_out in
  Buffer.output_buffer oc buf;
  close_out oc;
  Fmt.pr "@.wrote %s@." !bench_out

(* Floor file: `kernel-name max-expected-ns` lines ('#' comments). A
   kernel regressing past 2x its floor entry fails the run (CI gate). *)
let load_floor file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc
        else Scanf.sscanf line " %s %f" (fun n v -> go ((n, v) :: acc))
  in
  go []

let check_floor results file =
  let floor = load_floor file in
  (* an entry without a measurement gates nothing: say which (the -hw
     crypto kernels run only where the CPU has the instructions) *)
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name results) then
        Fmt.pr "floor check: no measurement for %s (crypto path %s)@." name
          C.Accel.path)
    floor;
  let regressions =
    List.filter_map
      (fun (name, limit) ->
        match List.assoc_opt name results with
        | Some ns when ns > 2.0 *. limit -> Some (name, ns, limit)
        | _ -> None)
      floor
  in
  match regressions with
  | [] ->
      Fmt.pr "floor check: all %d measured kernels within 2x of %s@."
        (List.length (List.filter (fun (n, _) -> List.mem_assoc n results) floor))
        file
  | rs ->
      List.iter
        (fun (name, ns, limit) ->
          Fmt.epr "REGRESSION %s: %.1f ns/op > 2x floor %.1f ns/op@." name ns
            limit)
        rs;
      exit 1

let microbench _scale =
  header "Hot-path microbenchmark (wall-clock ns/op)";
  let module S = Ironsafe_storage in
  let module Sec = Ironsafe_securestore in
  let drbg = C.Drbg.create ~seed:"bench-hotpath" in
  let page = C.Drbg.generate drbg 4096 in
  let aes_key = C.Aes.expand_key (C.Drbg.generate drbg 16) in
  let iv = C.Drbg.generate drbg 16 in
  let ciphertext = C.Modes.cbc_encrypt ~key:aes_key ~iv page in
  let hmac_key = C.Drbg.generate drbg 32 in
  let prekey = C.Hmac.precompute ~key:hmac_key in
  let block = Bytes.create 16 in
  Bytes.blit_string page 0 block 0 16;
  (* the secure store's real shapes: AES-256 page keys, and 64-byte
     prekeyed HMACs (a Merkle node over its two children) *)
  let aes256_key = C.Aes.expand_key (C.Drbg.generate drbg 32) in
  let ciphertext256 = C.Modes.cbc_encrypt ~key:aes256_key ~iv page in
  let node64 = String.sub page 0 64 in
  (* a real secure store: its read path is what the pool short-cuts *)
  let data_pages = 64 in
  let device =
    S.Block_device.create ~pages:(Sec.Secure_store.device_pages_for ~data_pages)
  in
  let rpmb = S.Rpmb.create () in
  let store =
    match
      Sec.Secure_store.initialize ~device ~rpmb
        ~hardware_key:(String.make 32 'H') ~data_pages ~drbg ()
    with
    | Ok s -> s
    | Error e -> failwith (Fmt.str "store init: %a" Sec.Secure_store.pp_error e)
  in
  let payload = String.sub page 0 Sec.Secure_store.capacity in
  for i = 0 to data_pages - 1 do
    match Sec.Secure_store.write_page store i payload with
    | Ok () -> ()
    | Error e -> failwith (Fmt.str "store write: %a" Sec.Secure_store.pp_error e)
  done;
  (* warm pool: every read of page 0 after the first is a hit *)
  let hit_pool = Sql.Bufpool.create ~frames:16 (Sql.Pager.secure store) in
  let hit_pager = Sql.Bufpool.pager hit_pool in
  ignore (Sql.Pager.read hit_pager 0);
  (* thrashing pool: one frame, two alternating pages — always a miss *)
  let miss_pool = Sql.Bufpool.create ~frames:1 (Sql.Pager.secure store) in
  let miss_pager = Sql.Bufpool.pager miss_pool in
  let flip = ref false in
  (* CTR kernel, the cipher of the WAL frames and the channel: 32
     4 KiB buffers transformed into reused buffers. Reported ns/op are
     per 4 KiB, comparable to the CBC page kernels. *)
  let ctr_batch = 32 in
  let ctr_nonces = Array.init ctr_batch (fun _ -> C.Drbg.generate drbg 16) in
  let ctr_cts =
    Array.map
      (fun nonce -> C.Modes.ctr_transform ~key:aes_key ~nonce page)
      ctr_nonces
  in
  let ctr_dsts = Array.init ctr_batch (fun _ -> Bytes.create 4096) in
  (* WAL kernels: wal_append is the in-memory hot path (record encode,
     CTR encrypt, chain HMAC, frame build); group_commit_flush
     persists an 8-record batch and bumps the RPMB anchor once — the
     per-group cost the commit window amortizes. Each WAL owns its
     device + RPMB (the anchor slot needs the auth key programmed,
     normally the secure store's job at initialization). The append
     kernel flushes + truncates every 1 Ki appends so the pending
     queue and the log device stay bounded; that maintenance is
     amortized into the reported ns/op. *)
  let module W = Ironsafe_wal in
  let mk_wal () =
    let dev = S.Block_device.create ~pages:2048 in
    let rpmb = S.Rpmb.create () in
    (match
       S.Rpmb.program_key rpmb
         (Sec.Keyslot.derive_rpmb_auth_key ~hardware_key:(String.make 32 'H'))
     with
    | Ok () -> ()
    | Error _ -> failwith "rpmb key programming failed");
    match
      W.Wal.create ~device:dev ~rpmb ~hardware_key:(String.make 32 'H') ~drbg
        ()
    with
    | Ok w -> w
    | Error e -> failwith (Fmt.str "wal create: %a" W.Wal.pp_error e)
  in
  let wal_reset w =
    (match W.Wal.flush w with
    | Ok () -> ()
    | Error e -> failwith (Fmt.str "wal flush: %a" W.Wal.pp_error e));
    match W.Wal.truncate w with
    | Ok () -> ()
    | Error e -> failwith (Fmt.str "wal truncate: %a" W.Wal.pp_error e)
  in
  let wal_append_w = mk_wal () in
  let wal_flush_w = mk_wal () in
  let wal_record =
    W.Record.Page_write { txn = 1; page = 7; data = String.sub page 0 512 }
  in
  let wal_appends = ref 0 in
  let wal_flushes = ref 0 in
  (* scan+filter kernel: the row executor on a half-selective filter
     (Figure 6's regime) *)
  let scan_db = Sql.Database.create ~pager:(Sql.Pager.in_memory ()) in
  ignore (Tpch.Dbgen.populate scan_db ~scale:0.005);
  let scan_sql =
    "select l_orderkey, l_quantity from lineitem where l_quantity < 25"
  in
  (* host-phase kernels: the host half of a split query (vcs) over the
     rows the storage engine shipped, resident in memory, so only the
     host engine is timed. host_join_agg is Q5's six-table join and
     aggregation, group_agg_q1 Q1's two-key GROUP BY with eight
     aggregates over ~30k shipped lineitem rows. *)
  let host_phase id =
    let q = List.find (fun (q : Tpch.Queries.t) -> q.id = id) Tpch.Queries.all in
    let catalog = Sql.Database.catalog scan_db in
    let plan = Partitioner.split catalog (Sql.Parser.parse q.sql) in
    let offload = Storage_engine.run_offload scan_db plan in
    fun () -> ignore (Host_engine.run_host ~storage_catalog:catalog plan offload)
  in
  let host_join_agg = host_phase 5 and group_agg_q1 = host_phase 1 in
  (* Scheduler kernels: the two inner primitives of the 10^5-session
     replay loop. event_queue_push_pop works the pairing heap at a
     realistic standing depth (64Ki pending events), one push+pop per
     op. Event times advance as the scheduler's do: each push lands a
     pseudo-random delay after the last popped time, so the standing
     set stays 64Ki events spread over the next 2^20 ns and the kernel
     is stationary. (Times drawn from a fixed range instead drift: as
     pops take the smallest, the standing set fills with the largest
     times, every push becomes the new minimum and the pop pays no
     combine, so the cost per op fell with the op count — and a short
     --quick window read several times a long run's figure.)
     tape_cursor_replay walks a shared interned tape the way a
     session's cursor does — per-event class / node / duration / label
     reads — reported per event. *)
  let module Eq = Ironsafe_sched.Event_queue in
  let eq = Eq.create ~dummy:0 in
  let eq_depth = 65536 in
  let eq_state = ref 0x2545F4914F6CDD1D in
  let eq_now = ref 0.0 in
  let eq_next () =
    (* xorshift64: deterministic delays in [0, 2^20) *)
    let x = !eq_state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    eq_state := x;
    !eq_now +. float_of_int (x land 0xFFFFF)
  in
  let eq_push_pop () =
    Eq.push eq (eq_next ()) 0;
    eq_now := Eq.min_time eq;
    ignore (Eq.pop eq)
  in
  for i = 1 to eq_depth do
    Eq.push eq (eq_next ()) i
  done;
  (* warm-up: pre-filling leaves every event a child of the root, so
     the first pops pay O(depth) combines; one pass of push+pop pairs
     over the standing depth reaches the steady-state heap shape that
     the timed windows then measure, in quick and full runs alike *)
  for _ = 1 to eq_depth do
    eq_push_pop ()
  done;
  let replay_tape =
    Sim.Tape.intern
      (List.concat_map
         (fun i ->
           [
             Sim.Tape.Charge
               { node = "host"; category = "scan"; ns = float_of_int (100 + i) };
             Sim.Tape.Charge { node = "storage"; category = "io"; ns = 250.0 };
             Sim.Tape.Sync { transfer_ns = 40.0 };
           ])
         (List.init 24 Fun.id))
  in
  let replay_len = Sim.Tape.interned_length replay_tape in
  let replay_sink = ref 0.0 in
  (* Observability-overhead kernels: the per-call price of the
     instrumentation hooks. obs-off is the fast path every charge site
     pays when tracing is disabled (one boolean load per hook); the
     obs-on kernels exercise the metrics-registry and span-collector
     hot paths. The span kernel drains the collector every 64Ki ops so
     the measurement window doesn't accumulate millions of root spans.
     Obs state is restored (and the collector wiped) after the run. *)
  let obs_was_on = Ironsafe_obs.Obs.enabled () in
  let vclock = ref 0.0 in
  let bclock () =
    vclock := !vclock +. 10.0;
    !vclock
  in
  let span_ops = ref 0 in
  let emit_ops = ref 0 in
  let emit_fields =
    [ ("category", Ironsafe_obs.Event_log.S "io");
      ("ns", Ironsafe_obs.Event_log.F 42.0) ]
  in
  Ironsafe_obs.Flight_recorder.configure ~frames:256 ();
  (* each kernel is (name, per, f): f's measured wall time is divided
     by [per], so batch kernels report per-page (per-item) ns.
     The crypto kernels time the OCaml reference path by name, so their
     floors gate the fallback on every runner; the -hw kernels time the
     dispatched functions and run only where C.Accel selected the CPU's
     instructions. Everything after them (the secure store, the WAL)
     runs on whichever path C.Accel selected. *)
  let hw_kernels =
    (if C.Accel.aes then
       [
         ("aes256-cbc-decrypt-4KiB-hw", 1,
          fun () ->
            ignore (C.Modes.cbc_decrypt ~key:aes256_key ~iv ciphertext256));
       ]
     else [])
    @
    if C.Accel.sha256 then
      [
        ("sha256-4KiB-hw", 1, fun () -> ignore (C.Sha256.digest page));
        ("hmac-sha256-4KiB-prekeyed-hw", 1,
         fun () -> ignore (C.Hmac.mac_pre prekey page));
      ]
    else []
  in
  let module Ref = struct
    module Aes = C.Aes.Reference
    module Modes = C.Modes.Reference
    module Sha256 = C.Sha256.Reference
    module Hmac = C.Hmac.Reference
  end in
  let kernels =
    [
      ("aes128-encrypt-block", 1,
       fun () -> Ref.Aes.encrypt_block_into aes_key block 0 block 0);
      ("aes128-cbc-encrypt-4KiB", 1,
       fun () -> ignore (Ref.Modes.cbc_encrypt ~key:aes_key ~iv page));
      ("aes128-cbc-decrypt-4KiB", 1,
       fun () -> ignore (Ref.Modes.cbc_decrypt ~key:aes_key ~iv ciphertext));
      ("aes256-cbc-decrypt-4KiB", 1,
       fun () ->
         ignore (Ref.Modes.cbc_decrypt ~key:aes256_key ~iv ciphertext256));
      ("aes128-ctr-4KiB", ctr_batch,
       fun () ->
         for p = 0 to ctr_batch - 1 do
           Ref.Modes.ctr_transform_into ~key:aes_key ~nonce:ctr_nonces.(p)
             ctr_cts.(p) 0 ctr_dsts.(p) 0 4096
         done);
      ("sha256-4KiB", 1, fun () -> ignore (Ref.Sha256.digest page));
      ("hmac-sha256-4KiB", 1,
       fun () -> ignore (Ref.Hmac.mac ~key:hmac_key page));
      ("hmac-sha256-4KiB-prekeyed", 1,
       fun () -> ignore (Ref.Hmac.mac_pre prekey page));
      ("hmac-sha256-64B", 1, fun () -> ignore (Ref.Hmac.mac_pre prekey node64));
    ]
    @ hw_kernels
    @ [
      ("securestore-read-page", 1,
       fun () -> ignore (Sec.Secure_store.read_page store 1));
      ("row_scan_filter", 1,
       fun () -> ignore (Sql.Database.query scan_db scan_sql));
      ("host_join_agg", 1, host_join_agg);
      ("group_agg_q1", 1, group_agg_q1);
      ("wal_append", 1,
       fun () ->
         ignore (W.Wal.append wal_append_w wal_record);
         incr wal_appends;
         if !wal_appends land 0x3ff = 0 then wal_reset wal_append_w);
      ("group_commit_flush", 1,
       fun () ->
         for t = 1 to 8 do
           ignore (W.Wal.append wal_flush_w (W.Record.Commit { txn = t }))
         done;
         (match W.Wal.flush wal_flush_w with
         | Ok () -> ()
         | Error e -> failwith (Fmt.str "wal flush: %a" W.Wal.pp_error e));
         incr wal_flushes;
         if !wal_flushes land 0xff = 0 then
           match W.Wal.truncate wal_flush_w with
           | Ok () -> ()
           | Error e ->
               failwith (Fmt.str "wal truncate: %a" W.Wal.pp_error e));
      ("bufpool-hit-read", 1, fun () -> ignore (Sql.Pager.read hit_pager 0));
      ("bufpool-miss-read", 1,
       fun () ->
         flip := not !flip;
         ignore (Sql.Pager.read miss_pager (if !flip then 2 else 3)));
      ("obs-off-hooks", 1,
       fun () ->
         Ironsafe_obs.Obs.disable ();
         Ironsafe_obs.Obs.count ~scope:"bench" "hook";
         Ironsafe_obs.Obs.observe ~scope:"bench" "hook_ns" 42.0;
         Ironsafe_obs.Span.instant ~clock:bclock ~name:"hook" ~scope:"bench"
           ());
      ("obs-on-count+observe", 1,
       fun () ->
         Ironsafe_obs.Obs.enable ();
         Ironsafe_obs.Obs.count ~scope:"bench" "hook";
         Ironsafe_obs.Obs.observe ~scope:"bench" "hook_ns" 42.0);
      ("obs-on-span", 1,
       fun () ->
         Ironsafe_obs.Obs.enable ();
         incr span_ops;
         if !span_ops land 0xffff = 0 then Ironsafe_obs.Obs.reset ();
         Ironsafe_obs.Span.with_ ~clock:bclock ~name:"hook" ~scope:"bench"
           (fun () -> ()));
      (* event-emission hot path with the flight recorder off vs on:
         the off kernel is the plain event-log buffer push; the on
         kernels add the tap (trigger check + frame render + ring
         write) and the direct frame append the charge hooks use. The
         off/on pair feeds the gated overhead ratio below. *)
      ("event_emit", 1,
       fun () ->
         Ironsafe_obs.Obs.enable ();
         Ironsafe_obs.Flight_recorder.disable ();
         incr emit_ops;
         if !emit_ops land 0x3fff = 0 then Ironsafe_obs.Event_log.reset ();
         Ironsafe_obs.Obs.event ~ts_ns:(bclock ()) ~scope:"bench"
           ~kind:"bench.tick" emit_fields);
      ("recorder_on_event_emit", 1,
       fun () ->
         Ironsafe_obs.Obs.enable ();
         Ironsafe_obs.Flight_recorder.enable ();
         incr emit_ops;
         if !emit_ops land 0x3fff = 0 then Ironsafe_obs.Event_log.reset ();
         Ironsafe_obs.Obs.event ~ts_ns:(bclock ()) ~scope:"bench"
           ~kind:"bench.tick" emit_fields);
      ("flight_recorder_append", 1,
       fun () ->
         Ironsafe_obs.Obs.enable ();
         Ironsafe_obs.Flight_recorder.enable ();
         Ironsafe_obs.Flight_recorder.append ~ts_ns:(bclock ()) ~scope:"bench"
           ~kind:"charge" emit_fields);
      ("event_queue_push_pop", 1, eq_push_pop);
      ("tape_cursor_replay", replay_len,
       fun () ->
         let acc = ref 0.0 in
         for i = 0 to replay_len - 1 do
           let cls = Sim.Tape.cls replay_tape i in
           if cls <> Sim.Tape.cls_sync then
             ignore (Sys.opaque_identity (Sim.Tape.label replay_tape i));
           acc := !acc +. Sim.Tape.ns replay_tape i
         done;
         replay_sink := !acc);
    ]
  in
  let timed =
    List.map
      (fun (name, per, f) ->
        let ns, spread = time_ns_per_op f in
        let ns = ns /. float_of_int per in
        Fmt.pr "%-34s %14.1f ns/op  (spread %.2fx)@." name ns spread;
        (name, ns, spread))
      kernels
  in
  let results = List.map (fun (name, ns, _) -> (name, ns)) timed in
  let spread = List.map (fun (name, _, r) -> (name, r)) timed in
  (* leave the observability layer as the run had it; drop the spans
     and counters the obs kernels accumulated *)
  Ironsafe_obs.Flight_recorder.disable ();
  Ironsafe_obs.Obs.reset ();
  if obs_was_on then Ironsafe_obs.Obs.enable ()
  else Ironsafe_obs.Obs.disable ();
  (* recorder overhead on the event hot path: a unitless on/off ratio,
     so it is written under "derived", not among the ns/op kernels; the
     floor entry still gates it, bounding how much the tap (render +
     ring write) may multiply a bare emit *)
  let overhead =
    let emit = List.assoc "event_emit" results in
    let rec_emit = List.assoc "recorder_on_event_emit" results in
    let ratio = if emit > 0.0 then rec_emit /. emit else 1.0 in
    Fmt.pr "%-34s %14.2fx@." "recorder_event_overhead" ratio;
    ("recorder_event_overhead", ratio)
  in
  let hit = List.assoc "bufpool-hit-read" results in
  let direct = List.assoc "securestore-read-page" results in
  if hit > 0.0 then
    Fmt.pr "%-34s %14.1fx@." "pool-hit speedup vs direct read" (direct /. hit);
  (* the core count the run had, so the numbers are interpretable on
     any machine *)
  let cores = Domain.recommended_domain_count () in
  Fmt.pr "%-34s %14d@." "cores-available" cores;
  Fmt.pr "%-34s %14s@." "crypto-path" C.Accel.path;
  write_hotpath_json
    ~derived:[ overhead; ("cores-available", float_of_int cores) ]
    ~spread results;
  Option.iter (check_floor (overhead :: results)) !floor_file

(* ------------------------------------------------------------------ *)
(* Saturation: open-loop knee-finding sweep at 10^5-10^6 concurrent
   sessions. Every config gets --sat-sessions lanes (admission =
   run-queue = session count, so nothing sheds before the knee) and an
   offered-load sweep at fixed multiples of its analytic capacity: the
   per-query demand each contended server class sees, read off the
   interned tapes, divided by that server's slots — the bottleneck
   bounds the deliverable rate. The knee is the first point delivering
   < 95% of the offered rate. Forensics are bounded to
   --sample-sessions lanes (counts, percentiles, utilization and
   makespan stay exact), which is what holds the heap to O(sessions)
   instead of O(queries x tape length). BENCH_saturation.json records
   per-point delivered qps, tail latencies, simulator throughput
   (events/sec wall-clock: rep_events / rep_wall_ns) and the peak live
   heap as a memory guard; --sat-floor gates the overall events/sec
   against bench/floor_saturation.txt. *)

let saturation_out = ref "BENCH_saturation.json"
let sat_sessions = ref 100_000
let sat_queries = ref 0 (* 0: 2x sessions *)
let sat_sample = ref 64
let sat_floor : string option ref = ref None
let sat_slo_p99_ms = ref 0.0 (* 0: SLO watchdog off *)
let sat_dump_dir : string option ref = ref None (* arms the recorder *)

(* pre-refactor reference on the dev container: the ordered-map event
   queue with per-session event lists sustained ~5.0e4 events/sec
   open-loop at 10^4 lanes, and did not finish a 10^5-lane sweep
   inside 10 minutes (the sorted free-lane list alone is O(n log n)
   per completion). Ratios in the JSON are against this figure. *)
let sat_baseline_events_per_sec = 5.0e4

let saturation scale =
  header "Saturation: open-loop knee sweep at 10^5+ concurrent sessions";
  let recorder_on =
    match !sat_dump_dir with
    | None -> false
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        Ironsafe_obs.Obs.enable ();
        Ironsafe_obs.Obs.set_sample_every max_int;
        Ironsafe_obs.Flight_recorder.configure ~dir ();
        Ironsafe_obs.Flight_recorder.enable ();
        true
  in
  let d = deployment ~scale () in
  let sessions = !sat_sessions in
  let queries = if !sat_queries > 0 then !sat_queries else 2 * sessions in
  let mix = [ 1; 6 ] in
  let multipliers = [ 0.25; 0.5; 1.0; 2.0; 4.0 ] in
  let spec0 = Sched.default_spec in
  Fmt.pr
    "mix: TPC-H %s; %d session lanes, %d queries/point; forensics bounded \
     to ~%d lanes@."
    (String.concat "/" (List.map (fun q -> Printf.sprintf "Q%d" q) mix))
    sessions queries !sat_sample;
  if recorder_on then
    Fmt.pr "flight recorder armed (dump dir %s)%s@."
      (Option.value ~default:"" !sat_dump_dir)
      (if !sat_slo_p99_ms > 0.0 then
         Printf.sprintf "; SLO p99 <= %.3f ms" !sat_slo_p99_ms
       else "");
  Fmt.pr "%-6s %6s %12s %12s %8s %6s %9s %9s %7s %11s %9s@." "config" "mult"
    "offered" "qps" "done" "shed" "p50(ms)" "p99(ms)" "breach" "events/s"
    "heap(MB)";
  let per_config =
    List.map
      (fun config ->
        let profiles =
          List.map
            (fun qid ->
              let q = Tpch.Queries.by_id qid in
              Sched.profile d config
                ~label:(Printf.sprintf "q%d" qid)
                ~sql:q.Tpch.Queries.sql)
            mix
        in
        let capacity = Sched.capacity_qps d spec0 profiles in
        let points =
          List.map
            (fun mult ->
              let qps = mult *. capacity in
              let spec =
                {
                  spec0 with
                  Sched.seed = !workload_seed;
                  arrival = Sched.Open_loop { qps };
                  queries;
                  max_inflight = sessions;
                  queue_depth = sessions;
                  sample_sessions = !sat_sample;
                  tail_slo_ns = !sat_slo_p99_ms *. 1e6;
                }
              in
              let r = Sched.run d spec profiles in
              let evs =
                float_of_int r.Sched.rep_events /. (r.Sched.rep_wall_ns /. 1e9)
              in
              let heap_mb = float_of_int (r.Sched.rep_peak_words * 8) /. 1e6 in
              Fmt.pr
                "%-6s %6.2f %12.1f %12.1f %8d %6d %9.3f %9.3f %7d %11.0f \
                 %9.1f@."
                (Config.abbrev config) mult qps r.Sched.rep_throughput_qps
                r.Sched.rep_completed r.Sched.rep_shed
                (ms r.Sched.rep_latency.Sched.p50_ns)
                (ms r.Sched.rep_latency.Sched.p99_ns)
                r.Sched.rep_tail_breaches evs heap_mb;
              (mult, qps, r, evs, heap_mb))
            multipliers
        in
        let knee =
          List.find_opt
            (fun (_, qps, r, _, _) ->
              r.Sched.rep_throughput_qps < 0.95 *. qps)
            points
        in
        (match knee with
        | Some (mult, qps, _, _, _) ->
            Fmt.pr "%-6s knee at %.2fx capacity (offered %.1f qps)@."
              (Config.abbrev config) mult qps
        | None ->
            Fmt.pr "%-6s no knee inside the sweep (delivered >= 95%% of \
                    offered everywhere)@."
              (Config.abbrev config));
        (config, capacity, knee, points))
      Config.all
  in
  let tot_events, tot_wall, peak_mb =
    List.fold_left
      (fun acc (_, _, _, points) ->
        List.fold_left
          (fun (e, w, pk) (_, _, r, _, mb) ->
            (e + r.Sched.rep_events, w +. (r.Sched.rep_wall_ns /. 1e9),
             Float.max pk mb))
          acc points)
      (0, 0.0, 0.0) per_config
  in
  let overall = float_of_int tot_events /. tot_wall in
  Fmt.pr
    "@.overall: %d events in %.2fs wall = %.0f events/sec (%.1fx the \
     pre-refactor queue); peak live heap %.1f MB@."
    tot_events tot_wall overall
    (overall /. sat_baseline_events_per_sec)
    peak_mb;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"schema\": \"ironsafe-saturation-v1\",\n";
  Printf.bprintf buf
    "  \"scale\": %g,\n  \"sessions\": %d,\n  \"queries_per_point\": %d,\n"
    scale sessions queries;
  Printf.bprintf buf "  \"sample_sessions\": %d,\n  \"seed\": %d,\n"
    !sat_sample !workload_seed;
  Printf.bprintf buf "  \"slo_p99_ms\": %g,\n  \"recorder\": %b,\n"
    !sat_slo_p99_ms recorder_on;
  Printf.bprintf buf "  \"mix\": [%s],\n"
    (String.concat ", " (List.map string_of_int mix));
  Printf.bprintf buf "  \"baseline_events_per_sec\": %.0f,\n"
    sat_baseline_events_per_sec;
  Buffer.add_string buf "  \"configs\": [\n";
  List.iteri
    (fun ci (config, capacity, knee, points) ->
      Printf.bprintf buf
        "    {\"config\": %S, \"capacity_qps\": %.3f, \"knee_multiplier\": %s,\n"
        (Config.abbrev config) capacity
        (match knee with
        | Some (mult, _, _, _, _) -> Printf.sprintf "%.2f" mult
        | None -> "null");
      Buffer.add_string buf "     \"points\": [\n";
      List.iteri
        (fun i (mult, qps, r, evs, heap_mb) ->
          Printf.bprintf buf
            "       {\"multiplier\": %.2f, \"offered_qps\": %.3f, \"qps\": \
             %.3f, \"completed\": %d, \"shed\": %d, \"p50_ms\": %.6f, \
             \"p95_ms\": %.6f, \"p99_ms\": %.6f, \"tail_breaches\": %d, \
             \"anomalous\": %d, \"events\": %d, \"wall_s\": %.4f, \
             \"events_per_sec\": %.0f, \"peak_heap_mb\": %.1f}%s\n"
            mult qps r.Sched.rep_throughput_qps r.Sched.rep_completed
            r.Sched.rep_shed
            (ms r.Sched.rep_latency.Sched.p50_ns)
            (ms r.Sched.rep_latency.Sched.p95_ns)
            (ms r.Sched.rep_latency.Sched.p99_ns)
            r.Sched.rep_tail_breaches r.Sched.rep_anomalous
            r.Sched.rep_events
            (r.Sched.rep_wall_ns /. 1e9)
            evs heap_mb
            (if i = List.length points - 1 then "" else ","))
        points;
      Printf.bprintf buf "     ]}%s\n"
        (if ci = List.length per_config - 1 then "" else ","))
    per_config;
  Buffer.add_string buf "  ],\n";
  Printf.bprintf buf
    "  \"overall\": {\"events\": %d, \"wall_s\": %.4f, \"events_per_sec\": \
     %.0f, \"speedup_vs_baseline\": %.2f, \"peak_heap_mb\": %.1f}\n"
    tot_events tot_wall overall
    (overall /. sat_baseline_events_per_sec)
    peak_mb;
  Buffer.add_string buf "}\n";
  let json = Buffer.contents buf in
  if not (Ironsafe_obs.Chrome_trace.is_valid_json json) then begin
    Fmt.epr "internal error: emitted saturation JSON is not valid@.";
    exit 1
  end;
  let oc = open_out !saturation_out in
  output_string oc json;
  close_out oc;
  Fmt.pr "@.wrote %s@." !saturation_out;
  if recorder_on then begin
    Fmt.pr "flight recorder: %d dumps written%s@."
      (Ironsafe_obs.Flight_recorder.dump_count ())
      (match Ironsafe_obs.Flight_recorder.dropped () with
      | 0 -> ""
      | n -> Printf.sprintf " (%d past the cap dropped)" n);
    Ironsafe_obs.Flight_recorder.disable ();
    Ironsafe_obs.Obs.disable ()
  end;
  (* floor gate: minimum acceptable overall simulator throughput
     (direction reversed from the ns/op kernel floors). With the
     recorder armed the bar relaxes by 10% — the acceptance criterion
     for recorder overhead on the replay loop. *)
  match !sat_floor with
  | None -> ()
  | Some file -> (
      match List.assoc_opt "events-per-sec" (load_floor file) with
      | None ->
          Fmt.epr "floor file %s has no events-per-sec entry@." file;
          exit 1
      | Some entry ->
          let min_evs = if recorder_on then 0.9 *. entry else entry in
          if overall < min_evs then begin
            Fmt.epr "REGRESSION saturation%s: %.0f events/sec < floor %.0f@."
              (if recorder_on then " (recorder on)" else "")
              overall min_evs;
            exit 1
          end
          else
            Fmt.pr "floor check%s: %.0f events/sec >= %.0f (%s)@."
              (if recorder_on then " (recorder on, 0.9x bar)" else "")
              overall min_evs file)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table2", table2);
    ("figure6", figure6);
    ("figure7", figure7);
    ("figure8", figure8);
    ("figure9a", figure9a);
    ("figure9b", figure9b);
    ("figure9c", figure9c);
    ("figure10", figure10);
    ("figure11", figure11);
    ("figure12", figure12);
    ("table3", table3);
    ("table4", table4);
    ("ablations", ablations);
    ("workload", workload);
    ("oltp", oltp);
    ("cluster", cluster);
    ("microbench", microbench);
  ]

(* The bench's "faults" JSON section: injection/recovery/rejection
   counts for this run, spliced into the trace file and printed when a
   fault profile is active. *)
let faults_json () =
  let s = Fault.stats !fault_plan in
  Printf.sprintf
    "{\"profile\":%S,\"seed\":%d,\"injected\":%d,\"recovered\":%d,\"rejected\":%d,\"retries\":%d,\"reattestations\":%d}"
    (Fault.profile_name !fault_profile)
    !fault_seed s.Fault.injected s.Fault.recovered s.Fault.rejected
    s.Fault.retries s.Fault.reattestations

let write_trace file =
  let json = Ironsafe_obs.Obs.to_chrome_json () in
  (* the chrome trace is a JSON object; prepend the faults section *)
  let json =
    if Fault.enabled !fault_plan && String.length json > 0 && json.[0] = '{'
    then
      Printf.sprintf "{\"faults\":%s,%s" (faults_json ())
        (String.sub json 1 (String.length json - 1))
    else json
  in
  if not (Ironsafe_obs.Chrome_trace.is_valid_json json) then begin
    Fmt.epr "internal error: emitted trace is not valid JSON@.";
    exit 1
  end;
  match open_out file with
  | exception Sys_error e ->
      Fmt.epr "cannot write trace: %s@." e;
      exit 1
  | oc ->
      output_string oc json;
      close_out oc;
      Fmt.pr "trace written to %s (%d bytes; open in Perfetto)@." file
        (String.length json)

let () =
  let experiment = ref "all" in
  let scale = ref default_scale in
  let trace_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--experiment" :: v :: rest ->
        experiment := v;
        parse rest
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        parse rest
    | "--trace-out" :: v :: rest ->
        trace_out := Some v;
        parse rest
    | "--quick" :: rest ->
        bench_quick := true;
        parse rest
    | "--bench-out" :: v :: rest ->
        bench_out := v;
        parse rest
    | "--check-floor" :: v :: rest ->
        floor_file := Some v;
        parse rest
    | "--sat-sessions" :: v :: rest ->
        sat_sessions := int_of_string v;
        parse rest
    | "--sat-queries" :: v :: rest ->
        sat_queries := int_of_string v;
        parse rest
    | "--sample-sessions" :: v :: rest ->
        sat_sample := int_of_string v;
        parse rest
    | "--saturation-out" :: v :: rest ->
        saturation_out := v;
        parse rest
    | "--sat-floor" :: v :: rest ->
        sat_floor := Some v;
        parse rest
    | "--sat-slo-p99-ms" :: v :: rest ->
        sat_slo_p99_ms := float_of_string v;
        parse rest
    | "--sat-dump-dir" :: v :: rest ->
        sat_dump_dir := Some v;
        parse rest
    | "--cluster-out" :: v :: rest ->
        cluster_out := v;
        parse rest
    | "--fault-seed" :: v :: rest ->
        fault_seed := int_of_string v;
        parse rest
    | "--workload-seed" :: v :: rest ->
        workload_seed := int_of_string v;
        parse rest
    | "--fault-profile" :: v :: rest ->
        (match Fault.profile_of_string v with
        | Some p -> fault_profile := p
        | None ->
            Fmt.epr "unknown fault profile %s (none/flaky-net/bit-rot/hostile)@." v;
            exit 2);
        parse rest
    | other :: _ ->
        Fmt.epr "unknown argument %s@." other;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  fault_plan := Fault.of_profile ~seed:!fault_seed !fault_profile;
  if !trace_out <> None then Ironsafe_obs.Obs.enable ();
  Fmt.pr "IronSafe benchmark harness (scale factor %g)@." !scale;
  let t0 = Unix.gettimeofday () in
  (* graceful degradation: under a fault profile an experiment may be
     cut short by a typed rejection (e.g. unrecoverable bit rot); the
     remaining experiments still run and the faults section reports it *)
  let guarded name f scale =
    try f scale with
    | Rejected_under_faults v when Fault.enabled !fault_plan ->
        Fmt.pr "@.%s aborted: query rejected under faults (%s)@." name v
    | Sql.Pager.Integrity_failure detail when Fault.enabled !fault_plan ->
        Fault.note_rejected !fault_plan;
        Fmt.pr "@.%s aborted: storage integrity failure (%s)@." name detail
  in
  (match !experiment with
  | "all" ->
      (* the 10^5-session saturation sweep is a targeted run, not part
         of "all" — invoke it with --experiment saturation *)
      List.iter (fun (name, f) -> guarded name f !scale) experiments
  | "saturation" -> guarded "saturation" saturation !scale
  | name -> (
      match List.assoc_opt name experiments with
      | Some f -> guarded name f !scale
      | None ->
          Fmt.epr "unknown experiment %s (available: %s, saturation)@."
            name
            (String.concat ", " (List.map fst experiments));
          exit 2));
  if Fault.enabled !fault_plan then Fmt.pr "@.faults: %s@." (faults_json ());
  Option.iter write_trace !trace_out;
  Fmt.pr "@.total wall time: %.1fs@." (Unix.gettimeofday () -. t0)
