(* End-to-end query forensics: the JSONL and OpenMetrics exporters
   (golden renderings), trace propagation across the host/storage wire
   (envelope roundtrip; linked flow events in a split query's trace),
   byte-identical telemetry across identical runs, and the
   zero-perturbation contract — the trace envelope must not change
   virtual-time accounting, whether observability is on or off. *)

open Ironsafe
module Sql = Ironsafe_sql
module Tpch = Ironsafe_tpch
module Obs = Ironsafe_obs.Obs
module Metrics = Ironsafe_obs.Metrics
module Event_log = Ironsafe_obs.Event_log
module Openmetrics = Ironsafe_obs.Openmetrics
module Tc = Ironsafe_obs.Trace_context
module Wire = Ironsafe_net.Wire

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let count_occurrences hay needle =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else if String.sub hay i n = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* -- exporter golden renderings ----------------------------------------- *)

let test_jsonl_golden () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      Event_log.emit ~ts_ns:12.5 ~scope:"monitor" ~kind:"policy.deny"
        [
          ("rule_id", Event_log.S "read-abc");
          ("ok", Event_log.B false);
          ("n", Event_log.I 3);
          ("lat", Event_log.F 2.0);
        ];
      Event_log.emit ~ts_ns:13.0 ~scope:"host" ~kind:"note"
        [ ("msg", Event_log.S "a \"quoted\"\nline") ];
      Alcotest.(check string) "jsonl golden"
        ("{\"ts_ns\":12.5,\"scope\":\"monitor\",\"kind\":\"policy.deny\","
       ^ "\"rule_id\":\"read-abc\",\"ok\":false,\"n\":3,\"lat\":2}\n"
       ^ "{\"ts_ns\":13,\"scope\":\"host\",\"kind\":\"note\","
       ^ "\"msg\":\"a \\\"quoted\\\"\\nline\"}\n")
        (Obs.to_jsonl ()))

let test_jsonl_stamps_trace_context () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let tok = Obs.begin_query () in
      Obs.event ~ts_ns:1.0 ~scope:"host" ~kind:"inside" [];
      ignore (Obs.finish_query tok);
      Obs.event ~ts_ns:2.0 ~scope:"host" ~kind:"outside" [];
      let jsonl = Obs.to_jsonl () in
      let lines = String.split_on_char '\n' jsonl in
      let line_with k = List.find (fun l -> contains l k) lines in
      Alcotest.(check bool) "in-query event carries trace id" true
        (contains (line_with "inside") "\"trace_id\":\"");
      Alcotest.(check bool) "out-of-query event does not" false
        (contains (line_with "outside") "\"trace_id\":\""))

let test_openmetrics_golden () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 m ~scope:"host" "pages_read";
  Metrics.incr m ~scope:"storage" "pages_read";
  Metrics.set m ~scope:"host" "epc.used" 42.5;
  Metrics.observe m ~scope:"storage" "lat" 2.0;
  Metrics.observe m ~scope:"storage" "lat" 1000.0;
  let text = Openmetrics.render (Metrics.snapshot m) in
  (* structural golden: families sorted, names sanitized, counters get
     _total, histograms a cumulative le-series ending at +Inf, and the
     exposition terminates with # EOF *)
  Alcotest.(check bool) "gauge family + sanitized name" true
    (contains text "# TYPE ironsafe_epc_used gauge\n"
    && contains text "ironsafe_epc_used{scope=\"host\"} 42.5\n");
  Alcotest.(check bool) "counter family, one line per scope" true
    (contains text "# TYPE ironsafe_pages_read counter\n"
    && contains text "ironsafe_pages_read_total{scope=\"host\"} 3\n"
    && contains text "ironsafe_pages_read_total{scope=\"storage\"} 1\n");
  Alcotest.(check bool) "histogram le-series" true
    (contains text "# TYPE ironsafe_lat histogram\n"
    && contains text "ironsafe_lat_bucket{scope=\"storage\",le=\"+Inf\"} 2\n"
    && contains text "ironsafe_lat_sum{scope=\"storage\"} 1002.0\n"
    && contains text "ironsafe_lat_count{scope=\"storage\"} 2\n");
  Alcotest.(check int) "one TYPE line per family" 3
    (count_occurrences text "# TYPE ");
  Alcotest.(check bool) "terminated by EOF" true
    (String.length text >= 6
    && String.sub text (String.length text - 6) 6 = "# EOF\n")

(* -- wire envelope ------------------------------------------------------ *)

let test_wire_trace_envelope_roundtrip () =
  Tc.reset ();
  let ctx = Tc.fresh ~span_id:3 ~sampled:true in
  let payload = "hello \x00\xc5 world" in
  let wrapped = Wire.wrap_trace ctx payload in
  Alcotest.(check int) "envelope width"
    (String.length payload + Wire.trace_envelope_length)
    (String.length wrapped);
  (match Wire.unwrap_trace wrapped with
  | Some ctx', p ->
      Alcotest.(check bool) "context roundtrip" true (ctx = ctx');
      Alcotest.(check string) "payload intact" payload p
  | None, _ -> Alcotest.fail "envelope lost");
  match Wire.unwrap_trace payload with
  | None, p -> Alcotest.(check string) "plain passthrough" payload p
  | Some _, _ -> Alcotest.fail "phantom envelope on a bare payload"

(* The envelope parser must never guess: a truncated context, an
   unknown flag bit, or a bare payload all pass through byte-for-byte
   with [None], and stripping a real envelope is idempotent — the
   second unwrap of the recovered payload is the identity. *)
let test_envelope_edge_cases () =
  Tc.reset ();
  let ctx = Tc.fresh ~span_id:1 ~sampled:true in
  let wrapped = Wire.wrap_trace ctx "payload" in
  (* magic present, context cut short (13 < 15 envelope bytes) *)
  let truncated = String.sub wrapped 0 13 in
  (match Wire.unwrap_trace truncated with
  | None, p -> Alcotest.(check string) "truncated passthrough" truncated p
  | Some _, _ -> Alcotest.fail "decoded a truncated envelope");
  (* empty payload, sampled=false: the flag must survive the roundtrip *)
  let ctx0 = Tc.fresh ~span_id:2 ~sampled:false in
  let w0 = Wire.wrap_trace ctx0 "" in
  Alcotest.(check int) "empty payload width" Wire.trace_envelope_length
    (String.length w0);
  (match Wire.unwrap_trace w0 with
  | Some ctx', p ->
      Alcotest.(check string) "empty payload intact" "" p;
      Alcotest.(check bool) "unsampled flag preserved" false ctx'.Tc.sampled
  | None, _ -> Alcotest.fail "empty-payload envelope lost");
  (* unknown flag bits invalidate the whole envelope: passthrough *)
  let corrupt = Bytes.of_string w0 in
  Bytes.set corrupt (Wire.trace_envelope_length - 1) '\xff';
  let corrupt = Bytes.to_string corrupt in
  (match Wire.unwrap_trace corrupt with
  | None, p -> Alcotest.(check string) "unknown flags passthrough" corrupt p
  | Some _, _ -> Alcotest.fail "decoded an envelope with unknown flag bits");
  (* stripping is idempotent *)
  match Wire.unwrap_trace wrapped with
  | Some _, p1 -> (
      match Wire.unwrap_trace p1 with
      | None, p2 -> Alcotest.(check string) "second unwrap is identity" p1 p2
      | Some _, _ -> Alcotest.fail "phantom envelope after stripping")
  | None, _ -> Alcotest.fail "envelope lost on first unwrap"

(* Tail sampling starts at the head: with [sample_every 2] the second
   query of a 2-shard scatter-gather runs unsampled — its trace context
   (sampled=false) still crosses the wire to both shards, no spans are
   collected anywhere, but the event log keeps the full lifecycle under
   a fresh trace id. *)
let test_unsampled_flag_through_scatter () =
  let module Cluster = Ironsafe_cluster.Cluster in
  let sql =
    "select l_orderkey, l_quantity from lineitem where l_quantity >= 45"
  in
  Obs.reset ();
  Obs.enable ();
  Obs.set_sample_every 2;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sample_every 1;
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let d =
        Deployment.create ~seed:"forensics-scatter"
          ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:0.002))
          ()
      in
      let cl = Cluster.create ~shards:2 ~scheme:Partitioner.Hash d in
      (match Cluster.attest cl with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("cluster attestation failed: " ^ e));
      ignore (Cluster.run_query cl Config.Scs sql);
      let spans_q1 = List.length (Obs.spans ()) in
      let jsonl1 = Obs.to_jsonl () in
      ignore (Cluster.run_query cl Config.Scs sql);
      let spans_q2 = List.length (Obs.spans ()) in
      let jsonl2 = Obs.to_jsonl () in
      Alcotest.(check bool) "sampled query collected spans" true
        (spans_q1 > 0);
      Alcotest.(check int) "unsampled query added no spans" spans_q1 spans_q2;
      Alcotest.(check int) "both queries completed on the record" 2
        (count_occurrences jsonl2 "\"kind\":\"query.done\"");
      Alcotest.(check bool) "unsampled lifecycle still logged" true
        (String.length jsonl2 > String.length jsonl1);
      (* the two completions ride distinct trace ids *)
      let trace_id_of line =
        let key = "\"trace_id\":\"" in
        let rec find i =
          if i + String.length key > String.length line then None
          else if String.sub line i (String.length key) = key then
            Some (String.sub line (i + String.length key) 16)
          else find (i + 1)
        in
        find 0
      in
      let done_ids =
        List.filter_map
          (fun l ->
            if contains l "\"kind\":\"query.done\"" then trace_id_of l
            else None)
          (String.split_on_char '\n' jsonl2)
      in
      match done_ids with
      | [ a; b ] ->
          Alcotest.(check bool) "distinct trace ids" true (a <> b)
      | ids ->
          Alcotest.fail
            (Printf.sprintf "expected 2 traced completions, got %d"
               (List.length ids)))

(* -- end-to-end forensics over a split (scs) query ---------------------- *)

let forensic_sql =
  "select l_orderkey, l_quantity from lineitem where l_quantity >= 45"

(* A fresh engine from a fixed seed, so two captures start from
   identical state (same attestation material, empty audit log). *)
let run_scs_capture () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let d =
        Deployment.create ~seed:"forensics-test"
          ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:0.002))
          ()
      in
      let e = Engine.create d in
      ignore (Engine.register_client e ~label:"K" ());
      Engine.set_access_policy e "read ::= sessionKeyIs(K)";
      (match Engine.submit e ~client:"K" ~sql:forensic_sql ~config:Config.Scs ()
       with
      | Ok _ -> ()
      | Error err -> Alcotest.fail err);
      (Obs.to_jsonl (), Obs.to_chrome_json (), Obs.to_openmetrics ()))

let test_split_query_forensics () =
  let jsonl, trace, om = run_scs_capture () in
  (* the policy decision is on the record, with the matched rule's
     forensic id and the audit-log chain head at decision time *)
  Alcotest.(check bool) "policy.allow recorded" true
    (contains jsonl "\"kind\":\"policy.allow\"");
  Alcotest.(check bool) "matched rule id recorded" true
    (contains jsonl "\"rule_id\":\"read-");
  Alcotest.(check bool) "audit chain head recorded" true
    (contains jsonl "\"audit_head\":\"");
  (* attestation and the plan split are part of the query's story *)
  Alcotest.(check bool) "attestation recorded" true
    (contains jsonl "\"kind\":\"attest.storage\"");
  Alcotest.(check bool) "plan split recorded" true
    (contains jsonl "\"kind\":\"plan.split\"");
  Alcotest.(check bool) "query completion recorded" true
    (contains jsonl "\"kind\":\"query.done\"");
  (* lifecycle events of the query share one trace id *)
  let lines = String.split_on_char '\n' jsonl in
  let trace_id_of line =
    let key = "\"trace_id\":\"" in
    let rec find i =
      if i + String.length key > String.length line then None
      else if String.sub line i (String.length key) = key then
        Some (String.sub line (i + String.length key) 16)
      else find (i + 1)
    in
    find 0
  in
  let split_line = List.find (fun l -> contains l "plan.split") lines in
  let done_line = List.find (fun l -> contains l "query.done") lines in
  (match (trace_id_of split_line, trace_id_of done_line) with
  | Some a, Some b -> Alcotest.(check string) "one trace id" a b
  | _ -> Alcotest.fail "lifecycle events missing trace ids");
  (* the Chrome trace links host and storage lanes with flow arrows:
     offload request and reply, each an s/f pair bound by id *)
  Alcotest.(check bool) "flow category present" true
    (contains trace "\"cat\":\"flow\"");
  Alcotest.(check int) "flow starts = finishes"
    (count_occurrences trace "\"ph\":\"s\"")
    (count_occurrences trace "\"ph\":\"f\"");
  Alcotest.(check bool) "at least request + reply arrows" true
    (count_occurrences trace "\"ph\":\"s\"" >= 2);
  Alcotest.(check bool) "both lanes present" true
    (contains trace "\"pid\":\"host\"" && contains trace "\"pid\":\"storage\"");
  (* and the OpenMetrics exposition is complete *)
  Alcotest.(check bool) "openmetrics well terminated" true
    (contains om "# EOF")

let test_telemetry_deterministic_across_runs () =
  let jsonl_a, trace_a, om_a = run_scs_capture () in
  let jsonl_b, trace_b, om_b = run_scs_capture () in
  Alcotest.(check string) "jsonl byte-identical" jsonl_a jsonl_b;
  Alcotest.(check string) "chrome trace byte-identical" trace_a trace_b;
  Alcotest.(check string) "openmetrics byte-identical" om_a om_b

(* The trace envelope rides inside the encrypted channel, but
   virtual-time charges are computed from the bare payload: enabling
   observability must not move a single simulated nanosecond or
   shipped byte. *)
let test_obs_does_not_perturb_accounting () =
  let fresh_deploy () =
    Deployment.create ~seed:"forensics-acct"
      ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:0.002))
      ()
  in
  Obs.disable ();
  Obs.reset ();
  let off = Runner.run_query (fresh_deploy ()) Config.Scs forensic_sql in
  Obs.reset ();
  Obs.enable ();
  let on =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () -> Runner.run_query (fresh_deploy ()) Config.Scs forensic_sql)
  in
  Alcotest.(check (float 1e-9)) "virtual time unchanged"
    off.Runner.end_to_end_ns on.Runner.end_to_end_ns;
  Alcotest.(check int) "bytes shipped unchanged" off.Runner.bytes_shipped
    on.Runner.bytes_shipped;
  Alcotest.(check int) "pages scanned unchanged" off.Runner.pages_scanned
    on.Runner.pages_scanned;
  Alcotest.(check string) "results identical"
    (Fmt.str "%a" Sql.Exec.pp_result off.Runner.result)
    (Fmt.str "%a" Sql.Exec.pp_result on.Runner.result);
  Alcotest.(check bool) "obs-on run carries a profile" true
    (Option.is_some on.Runner.profile);
  Alcotest.(check bool) "obs-off run does not" true (off.Runner.profile = None)

(* The scheduler's report and the metrics registry draw from the same
   bucketed histogram extraction, so on a real run their p99s (and
   p50s) agree exactly over the same completions. *)
let test_sched_p99_matches_registry () =
  let module Sched = Ironsafe_sched.Sched in
  Obs.disable ();
  Obs.reset ();
  let d =
    Deployment.create ~seed:"forensics-sched"
      ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:0.002))
      ()
  in
  let profiles =
    List.map
      (fun id ->
        let q = Tpch.Queries.by_id id in
        Sched.profile d Config.Scs
          ~label:(Printf.sprintf "q%d" id)
          ~sql:q.Tpch.Queries.sql)
      [ 1; 6 ]
  in
  (* contended open loop with a run queue deep enough that nothing
     sheds: latencies spread over many buckets *)
  let spec =
    {
      Sched.default_spec with
      Sched.seed = 23;
      arrival = Sched.Open_loop { qps = 1500.0 };
      queries = 200;
      max_inflight = 4;
      queue_depth = 200;
    }
  in
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let r = Sched.run d spec profiles in
      let snap = Obs.metrics () in
      Alcotest.(check int) "every query completed" 200 r.Sched.rep_completed;
      Alcotest.(check int) "every completion observed" r.Sched.rep_completed
        (Metrics.hist_count snap ~scope:"sched" "latency_ns");
      Alcotest.(check bool) "latencies spread" true
        (r.Sched.rep_latency.Sched.p99_ns > r.Sched.rep_latency.Sched.p50_ns);
      Alcotest.(check (float 0.0)) "registry p50 = report p50"
        r.Sched.rep_latency.Sched.p50_ns
        (Metrics.hist_percentile snap ~scope:"sched" "latency_ns" 0.50);
      Alcotest.(check (float 0.0)) "registry p99 = report p99"
        r.Sched.rep_latency.Sched.p99_ns
        (Metrics.hist_percentile snap ~scope:"sched" "latency_ns" 0.99))

let suite =
  [
    ("jsonl golden rendering", `Quick, test_jsonl_golden);
    ("jsonl stamps trace context", `Quick, test_jsonl_stamps_trace_context);
    ("openmetrics golden rendering", `Quick, test_openmetrics_golden);
    ("wire trace envelope roundtrip", `Quick, test_wire_trace_envelope_roundtrip);
    ("envelope edge cases", `Quick, test_envelope_edge_cases);
    ("unsampled flag through scatter", `Quick, test_unsampled_flag_through_scatter);
    ("split query forensics", `Quick, test_split_query_forensics);
    ("telemetry deterministic across runs", `Quick, test_telemetry_deterministic_across_runs);
    ("obs does not perturb accounting", `Quick, test_obs_does_not_perturb_accounting);
    ("sched p99 matches registry", `Quick, test_sched_p99_matches_registry);
  ]
