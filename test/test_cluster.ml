(* Sharded scatter-gather cluster tests.

   The cluster's functional contract is exactness: for every SELECT,
   an N-shard scatter-gather execution must return the single-node
   result — not just the same multiset, the same rows in the same
   order — under every Table-2 configuration and both partition
   schemes. The suites below pin that down on fixed queries (shards
   2 and 4), on the 220-query generated corpus (shards 2, all five
   configs), and on the gather operators' own edges (merge-sort tie
   order, partial-agg recombination including AVG and empty shards).
   One-shard clusters must be byte-identical to no cluster at all
   (delegation, checked on the event log). A flaky shard may degrade
   or reject a query — typed, never silently-wrong rows — and every
   shard attests under its own TrustZone identity, observable as one
   audit-chain entry per shard. *)

open Ironsafe
module Sql = Ironsafe_sql
module Tpch = Ironsafe_tpch
module Cluster = Ironsafe_cluster.Cluster
module Fault = Ironsafe_fault.Fault
module Obs = Ironsafe_obs.Obs
module Monitor = Ironsafe_monitor.Trusted_monitor
module Audit = Ironsafe_monitor.Audit_log

let base_seed =
  match Sys.getenv_opt "IRONSAFE_FAULT_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 42)
  | None -> 42

(* one shared deployment for the functional tests, like the
   differential suite's, at the same SF 0.01 *)
let deploy =
  lazy
    (Deployment.create ~seed:"cluster-test"
       ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:0.01))
       ())

let attested cl =
  match Cluster.attest cl with
  | Ok () -> cl
  | Error e -> failwith ("cluster attestation failed: " ^ e)

let cluster2 =
  lazy
    (attested
       (Cluster.create ~shards:2 ~scheme:Partitioner.Hash (Lazy.force deploy)))

let cluster4 =
  lazy
    (attested
       (Cluster.create ~shards:4 ~scheme:Partitioner.Hash (Lazy.force deploy)))

let cluster4_range =
  lazy
    (attested
       (Cluster.create ~shards:4 ~scheme:Partitioner.Range (Lazy.force deploy)))

let canonical = Test_differential.canonical

let all_configs =
  [ Config.Hons; Config.Hos; Config.Vcs; Config.Scs; Config.Sos ]

(* exact equality: columns, and rows in order *)
let exact (r : Sql.Exec.result) =
  ( r.Sql.Exec.columns,
    List.map
      (fun row ->
        String.concat "|" (Array.to_list (Array.map Sql.Value.to_string row)))
      r.Sql.Exec.rows )

let result_t = Alcotest.(pair (list string) (list string))

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

(* -- fixed-query differential: shards x configs x schemes --------------- *)

let fixed_queries =
  [
    (* scan, filter, projection *)
    "select n_nationkey, n_name from nation where n_regionkey = 1";
    "select r_regionkey, r_name from region";
    (* constant projection (offload ships literal 1 per row) *)
    "select count(*) as n from customer where c_acctbal < 0";
    (* global aggregates over an integer column: partial-agg pushdown *)
    "select sum(p_size) as s, count(*) as n, avg(p_size) as a, min(p_size) \
     as mn, max(p_size) as mx from part";
    (* float aggregate: falls back to the generic concat gather *)
    "select count(*) as n, sum(s_acctbal) as s from supplier where \
     s_acctbal > 0";
    (* group by + order by *)
    "select c_mktsegment, count(*) as n from customer group by c_mktsegment \
     order by c_mktsegment";
    (* join *)
    "select n_name, count(*) as n from supplier, nation where s_nationkey = \
     n_nationkey group by n_name order by n_name";
    (* order by + limit: k-way merge-sort gather *)
    "select p_partkey, p_size from part where p_size < 15 order by \
     p_partkey limit 25";
    (* empty result *)
    "select s_suppkey from supplier where s_suppkey < 0";
  ]

let check_cluster_matches cl label =
  let d = Lazy.force deploy in
  List.iter
    (fun sql ->
      let reference = exact (Runner.run_query d Config.Hons sql).Runner.result in
      List.iter
        (fun cfg ->
          let got = exact (Cluster.run_query cl cfg sql).Runner.result in
          Alcotest.check result_t
            (Printf.sprintf "%s %s = single-node for %s" label
               (Config.abbrev cfg) sql)
            reference got)
        all_configs)
    fixed_queries

let test_fixed_2_shards () = check_cluster_matches (Lazy.force cluster2) "2h"
let test_fixed_4_shards () = check_cluster_matches (Lazy.force cluster4) "4h"

let test_fixed_4_shards_range () =
  check_cluster_matches (Lazy.force cluster4_range) "4r"

(* same cluster shape, same scheme, same data: the partitioning (and
   therefore the whole scatter-gather execution) is deterministic *)
let test_partition_deterministic () =
  let d = Lazy.force deploy in
  let a = Cluster.create ~shards:4 ~scheme:Partitioner.Hash d in
  let b = Cluster.create ~shards:4 ~scheme:Partitioner.Hash d in
  List.iter
    (fun sql ->
      Alcotest.check result_t
        (Printf.sprintf "deterministic partition for %s" sql)
        (exact (Cluster.run_query a Config.Vcs sql).Runner.result)
        (exact (Cluster.run_query b Config.Vcs sql).Runner.result))
    fixed_queries

(* -- generated corpus: the cluster differential property ---------------- *)

let qcheck_cluster_agrees =
  QCheck.Test.make
    ~name:"2-shard scatter-gather equals single-node on generated corpus"
    ~count:Test_differential.differential_count
    (QCheck.make ~print:Fun.id Test_differential.query_gen)
    (fun sql ->
      let d = Lazy.force deploy in
      let cl = Lazy.force cluster2 in
      let want = exact (Runner.run_query d Config.Hons sql).Runner.result in
      List.for_all
        (fun cfg ->
          let got = exact (Cluster.run_query cl cfg sql).Runner.result in
          if got = want then true
          else
            QCheck.Test.fail_reportf
              "2-shard %s diverges from single-node on:@.%s@."
              (Config.abbrev cfg) sql)
        all_configs)

(* -- gather operator selection and edges --------------------------------- *)

let test_gather_operator_selection () =
  let cl = Lazy.force cluster2 in
  let check sql want =
    Alcotest.(check string) sql want (Cluster.gather_operator cl sql)
  in
  check "select sum(p_size) as s, avg(p_size) as a from part" "partial-agg";
  check "select count(*) as n from customer where c_acctbal < 0" "partial-agg";
  (* float SUM cannot recombine exactly: generic path *)
  check "select sum(s_acctbal) as s from supplier" "concat";
  check "select p_partkey, p_size from part order by p_partkey limit 25"
    "merge-sort";
  check "select n_nationkey from nation where n_regionkey = 1" "concat";
  check
    "select c_mktsegment, count(*) as n from customer group by c_mktsegment"
    "concat";
  check "insert into region values (9, 'X', 'y')" "none"

(* duplicate sort keys: the merge must reproduce the single-node
   (stable, insertion-order) tie order exactly, ascending and
   descending, with and without limit *)
let test_merge_sort_tie_determinism () =
  let d = Lazy.force deploy in
  List.iter
    (fun cl ->
      List.iter
        (fun sql ->
          Alcotest.(check string)
            (Printf.sprintf "merge-sort gathers %s" sql)
            "merge-sort"
            (Cluster.gather_operator cl sql);
          let want =
            exact (Runner.run_query d Config.Scs sql).Runner.result
          in
          Alcotest.check result_t
            (Printf.sprintf "tie order preserved for %s" sql)
            want
            (exact (Cluster.run_query cl Config.Scs sql).Runner.result))
        [
          (* n_regionkey has 5 distinct values over 25 nations: ties *)
          "select n_regionkey, n_name from nation order by n_regionkey";
          "select n_regionkey, n_name from nation order by n_regionkey desc";
          "select c_nationkey, c_custkey from customer order by c_nationkey \
           limit 40";
          "select s_nationkey, s_suppkey from supplier order by s_nationkey \
           desc limit 17";
        ])
    [ Lazy.force cluster2; Lazy.force cluster4 ]

(* partial aggregation: SUM/COUNT/MIN/MAX/AVG recombination, including
   AVG as SUM+COUNT, shards with no matching rows, and the
   all-shards-empty edge (one row of aggregate identities) *)
let test_partial_agg_recombination () =
  let d = Lazy.force deploy in
  List.iter
    (fun cl ->
      List.iter
        (fun sql ->
          Alcotest.(check string)
            (Printf.sprintf "partial-agg gathers %s" sql)
            "partial-agg"
            (Cluster.gather_operator cl sql);
          List.iter
            (fun cfg ->
              let want = exact (Runner.run_query d cfg sql).Runner.result in
              Alcotest.check result_t
                (Printf.sprintf "%s recombines %s" (Config.abbrev cfg) sql)
                want
                (exact (Cluster.run_query cl cfg sql).Runner.result))
            [ Config.Hons; Config.Scs ])
        [
          "select sum(p_size) as s, count(*) as n, avg(p_size) as a, \
           min(p_size) as mn, max(p_size) as mx from part";
          (* highly selective: at 4 shards some shards ship no rows *)
          "select sum(p_size) as s, count(*) as n, avg(p_size) as a from \
           part where p_partkey < 3";
          (* empty everywhere: count 0, sum/avg/min/max null *)
          "select count(*) as n, sum(p_size) as s, avg(p_size) as a, \
           min(p_size) as mn from part where p_size < 0";
          (* min/max over a string column *)
          "select min(n_name) as mn, max(n_name) as mx, count(n_name) as n \
           from nation";
        ])
    [ Lazy.force cluster2; Lazy.force cluster4 ]

(* -- one shard = no cluster (byte identity) ------------------------------ *)

let test_single_shard_byte_identity () =
  let d = Lazy.force deploy in
  let cl = Cluster.create ~shards:1 ~scheme:Partitioner.Hash d in
  Alcotest.(check int) "nshards" 1 (Cluster.nshards cl);
  Alcotest.(check (list string)) "no shard nodes" [] (Cluster.shard_nodes cl |> List.map Ironsafe_sim.Node.name);
  let sql =
    "select n_name, count(*) as n from supplier, nation where s_nationkey = \
     n_nationkey group by n_name order by n_name"
  in
  let stmt = Sql.Parser.parse sql in
  let capture run =
    Obs.reset ();
    Obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        let m = run () in
        (Obs.to_jsonl (), m))
  in
  List.iter
    (fun cfg ->
      let jl_single, m_single =
        capture (fun () -> Runner.run_stmt d cfg stmt)
      in
      let jl_cluster, m_cluster =
        capture (fun () -> Cluster.run_stmt cl cfg stmt)
      in
      let tag = Config.abbrev cfg in
      Alcotest.(check string)
        (tag ^ ": event log byte-identical") jl_single jl_cluster;
      Alcotest.(check (float 0.0))
        (tag ^ ": identical latency") m_single.Runner.end_to_end_ns
        m_cluster.Runner.end_to_end_ns;
      Alcotest.(check int)
        (tag ^ ": identical bytes shipped") m_single.Runner.bytes_shipped
        m_cluster.Runner.bytes_shipped;
      Alcotest.check result_t
        (tag ^ ": identical result")
        (exact m_single.Runner.result)
        (exact m_cluster.Runner.result))
    all_configs

(* -- validation ---------------------------------------------------------- *)

let test_rejects_bad_shard_count () =
  let d = Lazy.force deploy in
  Alcotest.check_raises "shards = 0"
    (Invalid_argument "Cluster.create: shards must be >= 1") (fun () ->
      ignore (Cluster.create ~shards:0 ~scheme:Partitioner.Hash d))

let test_rejects_dml_on_shards () =
  let cl = Lazy.force cluster2 in
  match
    Cluster.run_query cl Config.Scs "insert into region values (9, 'X', 'y')"
  with
  | _ -> Alcotest.fail "DML must not run on read-only shard replicas"
  | exception Invalid_argument _ -> ()

(* -- the front door: Engine.submit over shards ----------------------------- *)

(* The same §3.1 workflow as on one node: the control path is charged,
   the result is signed and verifies, and the session is cleaned up. *)
let front_door cl =
  let e = Cluster.engine cl in
  ignore (Engine.register_client e ~label:"front" ());
  Engine.set_access_policy e
    "read ::= sessionKeyIs(front)\nwrite ::= sessionKeyIs(front)";
  e

let engine2 = lazy (front_door (Lazy.force cluster2))

let control_path_ns () =
  let p = (Lazy.force deploy).Deployment.params in
  p.Ironsafe_sim.Params.tls_handshake_ns
  +. (6.0 *. p.Ironsafe_sim.Params.net_latency_ns)
  +. p.Ironsafe_sim.Params.monitor_policy_ns
  +. p.Ironsafe_sim.Params.monitor_session_ns

let live_sessions e = Monitor.live_sessions (Engine.monitor e)

let test_front_door_all_configs () =
  let d = Lazy.force deploy in
  let e = Lazy.force engine2 in
  let control = control_path_ns () in
  List.iter
    (fun sql ->
      List.iter
        (fun config ->
          let want = (Runner.run_query d config sql).Runner.result in
          match Engine.submit e ~client:"front" ~config ~sql () with
          | Error err -> Alcotest.failf "%s: %s" (Config.abbrev config) err
          | Ok r ->
              let tag = Config.abbrev config ^ ": " in
              Alcotest.check result_t (tag ^ "single-node rows") (exact want)
                (exact r.Engine.resp_result);
              Alcotest.(check bool) (tag ^ "proof verifies") true
                (Engine.verify_response e r ~sql);
              Alcotest.(check bool) (tag ^ "control path charged") true
                (r.Engine.resp_metrics.Runner.end_to_end_ns >= control);
              Alcotest.(check int) (tag ^ "no live session") 0
                (live_sessions e))
        all_configs)
    [
      (Tpch.Queries.by_id 6).Tpch.Queries.sql;
      "select n_name, n_regionkey from nation order by n_regionkey, n_name";
    ]

let test_front_door_refusals () =
  let e = Lazy.force engine2 in
  (match
     Engine.submit e ~client:"front"
       ~sql:"insert into region values (9, 'X', 'y')" ()
   with
  | Ok _ -> Alcotest.fail "DML ran on read-only shard replicas"
  | Error err ->
      Alcotest.(check bool) "typed read-only refusal" true
        (contains err "cluster.read_only"));
  Alcotest.(check int) "no live session after DML" 0 (live_sessions e);
  (match
     Engine.submit e ~client:"mallory" ~sql:"select count(*) from nation" ()
   with
  | Ok _ -> Alcotest.fail "unregistered client answered"
  | Error _ -> ());
  Alcotest.(check int) "no live session after denial" 0 (live_sessions e)

(* A write on shard replicas is a refusal, not a fault: under a plan in
   which every control-channel handshake fails, the refusal still
   surfaces (it comes before session-key delivery) and the fault
   counters do not move. *)
let test_front_door_refusal_is_not_a_fault () =
  let faults =
    Fault.make ~seed:base_seed [ (Fault.Channel_handshake, Fault.rule ()) ]
  in
  let d =
    Deployment.create ~seed:"cluster-refusal" ~faults
      ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:0.002))
      ()
  in
  let cl = Cluster.create ~shards:2 ~scheme:Partitioner.Hash d in
  let e = front_door cl in
  (match Engine.submit e ~client:"front" ~sql:"select count(*) from nation" () with
  | Ok _ -> Alcotest.fail "session key delivered over a failing channel"
  | Error err ->
      Alcotest.(check bool) "SELECT fails on the control channel" true
        (contains err "control channel"));
  let rejected () = (Fault.stats faults).Fault.rejected in
  let before = rejected () in
  (match
     Engine.submit e ~client:"front"
       ~sql:"insert into region values (9, 'X', 'y')" ()
   with
  | Ok _ -> Alcotest.fail "DML ran on read-only shard replicas"
  | Error err ->
      Alcotest.(check bool) "read-only refusal, not a channel error" true
        (contains err "cluster.read_only"));
  (match
     Cluster.run_query_outcome cl Config.Scs
       "insert into region values (9, 'X', 'y')"
   with
  | Runner.Rejected v ->
      Alcotest.(check string) "outcome site" "cluster.read_only"
        v.Runner.v_site
  | _ -> Alcotest.fail "DML on shard replicas must be Rejected");
  Alcotest.(check int) "no fault rejection counted" before (rejected ());
  Alcotest.(check int) "no live session" 0 (live_sessions e)

(* Shards on an older storage firmware than the base node fail
   [fwVersionStorage(latest)]: the base node alone complies, so a split
   config must run host-only rather than offload to the shards. *)
let test_front_door_exec_policy_downgrades () =
  let d = Lazy.force deploy in
  let cl =
    attested
      (Cluster.create ~storage_version:0 ~shards:2 ~scheme:Partitioner.Hash d)
  in
  let e = front_door cl in
  let sql = (Tpch.Queries.by_id 6).Tpch.Queries.sql in
  List.iter
    (fun (config, downgraded) ->
      let want = (Runner.run_query d config sql).Runner.result in
      match
        Engine.submit e ~client:"front" ~config
          ~exec_policy:"exec ::= fwVersionStorage(latest)" ~sql ()
      with
      | Error err -> Alcotest.fail err
      | Ok r ->
          Alcotest.(check string)
            (Config.abbrev config ^ " runs host-only")
            downgraded
            (Config.abbrev r.Engine.resp_metrics.Runner.config);
          Alcotest.check result_t "same rows" (exact want)
            (exact r.Engine.resp_result))
    [ (Config.Scs, "hos"); (Config.Vcs, "hons") ];
  match
    Engine.submit e ~client:"front" ~exec_policy:"exec ::= fwVersionStorage(0)"
      ~sql ()
  with
  | Error err -> Alcotest.fail err
  | Ok r ->
      Alcotest.(check string) "compliant shards keep the split" "scs"
        (Config.abbrev r.Engine.resp_metrics.Runner.config)

(* -- per-shard attestation ----------------------------------------------- *)

let test_per_shard_audit_entries () =
  let d = Lazy.force deploy in
  let monitor = d.Deployment.monitor in
  let log = Monitor.audit_log monitor in
  let before = Audit.length log in
  let cl =
    attested (Cluster.create ~shards:3 ~scheme:Partitioner.Hash d)
  in
  let fresh =
    List.filter (fun e -> e.Audit.seq >= before) (Audit.entries log)
  in
  let shard_entries =
    List.filter (fun e -> e.Audit.action = "attest-shard") fresh
  in
  Alcotest.(check int) "one evidence entry per shard" 3
    (List.length shard_entries);
  List.iteri
    (fun i id ->
      Alcotest.(check bool)
        (Printf.sprintf "entry names shard %d's device" i)
        true
        (List.exists
           (fun e ->
             contains e.Audit.detail (Printf.sprintf "shard %d device %s" i id)
             && contains e.Audit.detail "attested")
           shard_entries))
    (Cluster.shard_device_ids cl);
  Alcotest.(check (result unit int)) "audit chain verifies" (Ok ())
    (Audit.verify log)

let test_unattested_shard_rejected () =
  let d = Lazy.force deploy in
  (* fresh cluster, never attested: its device ids are not in the
     monitor's attested set *)
  let cl = Cluster.create ~shards:2 ~scheme:Partitioner.Hash d in
  match Cluster.run_query_outcome cl Config.Scs "select count(*) from nation" with
  | Runner.Rejected v ->
      Alcotest.(check string) "violation site" "cluster.attest"
        v.Runner.v_site;
      Alcotest.(check bool) "names the missing device" true
        (contains v.Runner.v_detail "is not attested")
  | _ -> Alcotest.fail "expected Rejected for an unattested shard"

(* -- forensics fan-out --------------------------------------------------- *)

let test_plan_split_events_per_shard () =
  let cl = Lazy.force cluster4 in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      ignore
        (Cluster.run_query cl Config.Vcs
           "select n_nationkey from nation where n_regionkey = 1");
      let jl = Obs.to_jsonl () in
      Alcotest.(check int) "one plan.split per shard" 4
        (count_occurrences jl "\"scope\":\"cluster\",\"kind\":\"plan.split\"");
      List.iter
        (fun i ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %d split recorded" i)
            true
            (contains jl (Printf.sprintf "\"shard\":%d" i)))
        [ 0; 1; 2; 3 ])

let test_attest_events_carry_shard_id () =
  let d = Lazy.force deploy in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      ignore (attested (Cluster.create ~shards:2 ~scheme:Partitioner.Hash d));
      let jl = Obs.to_jsonl () in
      List.iter
        (fun i ->
          Alcotest.(check bool)
            (Printf.sprintf "attest.storage event for shard %d" i)
            true
            (List.exists
               (fun line ->
                 contains line "\"kind\":\"attest.storage\""
                 && contains line (Printf.sprintf "\"shard\":%d" i)
                 && contains line "\"ok\":true")
               (String.split_on_char '\n' jl)))
        [ 0; 1 ])

(* -- flaky shard: typed degradation, never wrong rows -------------------- *)

let fault_probe_queries =
  [
    "select n_nationkey, n_name from nation where n_regionkey = 1";
    "select count(*) as n, sum(s_acctbal) as s from supplier";
    "select c_mktsegment, count(*) as n from customer group by c_mktsegment \
     order by c_mktsegment";
  ]

let run_flaky_shard_seed seed =
  let scale = 0.005 in
  let populate db = ignore (Tpch.Dbgen.populate db ~scale) in
  let oracle = Deployment.create ~seed:"cluster-flaky" ~populate () in
  let faults = Fault.of_profile ~seed Fault.Hostile in
  let d = Deployment.create ~seed:"cluster-flaky" ~faults ~populate () in
  let cl = Cluster.create ~shards:2 ~scheme:Partitioner.Hash d in
  match Cluster.attest_reliable cl with
  | Error _ ->
      (* refused attestation is itself a typed, observable outcome *)
      ()
  | Ok () ->
      List.iter
        (fun sql ->
          let want =
            canonical (Runner.run_query oracle Config.Scs sql).Runner.result
          in
          match Cluster.run_query_outcome cl Config.Scs sql with
          | Runner.Ok m ->
              Alcotest.check
                Alcotest.(pair (list string) (list string))
                (Printf.sprintf "seed %d: Ok matches oracle on %s" seed sql)
                want
                (canonical m.Runner.result)
          | Runner.Degraded (m, incidents) ->
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: Degraded lists incidents" seed)
                true (incidents <> []);
              Alcotest.check
                Alcotest.(pair (list string) (list string))
                (Printf.sprintf "seed %d: Degraded matches oracle on %s" seed
                   sql)
                want
                (canonical m.Runner.result)
          | Runner.Rejected v | Runner.Crashed v ->
              (* typed refusal: must name a fault site *)
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: violation named on %s" seed sql)
                true
                (String.length v.Runner.v_site > 0))
        fault_probe_queries

let test_flaky_shard_typed_outcomes () =
  List.iter run_flaky_shard_seed [ base_seed; base_seed + 1 ]

(* -- pre-flight TEE faults reach sharded queries ----------------------- *)

(* An enclave abort scheduled by the plan strikes in pre-flight on a
   sharded query exactly as on one node: the same typed outcome with
   the same site, and the outcome event the flight recorder dumps on. *)
let test_sgx_abort_preflight () =
  let sql = "select n_regionkey, count(*) as n from nation group by n_regionkey" in
  let populate db = ignore (Tpch.Dbgen.populate db ~scale:0.002) in
  let run_outcome shards =
    let faults =
      Fault.make ~seed:base_seed [ (Fault.Sgx_abort, Fault.rule ~max_fires:1 ()) ]
    in
    let d = Deployment.create ~seed:"cluster-preflight" ~faults ~populate () in
    let cl = attested (Cluster.create ~shards ~scheme:Partitioner.Hash d) in
    Obs.reset ();
    Obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        let o = Cluster.run_query_outcome cl Config.Scs sql in
        (o, Obs.to_jsonl ()))
  in
  let sites = function
    | Runner.Degraded (_, incidents) ->
        List.map (fun i -> Fault.site_name i.Fault.inc_site) incidents
    | Runner.Rejected v -> [ v.Runner.v_site ]
    | Runner.Ok _ -> [ "ok" ]
    | Runner.Crashed v -> [ "crashed " ^ v.Runner.v_site ]
  in
  let single, _ = run_outcome 1 in
  let sharded, jl = run_outcome 2 in
  Alcotest.(check (list string))
    "the abort fires in pre-flight" [ "sgx.abort" ] (sites single);
  Alcotest.(check (list string))
    "2 shards: same outcome site as one node" (sites single) (sites sharded);
  Alcotest.(check bool)
    "outcome event emitted" true
    (contains jl "\"kind\":\"query.degraded\""
    || contains jl "\"kind\":\"query.rejected\"")

(* -- suite --------------------------------------------------------------- *)

let suite =
  [
    ("fixed queries, 2 hash shards", `Quick, test_fixed_2_shards);
    ("fixed queries, 4 hash shards", `Quick, test_fixed_4_shards);
    ("fixed queries, 4 range shards", `Quick, test_fixed_4_shards_range);
    ("partitioning deterministic", `Quick, test_partition_deterministic);
    ("gather operator selection", `Quick, test_gather_operator_selection);
    ("merge-sort tie determinism", `Quick, test_merge_sort_tie_determinism);
    ("partial-agg recombination", `Quick, test_partial_agg_recombination);
    ("one shard is byte-identical", `Quick, test_single_shard_byte_identity);
    ("rejects shards < 1", `Quick, test_rejects_bad_shard_count);
    ("rejects DML on shard replicas", `Quick, test_rejects_dml_on_shards);
    ("front door: five configs", `Quick, test_front_door_all_configs);
    ("front door: typed refusals", `Quick, test_front_door_refusals);
    ("front door: refusal is not a fault", `Quick,
     test_front_door_refusal_is_not_a_fault);
    ("front door: exec policy downgrades", `Quick,
     test_front_door_exec_policy_downgrades);
    ("per-shard audit entries", `Quick, test_per_shard_audit_entries);
    ("unattested shard rejects query", `Quick, test_unattested_shard_rejected);
    ("plan.split fans out per shard", `Quick, test_plan_split_events_per_shard);
    ("attest events carry shard id", `Quick, test_attest_events_carry_shard_id);
    ("flaky shard: typed outcomes", `Quick, test_flaky_shard_typed_outcomes);
    ("sgx abort in sharded pre-flight", `Quick, test_sgx_abort_preflight);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) [ qcheck_cluster_agrees ]
