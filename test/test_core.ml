(* Core integration tests: the partitioner, the five-configuration
   runner (result equivalence + metric sanity), and the end-to-end
   engine workflow with GDPR policies and attacks. *)

open Ironsafe
module Sql = Ironsafe_sql
module Tpch = Ironsafe_tpch
module P = Ironsafe_policy
module M = Ironsafe_monitor

(* a tiny shared TPC-H deployment, built once *)
let deploy =
  lazy
    (Deployment.create ~seed:"core-test"
       ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:0.002))
       ())

(* -- Partitioner --------------------------------------------------------- *)

let catalog () = Sql.Database.catalog (Lazy.force deploy).Deployment.plain_db

let split sql = Partitioner.split (catalog ()) (Sql.Parser.parse sql)

let shipped_for plan table =
  List.find (fun (s : Partitioner.shipped_table) -> s.table = table)
    plan.Partitioner.shipped

let test_partitioner_pushes_filters () =
  let plan =
    split "select l_orderkey from lineitem where l_shipdate < date '1995-01-01' and l_quantity < 10"
  in
  let li = shipped_for plan "lineitem" in
  Alcotest.(check bool) "filter offloaded" true (Option.is_some li.Partitioner.predicate);
  Alcotest.(check (list string)) "projection minimal"
    [ "l_orderkey"; "l_quantity"; "l_shipdate" ]
    (List.sort compare li.Partitioner.columns)

let test_partitioner_join_preds_stay () =
  let plan =
    split
      "select o_orderdate from orders, lineitem where o_orderkey = l_orderkey and o_totalprice > 100"
  in
  let orders = shipped_for plan "orders" in
  let li = shipped_for plan "lineitem" in
  (* the single-table filter offloads; the join predicate must not *)
  Alcotest.(check bool) "orders filtered" true (Option.is_some orders.Partitioner.predicate);
  Alcotest.(check bool) "lineitem unfiltered" true (li.Partitioner.predicate = None)

let test_partitioner_multiple_occurrences_or () =
  (* Q21-style: lineitem appears as l1 (filtered) and l2 (unfiltered):
     the shipped table must be unfiltered *)
  let plan =
    split
      "select l1.l_orderkey from lineitem l1 where l1.l_quantity > 45 and exists \
       (select * from lineitem l2 where l2.l_orderkey = l1.l_orderkey)"
  in
  let li = shipped_for plan "lineitem" in
  Alcotest.(check bool) "unfiltered occurrence wins" true (li.Partitioner.predicate = None)

let test_partitioner_or_of_filters () =
  let plan =
    split
      "select l1.l_quantity from lineitem l1, lineitem l2 where l1.l_orderkey = l2.l_orderkey \
       and l1.l_quantity > 45 and l2.l_quantity < 5"
  in
  let li = shipped_for plan "lineitem" in
  (* both occurrences filtered: shipped predicate is their OR *)
  match li.Partitioner.predicate with
  | Some (Sql.Ast.Binop (Sql.Ast.Or, _, _)) -> ()
  | _ -> Alcotest.fail "expected OR of per-occurrence filters"

let test_partitioner_subquery_tables_included () =
  let plan =
    split
      "select o_orderpriority from orders where exists (select * from lineitem where \
       l_orderkey = o_orderkey and l_commitdate < l_receiptdate)"
  in
  Alcotest.(check bool) "lineitem shipped for subquery" true
    (List.exists (fun (s : Partitioner.shipped_table) -> s.table = "lineitem")
       plan.Partitioner.shipped);
  (* exists(select * ...) must not force shipping every lineitem column *)
  let li = shipped_for plan "lineitem" in
  Alcotest.(check bool) "star under exists is narrow" true
    (List.length li.Partitioner.columns < 16)

let test_partitioner_offload_sql_parses () =
  (* every offloaded sub-query of every TPC-H query must re-parse *)
  List.iter
    (fun (q : Tpch.Queries.t) ->
      let plan = split q.Tpch.Queries.sql in
      List.iter
        (fun (_, sql) ->
          match Sql.Parser.parse sql with
          | _ -> ()
          | exception e ->
              Alcotest.failf "Q%d offload %s: %s" q.Tpch.Queries.id sql
                (Printexc.to_string e))
        plan.Partitioner.offload_sql)
    Tpch.Queries.complete

let test_partitioner_describe () =
  let plan = split "select l_orderkey from lineitem where l_quantity < 5" in
  let text = Partitioner.describe plan in
  Alcotest.(check bool) "mentions the offload sql" true
    (String.length text > 0
    && (let contains hay needle =
          let n = String.length needle in
          let rec go i =
            i + n <= String.length hay
            && (String.sub hay i n = needle || go (i + 1))
          in
          go 0
        in
        contains text "filtered near data" && contains text "lineitem"))

let test_interconnect_profiles_ordering () =
  let open Ironsafe_sim in
  let bw p = (Params.with_interconnect p Params.default).Params.net_bandwidth_bytes_per_ns in
  let lat p = (Params.with_interconnect p Params.default).Params.net_latency_ns in
  Alcotest.(check bool) "pcie fastest bandwidth" true
    (bw Params.Pcie > bw Params.Nvme_of && bw Params.Nvme_of > bw Params.Tls_tcp);
  Alcotest.(check bool) "pcie lowest latency" true
    (lat Params.Pcie < lat Params.Nvme_of && lat Params.Nvme_of < lat Params.Tls_tcp);
  Alcotest.(check string) "names" "NVMe-oF" (Params.interconnect_name Params.Nvme_of)

(* -- Runner: result equivalence across configurations --------------------- *)

let render (r : Sql.Exec.result) =
  Fmt.str "%a" Sql.Exec.pp_result r

let test_configs_agree () =
  let d = Lazy.force deploy in
  List.iter
    (fun qid ->
      let sql = (Tpch.Queries.by_id_complete qid).Tpch.Queries.sql in
      let reference = render (Runner.run_query d Config.Hons sql).Runner.result in
      List.iter
        (fun cfg ->
          let m = Runner.run_query d cfg sql in
          Alcotest.(check string)
            (Printf.sprintf "Q%d %s = hons" qid (Config.abbrev cfg))
            reference (render m.Runner.result))
        [ Config.Hos; Config.Vcs; Config.Scs; Config.Sos ])
    (List.map (fun (q : Tpch.Queries.t) -> q.Tpch.Queries.id) Tpch.Queries.complete)

let test_metrics_sanity () =
  let d = Lazy.force deploy in
  let sql = (Tpch.Queries.by_id 6).Tpch.Queries.sql in
  let hons = Runner.run_query d Config.Hons sql in
  let vcs = Runner.run_query d Config.Vcs sql in
  let hos = Runner.run_query d Config.Hos sql in
  let scs = Runner.run_query d Config.Scs sql in
  Alcotest.(check bool) "split ships less than host-only" true
    (vcs.Runner.bytes_shipped < hons.Runner.bytes_shipped);
  Alcotest.(check bool) "secure slower than non-secure (host-only)" true
    (hos.Runner.end_to_end_ns > hons.Runner.end_to_end_ns);
  Alcotest.(check bool) "secure slower than non-secure (split)" true
    (scs.Runner.end_to_end_ns > vcs.Runner.end_to_end_ns);
  Alcotest.(check bool) "ironsafe beats host-only-secure on Q6" true
    (scs.Runner.end_to_end_ns < hos.Runner.end_to_end_ns);
  Alcotest.(check int) "scs and vcs ship the same bytes" vcs.Runner.bytes_shipped
    scs.Runner.bytes_shipped;
  Alcotest.(check bool) "secure configs touch crypto" true
    (List.mem_assoc "freshness" scs.Runner.storage_breakdown);
  Alcotest.(check bool) "non-secure configs do not" false
    (List.mem_assoc "freshness" vcs.Runner.storage_breakdown)

let test_deterministic_metrics () =
  let d = Lazy.force deploy in
  let sql = (Tpch.Queries.by_id 3).Tpch.Queries.sql in
  let a = Runner.run_query d Config.Scs sql in
  let b = Runner.run_query d Config.Scs sql in
  Alcotest.(check (float 1e-9)) "simulated time reproducible"
    a.Runner.end_to_end_ns b.Runner.end_to_end_ns

(* -- Engine end-to-end ------------------------------------------------------ *)

let governed_engine () =
  let populate db =
    Sql.Database.create_table db
      (P.Gdpr.governed_schema ~expiry:true ~reuse:true ~name:"trips"
         ~columns:[ ("id", Sql.Value.TInt); ("who", Sql.Value.TStr) ]
         ());
    let today = Sql.Date.of_ymd ~y:1998 ~m:12 ~d:1 in
    Sql.Database.insert_rows db "trips"
      [
        [| Sql.Value.Int 1; Sql.Value.Str "alice"; Sql.Value.Date (today + 30); Sql.Value.Str "11" |];
        [| Sql.Value.Int 2; Sql.Value.Str "bo"; Sql.Value.Date (today - 30); Sql.Value.Str "11" |];
        [| Sql.Value.Int 3; Sql.Value.Str "cleo"; Sql.Value.Date (today + 30); Sql.Value.Str "10" |];
      ]
  in
  let d = Deployment.create ~seed:"engine-test" ~populate () in
  let e = Engine.create d in
  ignore (Engine.register_client e ~label:"Ka" ());
  ignore (Engine.register_client e ~label:"Kb" ~reuse_bit:1 ());
  e

let test_engine_expiry_policy () =
  let e = governed_engine () in
  Engine.set_access_policy e (P.Gdpr.timely_deletion ~owner_key:"Ka" ~consumer_key:"Kb");
  (* owner sees all three rows *)
  (match Engine.submit e ~client:"Ka" ~sql:"select who from trips order by id" () with
  | Ok r -> Alcotest.(check int) "owner sees all" 3 (List.length r.Engine.resp_result.Sql.Exec.rows)
  | Error err -> Alcotest.fail err);
  (* consumer sees only unexpired rows *)
  match Engine.submit e ~client:"Kb" ~sql:"select who from trips order by id" () with
  | Ok r ->
      Alcotest.(check int) "consumer filtered" 2 (List.length r.Engine.resp_result.Sql.Exec.rows)
  | Error err -> Alcotest.fail err

let test_engine_reuse_policy () =
  let e = governed_engine () in
  Engine.set_access_policy e (P.Gdpr.prevent_indiscriminate_use ~owner_key:"Ka");
  (* Kb sits at bit 1: only rows whose bitmap has bit 1 set ("11") *)
  match Engine.submit e ~client:"Kb" ~sql:"select who from trips order by id" () with
  | Ok r ->
      Alcotest.(check int) "opt-outs excluded" 2 (List.length r.Engine.resp_result.Sql.Exec.rows)
  | Error err -> Alcotest.fail err

let test_engine_denies_writes () =
  let e = governed_engine () in
  Engine.set_access_policy e (P.Gdpr.timely_deletion ~owner_key:"Ka" ~consumer_key:"Kb");
  (match Engine.submit e ~client:"Kb" ~sql:"delete from trips" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "consumer delete authorized");
  match Engine.submit e ~client:"Ka" ~sql:"delete from trips where id = 99" () with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "owner delete denied: %s" err

let test_engine_proof_and_audit () =
  let e = governed_engine () in
  Engine.set_access_policy e (P.Gdpr.transparent_sharing ~owner_key:"Ka" ~log_name:"share");
  match Engine.submit e ~client:"Kb" ~sql:"select who from trips" () with
  | Error err -> Alcotest.fail err
  | Ok r ->
      Alcotest.(check bool) "proof verifies" true
        (Engine.verify_response e r ~sql:"select who from trips");
      let log = M.Trusted_monitor.audit_log (Engine.monitor e) in
      Alcotest.(check bool) "read logged" true (M.Audit_log.length log > 0);
      (match M.Audit_log.verify log with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "audit chain broken")

let test_engine_exec_policy_downgrades_config () =
  let e = governed_engine () in
  Engine.set_access_policy e "read ::= sessionKeyIs(Ka)\nwrite ::= sessionKeyIs(Ka)";
  (* demands a storage firmware version the testbed doesn't have *)
  match
    Engine.submit e ~client:"Ka" ~exec_policy:"exec ::= fwVersionStorage(99)"
      ~sql:"select who from trips" ~config:Config.Scs ()
  with
  | Error err -> Alcotest.fail err
  | Ok r ->
      Alcotest.(check string) "downgraded to host-only secure" "hos"
        (Config.abbrev r.Engine.resp_metrics.Runner.config)

let test_engine_dml_mirrors_replicas () =
  let e = governed_engine () in
  Engine.set_access_policy e "read ::= sessionKeyIs(Ka)\nwrite ::= sessionKeyIs(Ka)";
  (match Engine.submit e ~client:"Ka" ~sql:"delete from trips where id = 1" () with
  | Ok _ -> ()
  | Error err -> Alcotest.fail err);
  match Engine.submit e ~client:"Ka" ~sql:"select count(*) as c from trips" () with
  | Ok r -> (
      match r.Engine.resp_result.Sql.Exec.rows with
      | [ [| Sql.Value.Int 2 |] ] -> ()
      | _ -> Alcotest.fail "delete not visible")
  | Error err -> Alcotest.fail err

(* Submitted DML commits through the WAL: every acknowledged insert is
   a commit record, and the response carries the affected-row count. *)
let test_engine_dml_commits () =
  let d =
    Deployment.create ~seed:"engine-commit" ~wal:true
      ~populate:(fun db -> ignore (Sql.Database.exec db "create table t (a int)"))
      ()
  in
  let e = Engine.create d in
  ignore (Engine.register_client e ~label:"Ka" ());
  Engine.set_access_policy e "read ::= sessionKeyIs(Ka)\nwrite ::= sessionKeyIs(Ka)";
  for i = 1 to 20 do
    match
      Engine.submit e ~client:"Ka" ~sql:(Printf.sprintf "insert into t values (%d)" i) ()
    with
    | Ok r ->
        Alcotest.(check bool) "one row affected" true
          (r.Engine.resp_result.Sql.Exec.rows = [ [| Sql.Value.Int 1 |] ])
    | Error err -> Alcotest.fail err
  done;
  let ts = Option.get (Deployment.txn_store d) in
  Alcotest.(check int) "20 commits" 20 (Ironsafe_wal.Txn_store.stats ts).commits;
  match Engine.submit e ~client:"Ka" ~sql:"delete from t where a > 15" () with
  | Ok r ->
      Alcotest.(check bool) "five rows affected" true
        (r.Engine.resp_result.Sql.Exec.rows = [ [| Sql.Value.Int 5 |] ])
  | Error err -> Alcotest.fail err

let test_engine_bad_exec_policy () =
  let e = governed_engine () in
  Engine.set_access_policy e "read ::= sessionKeyIs(Ka)";
  match
    Engine.submit e ~client:"Ka" ~exec_policy:"exec ::= hostLocIs("
      ~sql:"select who from trips" ()
  with
  | Error err ->
      Alcotest.(check bool) "typed execution-policy error" true
        (String.starts_with ~prefix:"execution policy: " err)
  | Ok _ -> Alcotest.fail "malformed execution policy accepted"

let test_engine_result_signature () =
  let e = governed_engine () in
  Engine.set_access_policy e "read ::= sessionKeyIs(Ka)\nwrite ::= sessionKeyIs(Ka)";
  match Engine.submit e ~client:"Ka" ~sql:"select who from trips order by id" () with
  | Error err -> Alcotest.fail err
  | Ok r ->
      Alcotest.(check bool) "genuine response verifies" true
        (Engine.verify_response e r ~sql:"");
      (* tamper with the returned rows: verification must fail *)
      let forged_result =
        {
          r.Engine.resp_result with
          Sql.Exec.rows =
            [ [| Sql.Value.Str "mallory-was-here" |] ];
        }
      in
      let forged = { r with Engine.resp_result = forged_result } in
      Alcotest.(check bool) "tampered result rejected" false
        (Engine.verify_response e forged ~sql:"");
      (* swapping in another proof's signature also fails *)
      let forged2 = { r with Engine.resp_result_signature = String.make 32 'x' } in
      Alcotest.(check bool) "forged signature rejected" false
        (Engine.verify_response e forged2 ~sql:"")

(* -- Attacks against a live deployment --------------------------------------- *)

let test_attack_page_tamper_aborts_query () =
  let populate db =
    ignore (Sql.Database.exec db "create table t (a int)");
    Sql.Database.insert_rows db "t" (List.init 200 (fun i -> [| Sql.Value.Int i |]))
  in
  let d = Deployment.create ~seed:"attack-test" ~populate () in
  (* adversary flips ciphertext bytes on the medium *)
  Ironsafe_storage.Block_device.tamper d.Deployment.device_secure ~page:0 ~offset:60;
  match Runner.run_query d Config.Scs "select count(*) as c from t" with
  | exception Sql.Pager.Integrity_failure _ -> ()
  | _ -> Alcotest.fail "query ran over tampered storage"

let test_attack_plain_config_silently_corrupted () =
  (* the same attack against the non-secure config is NOT detected —
     this is the paper's motivation for the secure storage layer *)
  let populate db =
    ignore (Sql.Database.exec db "create table t (a int)");
    Sql.Database.insert_rows db "t" (List.init 10 (fun i -> [| Sql.Value.Int i |]))
  in
  let d = Deployment.create ~seed:"attack-test-2" ~populate () in
  match Runner.run_query d Config.Hons "select count(*) as c from t" with
  | m -> Alcotest.(check int) "plain config runs" 1 (List.length m.Runner.result.Sql.Exec.rows)

(* Randomized partitioner soundness: for arbitrary generated filter
   shapes, the split execution (vcs) returns exactly what the
   unpartitioned host-only run (hons) returns. *)
let qcheck_partitioner_equivalence =
  let open QCheck in
  let pred_gen =
    Gen.oneof
      [
        Gen.map (fun q -> Printf.sprintf "l_quantity < %d" q) Gen.(5 -- 50);
        Gen.map (fun d -> Printf.sprintf "l_discount >= 0.0%d" d) Gen.(0 -- 9);
        Gen.map
          (fun y -> Printf.sprintf "l_shipdate < date '%04d-06-01'" (1993 + y))
          Gen.(0 -- 5);
        Gen.return "l_returnflag = 'R'";
        Gen.return "l_shipmode in ('MAIL', 'AIR')";
        Gen.return "o_orderpriority like '1%'";
        Gen.map
          (fun t -> Printf.sprintf "o_totalprice > %d" (t * 10_000))
          Gen.(1 -- 30);
      ]
  in
  let query_gen =
    Gen.map2
      (fun preds agg ->
        let where = String.concat " and " ("o_orderkey = l_orderkey" :: preds) in
        if agg then
          Printf.sprintf
            "select o_orderpriority, count(*) as n, sum(l_quantity) as q from \
             orders, lineitem where %s group by o_orderpriority order by \
             o_orderpriority"
            where
        else
          Printf.sprintf
            "select l_orderkey, l_linenumber from orders, lineitem where %s \
             order by l_orderkey, l_linenumber limit 50"
            where)
      (Gen.list_size (Gen.int_range 1 3) pred_gen)
      Gen.bool
  in
  Test.make ~name:"split execution equals host-only execution" ~count:25
    (make query_gen) (fun sql ->
      let d = Lazy.force deploy in
      let hons = Runner.run_query d Config.Hons sql in
      let vcs = Runner.run_query d Config.Vcs sql in
      render hons.Runner.result = render vcs.Runner.result)

let suite =
  [
    ("partitioner pushes filters", `Quick, test_partitioner_pushes_filters);
    ("partitioner keeps join preds", `Quick, test_partitioner_join_preds_stay);
    ("partitioner multi-occurrence", `Quick, test_partitioner_multiple_occurrences_or);
    ("partitioner or of filters", `Quick, test_partitioner_or_of_filters);
    ("partitioner subquery tables", `Quick, test_partitioner_subquery_tables_included);
    ("partitioner offload sql parses", `Quick, test_partitioner_offload_sql_parses);
    ("partitioner describe", `Quick, test_partitioner_describe);
    ("interconnect profiles", `Quick, test_interconnect_profiles_ordering);
    ("configs agree on results", `Slow, test_configs_agree);
    ("metrics sanity", `Quick, test_metrics_sanity);
    ("deterministic metrics", `Quick, test_deterministic_metrics);
    ("engine expiry policy", `Quick, test_engine_expiry_policy);
    ("engine reuse policy", `Quick, test_engine_reuse_policy);
    ("engine denies writes", `Quick, test_engine_denies_writes);
    ("engine proof and audit", `Quick, test_engine_proof_and_audit);
    ("engine exec downgrade", `Quick, test_engine_exec_policy_downgrades_config);
    ("engine dml mirrors replicas", `Quick, test_engine_dml_mirrors_replicas);
    ("engine dml commits", `Quick, test_engine_dml_commits);
    ("engine bad exec policy", `Quick, test_engine_bad_exec_policy);
    ("engine result signature", `Quick, test_engine_result_signature);
    ("attack: tamper aborts query", `Quick, test_attack_page_tamper_aborts_query);
    ("attack: plain config undetected", `Quick, test_attack_plain_config_silently_corrupted);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [ qcheck_partitioner_equivalence ]
