(* Fault-injection and recovery tests.

   Unit tests pin down each recovery mechanism (channel resend, page
   re-read, RPMB resync, enclave restart + re-attestation, attestation
   retry), determinism of the seeded schedule, and the zero-cost-off
   guarantee. The qcheck property is the robustness counterpart of the
   differential suite: under any fault plan, a query either matches the
   fault-free oracle (possibly flagged Degraded) or is rejected with a
   typed violation — never silently wrong rows.

   The base seed comes from IRONSAFE_FAULT_SEED (CI runs the suite
   under several fixed seeds); every plan seed below derives from it. *)

open Ironsafe
module Sql = Ironsafe_sql
module Tpch = Ironsafe_tpch
module Sim = Ironsafe_sim
module Net = Ironsafe_net
module Storage = Ironsafe_storage
module Sec = Ironsafe_securestore
module C = Ironsafe_crypto
module Fault = Ironsafe_fault.Fault

let base_seed =
  match Sys.getenv_opt "IRONSAFE_FAULT_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 42)
  | None -> 42

let scale = 0.005

let make_deploy ~faults ~seed () =
  Deployment.create ~seed ~faults
    ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale))
    ()

let canonical = Test_differential.canonical

let probe_queries =
  [
    "select n_nationkey, n_name from nation where n_regionkey = 1";
    "select count(*) as n, sum(s_acctbal) as s from supplier";
    "select c_mktsegment, count(*) as n from customer group by c_mktsegment \
     order by c_mktsegment";
  ]

(* -- determinism -------------------------------------------------------- *)

let run_fixed_workload seed =
  let faults = Fault.of_profile ~seed Fault.Hostile in
  let d = make_deploy ~faults ~seed:"fault-det" () in
  List.iter
    (fun sql ->
      List.iter
        (fun cfg -> ignore (Runner.run_query_outcome d cfg sql))
        [ Config.Hos; Config.Scs; Config.Sos ])
    probe_queries;
  let s = Fault.stats faults in
  (s.Fault.injected, s.Fault.recovered, s.Fault.rejected, s.Fault.retries,
   s.Fault.reattestations)

let test_determinism () =
  let a = run_fixed_workload base_seed in
  let b = run_fixed_workload base_seed in
  Alcotest.(check (triple int int (triple int int int)))
    "same seed, same incident timeline"
    (let i, r, j, t, re = a in
     (i, r, (j, t, re)))
    (let i, r, j, t, re = b in
     (i, r, (j, t, re)))

(* -- channel recovery --------------------------------------------------- *)

let nodes () =
  let params = Sim.Params.default in
  ( Sim.Node.create ~params ~name:"a" Sim.Cpu.Host_x86,
    Sim.Node.create ~params ~name:"b" Sim.Cpu.Storage_arm )

let test_channel_reliable_roundtrip () =
  let a, b = nodes () in
  let faults = Fault.of_profile ~seed:base_seed Fault.Flaky_net in
  Fault.set_clock faults (fun () -> Sim.Node.now a);
  let drbg = C.Drbg.create ~seed:"fault-chan" in
  match
    Net.Channel.connect ~faults ~a ~b ~session_key:(C.Drbg.generate drbg 32)
      ~drbg ()
  with
  | Error e ->
      Alcotest.fail ("connect failed: " ^ Net.Channel.error_message e)
  | Ok ch ->
      for i = 0 to 49 do
        let payload = Printf.sprintf "msg-%d" i in
        match Net.Channel.roundtrip_reliable ch ~from:a payload with
        | Ok got ->
            Alcotest.(check string) "payload preserved over lossy channel"
              payload got
        | Error e ->
            Alcotest.fail
              (Printf.sprintf "roundtrip %d failed: %s" i
                 (Net.Channel.error_message e))
      done;
      let s = Fault.stats faults in
      (* drop prob 0.15 over 50+ records: the plan must have fired, and
         every injected fault must have been recovered (no data loss) *)
      Alcotest.(check bool) "faults injected" true (s.Fault.injected > 0);
      Alcotest.(check int) "all incidents recovered" s.Fault.injected
        s.Fault.recovered;
      Alcotest.(check bool) "resends happened" true (s.Fault.retries > 0)

let test_channel_handshake_retry () =
  let a, b = nodes () in
  let faults =
    Fault.make ~seed:base_seed
      [ (Fault.Channel_handshake, Fault.rule ~prob:1.0 ~max_fires:2 ()) ]
  in
  Fault.set_clock faults (fun () -> Sim.Node.now a);
  let drbg = C.Drbg.create ~seed:"fault-hs" in
  match
    Net.Channel.connect ~faults ~a ~b ~session_key:(C.Drbg.generate drbg 32)
      ~drbg ()
  with
  | Error e -> Alcotest.fail ("connect failed: " ^ Net.Channel.error_message e)
  | Ok ch ->
      Alcotest.(check bool) "established after retries" false
        (Net.Channel.is_closed ch);
      let s = Fault.stats faults in
      Alcotest.(check int) "two handshake failures" 2 s.Fault.injected;
      Alcotest.(check bool) "retries charged" true (s.Fault.retries >= 2)

(* -- secure store recovery ---------------------------------------------- *)

let small_store () =
  let device = Storage.Block_device.create ~pages:64 in
  let rpmb = Storage.Rpmb.create () in
  let drbg = C.Drbg.create ~seed:"fault-store" in
  let store =
    match
      Sec.Secure_store.initialize ~device ~rpmb ~hardware_key:"huk-fault-test"
        ~data_pages:16 ~drbg ()
    with
    | Ok s -> s
    | Error e -> Alcotest.fail (Fmt.str "init: %a" Sec.Secure_store.pp_error e)
  in
  (device, rpmb, store)

(* Attaching the plan is a separate step so tests can write clean data
   first and fault only the reads under scrutiny (a single-fire fault
   wired too early is consumed by the write path's own device I/O). *)
let wire_faults faults (device, rpmb, store) =
  Fault.set_clock faults (fun () -> 0.0);
  Storage.Block_device.set_faults device faults;
  Storage.Rpmb.set_faults rpmb faults;
  Sec.Secure_store.set_faults store faults

let test_transient_read_recovered () =
  let faults =
    Fault.make ~seed:base_seed
      [ (Fault.Device_read_transient, Fault.rule ~prob:1.0 ~max_fires:1 ()) ]
  in
  let ((_, _, store) as s3) = small_store () in
  (* a full page, so the corrupted ECC block always hits live bytes *)
  let payload = String.make Sec.Secure_store.capacity 'h' in
  (match Sec.Secure_store.write_page store 3 payload with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Fmt.str "write: %a" Sec.Secure_store.pp_error e));
  wire_faults faults s3;
  (match Sec.Secure_store.read_page store 3 with
  | Ok plain ->
      Alcotest.(check string) "re-read returns the true page" payload
        (String.sub plain 0 (String.length payload))
  | Error e -> Alcotest.fail (Fmt.str "read: %a" Sec.Secure_store.pp_error e));
  let s = Fault.stats faults in
  Alcotest.(check int) "one transient fault" 1 s.Fault.injected;
  Alcotest.(check int) "recovered by re-read" 1 s.Fault.recovered;
  Alcotest.(check bool) "re-read counted as retry" true (s.Fault.retries >= 1)

let test_bit_rot_rejected () =
  let faults =
    Fault.make ~seed:base_seed
      [ (Fault.Device_bit_rot, Fault.rule ~prob:1.0 ~max_fires:1 ()) ]
  in
  let ((_, _, store) as s3) = small_store () in
  let payload = String.make Sec.Secure_store.capacity 'p' in
  (match Sec.Secure_store.write_page store 5 payload with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Fmt.str "write: %a" Sec.Secure_store.pp_error e));
  wire_faults faults s3;
  match Sec.Secure_store.read_page store 5 with
  | Ok _ -> Alcotest.fail "persistently rotted page read back successfully"
  | Error (Sec.Secure_store.Tampered_page _ | Sec.Secure_store.Corrupt_page _)
    ->
      let s = Fault.stats faults in
      Alcotest.(check bool) "re-read budget was spent" true
        (s.Fault.retries >= 1);
      Alcotest.(check int) "nothing recovered" 0 s.Fault.recovered
  | Error e ->
      Alcotest.fail (Fmt.str "unexpected error: %a" Sec.Secure_store.pp_error e)

let test_rpmb_desync_recovered () =
  let faults =
    Fault.make ~seed:base_seed
      [ (Fault.Rpmb_desync, Fault.rule ~prob:1.0 ~max_fires:1 ()) ]
  in
  let ((_, _, store) as s3) = small_store () in
  wire_faults faults s3;
  (* the write anchors a fresh root in the RPMB; the injected counter
     desync must be resynced transparently *)
  (match Sec.Secure_store.write_page store 0 "anchored" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Fmt.str "write: %a" Sec.Secure_store.pp_error e));
  let s = Fault.stats faults in
  Alcotest.(check int) "desync injected" 1 s.Fault.injected;
  Alcotest.(check int) "desync recovered" 1 s.Fault.recovered;
  match Sec.Secure_store.read_page store 0 with
  | Ok _ -> ()
  | Error e ->
      Alcotest.fail (Fmt.str "read after resync: %a" Sec.Secure_store.pp_error e)

(* -- TEE recovery ------------------------------------------------------- *)

let test_sgx_abort_degraded () =
  let faults =
    Fault.make ~seed:base_seed
      [ (Fault.Sgx_abort, Fault.rule ~prob:1.0 ~max_fires:1 ()) ]
  in
  let d = make_deploy ~faults ~seed:"fault-sgx" () in
  let sql = List.hd probe_queries in
  let oracle = canonical (Runner.run_query d Config.Hons sql).Runner.result in
  match Runner.run_query_outcome d Config.Hos sql with
  | Runner.Degraded (m, incidents) ->
      Alcotest.(check (pair (list string) (list string)))
        "degraded result equals oracle" oracle
        (canonical m.Runner.result);
      Alcotest.(check bool) "incident list non-empty" true (incidents <> []);
      let s = Fault.stats faults in
      Alcotest.(check bool) "re-attested after restart" true
        (s.Fault.reattestations >= 1);
      Alcotest.(check bool) "enclave was restarted" true
        (Ironsafe_tee.Sgx.restarts d.Deployment.host_enclave >= 1)
  | Runner.Ok _ -> Alcotest.fail "abort did not fire"
  | Runner.Rejected v | Runner.Crashed v ->
      Alcotest.fail (Fmt.str "unexpected rejection: %a" Runner.pp_violation v)

(* A pre-flight fault's recovery charge is part of the query's
   latency: the clocks are reset before the pre-flight, not after it. *)
let test_epc_storm_charged () =
  let faults =
    Fault.make ~seed:base_seed
      [ (Fault.Sgx_epc_storm, Fault.rule ~prob:1.0 ~max_fires:1 ()) ]
  in
  let d = make_deploy ~faults ~seed:"fault-epc" () in
  let sql = "select count(*) from nation" in
  let storm = 4096.0 *. d.Deployment.params.Sim.Params.epc_fault_ns in
  (* the same query on the same data without the fault: ~85 us, of
     which the storage node's NFS reads are charged as [io] *)
  let clean =
    match
      Runner.run_query_outcome
        (make_deploy ~faults:Fault.none ~seed:"fault-epc" ())
        Config.Hos sql
    with
    | Runner.Ok m -> m
    | _ -> Alcotest.fail "fault-free run did not succeed"
  in
  let storage_io m =
    Option.value ~default:0.0 (List.assoc_opt "io" m.Runner.storage_breakdown)
  in
  match Runner.run_query_outcome d Config.Hos sql with
  | Runner.Degraded (m, _) ->
      (* the storm is a stall: the query starts on both nodes after it,
         so its whole fault-free latency, storage io included, adds to
         the storm (1 ns of slack for float rounding) *)
      Alcotest.(check bool) "latency = storm + fault-free latency" true
        (m.Runner.end_to_end_ns >= storm +. clean.Runner.end_to_end_ns -. 1.0);
      Alcotest.(check bool) "storage io is charged" true (storage_io clean > 0.0);
      Alcotest.(check (float 1e-6)) "storage io kept" (storage_io clean)
        (storage_io m);
      Alcotest.(check bool) "storm in the host's epc time" true
        (List.assoc "epc" m.Runner.host_breakdown >= storm)
  | Runner.Ok _ -> Alcotest.fail "storm did not fire"
  | Runner.Rejected v | Runner.Crashed v ->
      Alcotest.fail (Fmt.str "unexpected rejection: %a" Runner.pp_violation v)

let test_attest_recovers_quote_and_ta_faults () =
  let faults =
    Fault.make ~seed:base_seed
      [
        (Fault.Sgx_quote_reject, Fault.rule ~prob:1.0 ~max_fires:1 ());
        (Fault.Tz_ta_crash, Fault.rule ~prob:1.0 ~max_fires:1 ());
      ]
  in
  let d = make_deploy ~faults ~seed:"fault-attest" () in
  (match Deployment.attest_reliable d with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("attest_reliable failed: " ^ e));
  let s = Fault.stats faults in
  Alcotest.(check int) "both faults fired" 2 s.Fault.injected;
  Alcotest.(check bool) "re-attestations happened" true
    (s.Fault.reattestations >= 1);
  (* a genuine (non-injected) failure must NOT be retried: same checks
     run single-shot when the plan is disabled *)
  let d2 = make_deploy ~faults:Fault.none ~seed:"fault-attest2" () in
  match Deployment.attest_reliable d2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("clean attestation failed: " ^ e)

(* -- zero cost when off ------------------------------------------------- *)

let test_zero_cost_when_off () =
  let sql = "select c_custkey, c_acctbal from customer where c_acctbal < 0" in
  let d1 = make_deploy ~faults:Fault.none ~seed:"fault-off" () in
  let d2 = make_deploy ~faults:Fault.none ~seed:"fault-off" () in
  List.iter
    (fun cfg ->
      let m1 = Runner.run_query d1 cfg sql in
      match Runner.run_query_outcome d2 cfg sql with
      | Runner.Ok m2 ->
          Alcotest.(check (pair (list string) (list string)))
            (Config.abbrev cfg ^ " results byte-identical")
            (canonical m1.Runner.result)
            (canonical m2.Runner.result);
          Alcotest.(check (float 0.0))
            (Config.abbrev cfg ^ " end-to-end time unchanged")
            m1.Runner.end_to_end_ns m2.Runner.end_to_end_ns
      | Runner.Degraded _ | Runner.Rejected _ | Runner.Crashed _ ->
          Alcotest.fail "outcome not Ok with faults disabled")
    Config.all

(* -- the robustness property -------------------------------------------- *)

(* Two long-lived faulted deployments (built once): any query under any
   plan must match the fault-free oracle or reject with a typed
   violation. hons runs on the plain replica of the same deployment and
   consults neither the fault plan nor the TEEs, so it is the oracle. *)
let hostile_deploy =
  lazy
    (let faults = Fault.of_profile ~seed:base_seed Fault.Hostile in
     (make_deploy ~faults ~seed:"fault-prop-hostile" (), faults))

let bitrot_deploy =
  lazy
    (let faults = Fault.of_profile ~seed:(base_seed + 1) Fault.Bit_rot in
     (make_deploy ~faults ~seed:"fault-prop-bitrot" (), faults))

let secure_configs = [| Config.Hos; Config.Scs; Config.Sos |]

let site_names = List.map Fault.site_name Fault.all_sites

let case = ref 0

let qcheck_no_silent_wrong_rows =
  QCheck.Test.make
    ~name:"faulted runs match the oracle or reject with a typed violation"
    ~count:220
    (QCheck.make ~print:Fun.id Test_differential.query_gen)
    (fun sql ->
      incr case;
      let d, faults =
        Lazy.force (if !case mod 2 = 0 then hostile_deploy else bitrot_deploy)
      in
      let cfg = secure_configs.(!case mod Array.length secure_configs) in
      let oracle =
        canonical (Runner.run_query d Config.Hons sql).Runner.result
      in
      let before = Fault.stats faults in
      let before_recovery =
        before.Fault.retries + before.Fault.reattestations
        + before.Fault.recovered
      in
      match Runner.run_query_outcome d cfg sql with
      | Runner.Ok m ->
          if canonical m.Runner.result = oracle then true
          else
            QCheck.Test.fail_reportf
              "silently wrong rows (%s, no incident) on:@.%s@."
              (Config.abbrev cfg) sql
      | Runner.Degraded (m, incidents) ->
          let after = Fault.stats faults in
          let after_recovery =
            after.Fault.retries + after.Fault.reattestations
            + after.Fault.recovered
          in
          if canonical m.Runner.result <> oracle then
            QCheck.Test.fail_reportf
              "silently wrong rows (%s, degraded) on:@.%s@."
              (Config.abbrev cfg) sql
          else if incidents = [] then
            QCheck.Test.fail_reportf "Degraded with empty incident list"
          else if after_recovery <= before_recovery then
            QCheck.Test.fail_reportf
              "Degraded run reported no recovery counter"
          else true
      | Runner.Rejected v | Runner.Crashed v ->
          if
            List.mem v.Runner.v_site site_names
            || v.Runner.v_site = "securestore"
          then true
          else
            QCheck.Test.fail_reportf "rejection names unknown site %s"
              v.Runner.v_site)

let qcheck_channel_never_corrupts =
  QCheck.Test.make ~name:"reliable channel never delivers corrupted payloads"
    ~count:60
    QCheck.(string_of_size Gen.(1 -- 200))
    (fun payload ->
      let a, b = nodes () in
      let faults =
        Fault.make ~seed:(base_seed + String.length payload)
          [
            (Fault.Channel_drop, Fault.rule ~prob:0.3 ());
            (Fault.Channel_corrupt, Fault.rule ~prob:0.3 ());
          ]
      in
      Fault.set_clock faults (fun () -> Sim.Node.now a);
      let drbg = C.Drbg.create ~seed:"fault-chan-prop" in
      match
        Net.Channel.connect ~faults ~a ~b
          ~session_key:(C.Drbg.generate drbg 32) ~drbg ()
      with
      | Error _ -> false
      | Ok ch -> (
          match Net.Channel.roundtrip_reliable ~max_attempts:64 ch ~from:a payload with
          | Ok got -> got = payload
          | Error (Net.Channel.Dropped | Net.Channel.Auth_failed) ->
              true (* budget exhausted: typed failure, not wrong data *)
          | Error _ -> false))

(* A rejected query counts once in the metrics registry: the
   [fault/rejected] counter equals the plan's own tally. The plan is
   fixed (hostile, seed 2) so that this query is rejected whatever
   IRONSAFE_FAULT_SEED says. *)
let test_rejection_counted_once () =
  let module Obs = Ironsafe_obs.Obs in
  let module Metrics = Ironsafe_obs.Metrics in
  let faults = Fault.of_profile ~seed:2 Fault.Hostile in
  let d =
    Deployment.create ~seed:"ironsafe-cli" ~faults
      ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale))
      ()
  in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      (match
         Runner.run_query_outcome d Config.Scs "select count(*) from lineitem"
       with
      | Runner.Rejected _ -> ()
      | _ -> Alcotest.fail "the hostile plan did not reject the query");
      let s = Fault.stats faults in
      Alcotest.(check bool) "a rejection happened" true (s.Fault.rejected >= 1);
      Alcotest.(check int) "registry counts each rejection once" s.Fault.rejected
        (Metrics.counter_value (Obs.metrics ()) ~scope:"fault" "rejected"))

let suite =
  [
    ("deterministic schedule", `Quick, test_determinism);
    ("rejection counted once", `Quick, test_rejection_counted_once);
    ("channel reliable roundtrip", `Quick, test_channel_reliable_roundtrip);
    ("channel handshake retry", `Quick, test_channel_handshake_retry);
    ("transient read recovered", `Quick, test_transient_read_recovered);
    ("bit rot rejected", `Quick, test_bit_rot_rejected);
    ("rpmb desync recovered", `Quick, test_rpmb_desync_recovered);
    ("sgx abort degraded", `Quick, test_sgx_abort_degraded);
    ("epc storm charged in latency", `Quick, test_epc_storm_charged);
    ("attest recovers quote/ta faults", `Quick,
     test_attest_recovers_quote_and_ta_faults);
    ("zero cost when off", `Quick, test_zero_cost_when_off);
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [ qcheck_no_silent_wrong_rows; qcheck_channel_never_corrupts ]
