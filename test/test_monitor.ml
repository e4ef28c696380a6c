(* Trusted monitor tests: audit log tamper evidence, both attestation
   protocols against adversarial variations, and the authorization
   pipeline (access policy, execution policy, rewriting, sessions,
   compliance proofs). *)

module M = Ironsafe_monitor
module Tee = Ironsafe_tee
module P = Ironsafe_policy
module Sql = Ironsafe_sql
module C = Ironsafe_crypto

(* -- Audit log --------------------------------------------------------- *)

let log () = M.Audit_log.create ~name:"test-log" ~key:"log-key"

let test_audit_append_verify () =
  let l = log () in
  for i = 0 to 9 do
    ignore
      (M.Audit_log.append l ~date:10_000 ~actor:"Ka" ~action:"read"
         ~detail:(Printf.sprintf "query %d" i))
  done;
  Alcotest.(check int) "length" 10 (M.Audit_log.length l);
  (match M.Audit_log.verify l with
  | Ok () -> ()
  | Error i -> Alcotest.failf "chain broken at %d" i);
  Alcotest.(check int) "actor filter" 10 (List.length (M.Audit_log.filter l ~actor:"Ka"));
  Alcotest.(check int) "other actor" 0 (List.length (M.Audit_log.filter l ~actor:"Kb"))

let test_audit_tamper_detected () =
  let l = log () in
  for i = 0 to 4 do
    ignore (M.Audit_log.append l ~date:10_000 ~actor:"Ka" ~action:"read"
              ~detail:(Printf.sprintf "q%d" i))
  done;
  M.Audit_log.tamper_entry l ~seq:2 ~detail:"covered up";
  match M.Audit_log.verify l with
  | Error 2 -> ()
  | Error i -> Alcotest.failf "wrong break point %d" i
  | Ok () -> Alcotest.fail "tampered log verified"

(* A 10^4-entry chain: sequence numbers, verification and tamper
   detection at scale. The head pins the chain format: it is the digest
   the list-walking append produced for this exact input. *)
let test_audit_long_chain () =
  let l = log () in
  let n = 10_000 in
  let seqs =
    List.init n (fun i ->
        (M.Audit_log.append l ~date:(10_000 + (i mod 365))
           ~actor:(Printf.sprintf "K%d" (i mod 3))
           ~action:(if i mod 5 = 0 then "denied" else "read")
           ~detail:(Printf.sprintf "query %d" i))
          .M.Audit_log.seq)
  in
  Alcotest.(check (list int)) "seq runs 0..n-1" (List.init n Fun.id) seqs;
  Alcotest.(check int) "length" n (M.Audit_log.length l);
  (match M.Audit_log.verify l with
  | Ok () -> ()
  | Error i -> Alcotest.failf "chain broken at %d" i);
  Alcotest.(check string) "chain head"
    "b61f880e3562bdbb8318e1fd74449f3d7d71e2f24f96221520f0bc78588b1f32"
    (C.Hex.of_string (M.Audit_log.head l));
  M.Audit_log.tamper_entry l ~seq:7_777 ~detail:"covered up";
  match M.Audit_log.verify l with
  | Error 7_777 -> ()
  | Error i -> Alcotest.failf "wrong break point %d" i
  | Ok () -> Alcotest.fail "tampered log verified"

let test_audit_empty_verifies () =
  match M.Audit_log.verify (log ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "empty log must verify"

(* -- Monitor fixture ----------------------------------------------------- *)

type fixture = {
  monitor : M.Trusted_monitor.t;
  ias : Tee.Sgx.ias;
  platform : Tee.Sgx.platform;
  enclave : Tee.Sgx.enclave;
  host_image : Tee.Image.t;
  device : Tee.Trustzone.device;
  booted : Tee.Trustzone.booted;
  nw_image : Tee.Image.t;
  catalog : Sql.Catalog.t;
  db : Sql.Database.t;
}

let fixture ?(seed = "monitor-test") () =
  let drbg = C.Drbg.create ~seed in
  let ias = Tee.Sgx.create_ias () in
  let platform = Tee.Sgx.create_platform ~ias drbg in
  let host_image = Tee.Image.create ~name:"host-engine" ~version:2 ~code:"host-v2" in
  let enclave = Tee.Sgx.launch platform host_image in
  let device = Tee.Trustzone.manufacture ~device_id:"tz-1" drbg in
  let atf = Tee.Image.create ~name:"atf" ~version:1 ~code:"atf" in
  let optee = Tee.Image.create ~name:"optee" ~version:1 ~code:"optee" in
  let nw_image = Tee.Image.create ~name:"storage-engine" ~version:3 ~code:"nw-v3" in
  Tee.Trustzone.provision device [ atf; optee ];
  let booted =
    match Tee.Trustzone.secure_boot device ~secure_stages:[ atf; optee ] ~normal_world:nw_image with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let monitor = M.Trusted_monitor.create ~ias ~seed:(seed ^ "-mon") in
  M.Trusted_monitor.trust_host_image monitor host_image;
  M.Trusted_monitor.trust_storage_device monitor ~device_id:"tz-1"
    ~rotpk:(Tee.Trustzone.rotpk device) ~normal_world:nw_image ~version:3;
  let db = Sql.Database.create ~pager:(Sql.Pager.in_memory ()) in
  Sql.Database.create_table db
    (P.Gdpr.governed_schema ~expiry:true ~name:"records"
       ~columns:[ ("id", Sql.Value.TInt); ("v", Sql.Value.TStr) ]
       ());
  Sql.Database.insert_rows db "records"
    [
      [| Sql.Value.Int 1; Sql.Value.Str "live"; Sql.Value.Date 20_000 |];
      [| Sql.Value.Int 2; Sql.Value.Str "expired"; Sql.Value.Date 1 |];
    ];
  let _, pk_a = C.Signature.generate drbg in
  let _, pk_b = C.Signature.generate drbg in
  M.Trusted_monitor.register_client monitor ~label:"Ka" ~pk:pk_a ~reuse_bit:None;
  M.Trusted_monitor.register_client monitor ~label:"Kb" ~pk:pk_b ~reuse_bit:(Some 0);
  M.Trusted_monitor.set_today monitor 15_000;
  {
    monitor;
    ias;
    platform;
    enclave;
    host_image;
    device;
    booted;
    nw_image;
    catalog = Sql.Database.catalog db;
    db;
  }

let attest_both f =
  let quote = Tee.Sgx.generate_quote f.enclave ~report_data:"host-pk" in
  (match M.Trusted_monitor.attest_host f.monitor ~quote ~location:"eu-west" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let challenge = M.Trusted_monitor.fresh_challenge f.monitor in
  let resp = Tee.Trustzone.attest f.booted ~challenge in
  match M.Trusted_monitor.attest_storage f.monitor ~challenge ~response:resp ~location:"eu-west" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* -- Attestation -------------------------------------------------------- *)

let test_attest_host_ok () =
  let f = fixture () in
  let quote = Tee.Sgx.generate_quote f.enclave ~report_data:"pk" in
  match M.Trusted_monitor.attest_host f.monitor ~quote ~location:"eu-west" with
  | Ok info ->
      Alcotest.(check int) "version resolved" 2 info.M.Trusted_monitor.host_version
  | Error e -> Alcotest.fail e

let test_attest_host_unknown_measurement () =
  let f = fixture () in
  let evil = Tee.Sgx.launch f.platform (Tee.Image.backdoored f.host_image) in
  let quote = Tee.Sgx.generate_quote evil ~report_data:"pk" in
  match M.Trusted_monitor.attest_host f.monitor ~quote ~location:"eu-west" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "backdoored host attested"

let test_attest_storage_ok () =
  let f = fixture () in
  let challenge = M.Trusted_monitor.fresh_challenge f.monitor in
  let resp = Tee.Trustzone.attest f.booted ~challenge in
  match M.Trusted_monitor.attest_storage f.monitor ~challenge ~response:resp ~location:"eu-west" with
  | Ok info ->
      Alcotest.(check int) "version from registry" 3 info.M.Trusted_monitor.storage_version
  | Error e -> Alcotest.fail e

let test_attest_storage_modified_normal_world () =
  let f = fixture () in
  (* reboot the device with a modified storage engine *)
  let atf = Tee.Image.create ~name:"atf" ~version:1 ~code:"atf" in
  let optee = Tee.Image.create ~name:"optee" ~version:1 ~code:"optee" in
  let booted_evil =
    match
      Tee.Trustzone.secure_boot f.device ~secure_stages:[ atf; optee ]
        ~normal_world:(Tee.Image.backdoored f.nw_image)
    with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let challenge = M.Trusted_monitor.fresh_challenge f.monitor in
  let resp = Tee.Trustzone.attest booted_evil ~challenge in
  match M.Trusted_monitor.attest_storage f.monitor ~challenge ~response:resp ~location:"eu-west" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "modified normal world attested"

let test_attest_storage_unknown_device () =
  let f = fixture () in
  let rogue_drbg = C.Drbg.create ~seed:"rogue-dev" in
  let rogue = Tee.Trustzone.manufacture ~device_id:"rogue" rogue_drbg in
  let atf = Tee.Image.create ~name:"atf" ~version:1 ~code:"atf" in
  Tee.Trustzone.provision rogue [ atf ];
  let booted =
    match Tee.Trustzone.secure_boot rogue ~secure_stages:[ atf ] ~normal_world:f.nw_image with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let challenge = M.Trusted_monitor.fresh_challenge f.monitor in
  let resp = Tee.Trustzone.attest booted ~challenge in
  match M.Trusted_monitor.attest_storage f.monitor ~challenge ~response:resp ~location:"x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "impersonating device attested"

(* -- Authorization -------------------------------------------------------- *)

let authorize ?(client = "Ka") ?(exec_policy = []) f sql =
  M.Trusted_monitor.authorize f.monitor ~catalog:f.catalog ~client_label:client
    ~database:"db" ~exec_policy ~sql

let test_authorize_requires_attestation () =
  let f = fixture () in
  M.Trusted_monitor.set_access_policy f.monitor ~database:"db"
    ~policy:(P.Policy_parser.parse "read ::= sessionKeyIs(Ka)");
  match authorize f "select v from records" with
  | Error "host not attested" -> ()
  | _ -> Alcotest.fail "authorized without attestation"

let test_authorize_unknown_client () =
  let f = fixture () in
  attest_both f;
  match authorize ~client:"Mallory" f "select v from records" with
  | Error _ ->
      (* denied access must land in the audit log *)
      let entries = M.Audit_log.entries (M.Trusted_monitor.audit_log f.monitor) in
      Alcotest.(check bool) "denial logged" true
        (List.exists (fun e -> e.M.Audit_log.action = "denied") entries)
  | Ok _ -> Alcotest.fail "unknown client authorized"

let test_authorize_policy_denies_write () =
  let f = fixture () in
  attest_both f;
  M.Trusted_monitor.set_access_policy f.monitor ~database:"db"
    ~policy:(P.Policy_parser.parse "read ::= sessionKeyIs(Kb)\nwrite ::= sessionKeyIs(Ka)");
  (match authorize ~client:"Kb" f "delete from records where id = 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "consumer write authorized");
  match authorize ~client:"Ka" f "delete from records where id = 99" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "owner write denied: %s" e

let test_authorize_rewrites_query () =
  let f = fixture () in
  attest_both f;
  M.Trusted_monitor.set_access_policy f.monitor ~database:"db"
    ~policy:
      (P.Policy_parser.parse
         "read ::= sessionKeyIs(Ka) | sessionKeyIs(Kb) & le(T, TIMESTAMP)");
  match authorize ~client:"Kb" f "select v from records order by id" with
  | Error e -> Alcotest.fail e
  | Ok auth -> (
      match Sql.Database.exec_ast f.db auth.M.Trusted_monitor.auth_stmt with
      | Sql.Database.Result r ->
          (* record 2 expired at date 1 < today 15000: filtered out *)
          Alcotest.(check int) "expired row hidden" 1 (List.length r.Sql.Exec.rows)
      | _ -> Alcotest.fail "rewritten query failed")

let test_authorize_owner_sees_everything () =
  let f = fixture () in
  attest_both f;
  M.Trusted_monitor.set_access_policy f.monitor ~database:"db"
    ~policy:
      (P.Policy_parser.parse
         "read ::= sessionKeyIs(Ka) | sessionKeyIs(Kb) & le(T, TIMESTAMP)");
  match authorize ~client:"Ka" f "select v from records" with
  | Error e -> Alcotest.fail e
  | Ok auth -> (
      match Sql.Database.exec_ast f.db auth.M.Trusted_monitor.auth_stmt with
      | Sql.Database.Result r ->
          Alcotest.(check int) "owner unfiltered" 2 (List.length r.Sql.Exec.rows)
      | _ -> Alcotest.fail "query failed")

let test_authorize_exec_policy_downgrade () =
  let f = fixture () in
  attest_both f;
  M.Trusted_monitor.set_access_policy f.monitor ~database:"db"
    ~policy:(P.Policy_parser.parse "read ::= sessionKeyIs(Ka)");
  (* policy requires newer storage firmware than attested (v3) *)
  let exec_policy = P.Policy_parser.parse "exec ::= fwVersionStorage(4)" in
  match authorize ~exec_policy f "select v from records" with
  | Error e -> Alcotest.fail e
  | Ok auth ->
      Alcotest.(check bool) "offload blocked" false
        auth.M.Trusted_monitor.auth_offload_allowed

let test_authorize_exec_policy_denies_host () =
  let f = fixture () in
  attest_both f;
  M.Trusted_monitor.set_access_policy f.monitor ~database:"db"
    ~policy:(P.Policy_parser.parse "read ::= sessionKeyIs(Ka)");
  let exec_policy = P.Policy_parser.parse "exec ::= hostLocIs(us-east)" in
  match authorize ~exec_policy f "select v from records" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-compliant host accepted"

(* A deployment whose engine has one table, for driving sessions
   through [Engine.submit]. *)
let small_engine () =
  let populate db =
    ignore (Sql.Database.exec db "create table t (a int)");
    Sql.Database.insert_rows db "t"
      (List.init 200 (fun i -> [| Sql.Value.Int i |]))
  in
  let d = Ironsafe.Deployment.create ~seed:"monitor-sessions" ~populate () in
  let e = Ironsafe.Engine.create d in
  ignore (Ironsafe.Engine.register_client e ~label:"Ka" ());
  ignore (Ironsafe.Engine.register_client e ~label:"Kb" ());
  Ironsafe.Engine.set_access_policy e "read ::= sessionKeyIs(Ka)";
  e

let test_sessions () =
  let f = fixture () in
  attest_both f;
  M.Trusted_monitor.set_access_policy f.monitor ~database:"db"
    ~policy:(P.Policy_parser.parse "read ::= sessionKeyIs(Ka)");
  let live () = M.Trusted_monitor.live_sessions f.monitor in
  let valid key = M.Trusted_monitor.session_valid f.monitor key in
  let issue () =
    match authorize f "select v from records" with
    | Error e -> Alcotest.fail e
    | Ok auth -> auth.M.Trusted_monitor.auth_session_key
  in
  let key = issue () in
  Alcotest.(check bool) "session valid" true (valid key);
  Alcotest.(check int) "one live session" 1 (live ());
  Alcotest.(check bool) "never-issued key invalid" false
    (valid (String.make 32 'k'));
  (* releasing a key that was never issued changes nothing *)
  M.Trusted_monitor.session_cleanup f.monitor (String.make 32 'k');
  Alcotest.(check int) "unknown cleanup is a no-op" 1 (live ());
  Alcotest.(check bool) "in-flight session untouched" true (valid key);
  M.Trusted_monitor.session_cleanup f.monitor key;
  Alcotest.(check bool) "session revoked" false (valid key);
  M.Trusted_monitor.session_cleanup f.monitor key;
  Alcotest.(check int) "repeated cleanup is a no-op" 0 (live ());
  (* the registry holds in-flight sessions only: it does not grow
     with the number of requests served *)
  let revoked = ref [] in
  for i = 1 to 10_000 do
    let k = issue () in
    M.Trusted_monitor.session_cleanup f.monitor k;
    if i mod 1_000 = 0 then revoked := k :: !revoked
  done;
  Alcotest.(check int) "no live session after 10^4 cycles" 0 (live ());
  List.iter
    (fun k -> Alcotest.(check bool) "revoked key invalid" false (valid k))
    !revoked;
  (* [Engine.submit] leaves no session behind on success, on a policy
     denial, on an execution failure and on a rejected query *)
  let e = small_engine () in
  let mon = Ironsafe.Engine.monitor e in
  let submit client =
    Ironsafe.Engine.submit e ~client ~sql:"select count(*) as c from t" ()
  in
  (match submit "Ka" with
  | Ok _ -> ()
  | Error err -> Alcotest.fail err);
  Alcotest.(check int) "none live after success" 0
    (M.Trusted_monitor.live_sessions mon);
  (match submit "Kb" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Kb authorized");
  Alcotest.(check int) "none live after denial" 0
    (M.Trusted_monitor.live_sessions mon);
  (match
     Ironsafe.Engine.submit e ~client:"Ka" ~sql:"select x from missing" ()
   with
  | exception _ | Error _ -> ()
  | Ok _ -> Alcotest.fail "query over a missing table answered");
  Alcotest.(check int) "none live after a failed execution" 0
    (M.Trusted_monitor.live_sessions mon);
  let d = Ironsafe.Engine.deployment e in
  Ironsafe_storage.Block_device.tamper d.Ironsafe.Deployment.device_secure
    ~page:0 ~offset:60;
  (match submit "Ka" with
  | Error err ->
      Alcotest.(check bool) "rejected" true
        (String.starts_with ~prefix:"query rejected" err)
  | Ok _ -> Alcotest.fail "query ran over tampered storage");
  Alcotest.(check int) "none live after rejection" 0
    (M.Trusted_monitor.live_sessions mon)

let test_compliance_proof () =
  let f = fixture () in
  attest_both f;
  M.Trusted_monitor.set_access_policy f.monitor ~database:"db"
    ~policy:(P.Policy_parser.parse "read ::= sessionKeyIs(Ka)");
  match authorize f "select v from records" with
  | Error e -> Alcotest.fail e
  | Ok auth ->
      let pk = M.Trusted_monitor.public_key f.monitor in
      Alcotest.(check bool) "proof verifies" true
        (M.Trusted_monitor.verify_proof ~monitor_pk:pk auth.M.Trusted_monitor.auth_proof);
      let forged =
        { auth.M.Trusted_monitor.auth_proof with
          M.Trusted_monitor.proof_query_digest = C.Sha256.digest "another query" }
      in
      Alcotest.(check bool) "forged proof rejected" false
        (M.Trusted_monitor.verify_proof ~monitor_pk:pk forged)

let test_obligations_logged () =
  let f = fixture () in
  attest_both f;
  M.Trusted_monitor.set_access_policy f.monitor ~database:"db"
    ~policy:(P.Policy_parser.parse "read ::= logUpdate(share-log, K, Q)");
  let before = M.Audit_log.length (M.Trusted_monitor.audit_log f.monitor) in
  (match authorize f "select v from records" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "read logged" (before + 1)
    (M.Audit_log.length (M.Trusted_monitor.audit_log f.monitor));
  match M.Audit_log.verify (M.Trusted_monitor.audit_log f.monitor) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "audit chain broken"

let test_parse_error_logged_and_denied () =
  let f = fixture () in
  attest_both f;
  M.Trusted_monitor.set_access_policy f.monitor ~database:"db"
    ~policy:(P.Policy_parser.parse "read ::= sessionKeyIs(Ka)");
  match authorize f "selec nonsense from" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed SQL authorized"


let test_multi_storage_nodes () =
  let f = fixture ~seed:"multi-node" () in
  attest_both f;
  (* a second, older device (v1 firmware) joins the deployment *)
  let drbg2 = C.Drbg.create ~seed:"second-device" in
  let dev2 = Tee.Trustzone.manufacture ~device_id:"tz-2" drbg2 in
  let atf = Tee.Image.create ~name:"atf" ~version:1 ~code:"atf" in
  let nw_old = Tee.Image.create ~name:"storage-engine" ~version:1 ~code:"nw-v1" in
  Tee.Trustzone.provision dev2 [ atf ];
  M.Trusted_monitor.trust_storage_device f.monitor ~device_id:"tz-2"
    ~rotpk:(Tee.Trustzone.rotpk dev2) ~normal_world:nw_old ~version:1;
  let booted2 =
    match Tee.Trustzone.secure_boot dev2 ~secure_stages:[ atf ] ~normal_world:nw_old with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let challenge = M.Trusted_monitor.fresh_challenge f.monitor in
  let resp = Tee.Trustzone.attest booted2 ~challenge in
  (match
     M.Trusted_monitor.attest_storage f.monitor ~challenge ~response:resp
       ~location:"us-east"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "both nodes attested" [ "tz-2"; "tz-1" ]
    (M.Trusted_monitor.attested_storage_nodes f.monitor);
  M.Trusted_monitor.set_access_policy f.monitor ~database:"db"
    ~policy:(P.Policy_parser.parse "read ::= sessionKeyIs(Ka)");
  (* only the up-to-date node satisfies the execution policy *)
  let exec_policy = P.Policy_parser.parse "exec ::= fwVersionStorage(latest)" in
  (match authorize ~exec_policy f "select v from records" with
  | Error e -> Alcotest.fail e
  | Ok auth ->
      Alcotest.(check (list string)) "one compliant node" [ "tz-1" ]
        auth.M.Trusted_monitor.auth_compliant_storage;
      Alcotest.(check bool) "offload allowed" true
        auth.M.Trusted_monitor.auth_offload_allowed);
  (* a location policy can select the other node *)
  let exec_policy = P.Policy_parser.parse "exec ::= storageLocIs(us-east)" in
  match authorize ~exec_policy f "select v from records" with
  | Error e -> Alcotest.fail e
  | Ok auth ->
      Alcotest.(check (list string)) "us-east node selected" [ "tz-2" ]
        auth.M.Trusted_monitor.auth_compliant_storage

let suite =
  [
    ("audit append/verify", `Quick, test_audit_append_verify);
    ("audit tamper detected", `Quick, test_audit_tamper_detected);
    ("audit empty verifies", `Quick, test_audit_empty_verifies);
    ("audit long chain", `Quick, test_audit_long_chain);
    ("attest host ok", `Quick, test_attest_host_ok);
    ("attest host unknown measurement", `Quick, test_attest_host_unknown_measurement);
    ("attest storage ok", `Quick, test_attest_storage_ok);
    ("attest storage modified nw", `Quick, test_attest_storage_modified_normal_world);
    ("attest storage unknown device", `Quick, test_attest_storage_unknown_device);
    ("authorize requires attestation", `Quick, test_authorize_requires_attestation);
    ("authorize unknown client", `Quick, test_authorize_unknown_client);
    ("authorize policy denies write", `Quick, test_authorize_policy_denies_write);
    ("authorize rewrites query", `Quick, test_authorize_rewrites_query);
    ("authorize owner unfiltered", `Quick, test_authorize_owner_sees_everything);
    ("authorize exec downgrade", `Quick, test_authorize_exec_policy_downgrade);
    ("authorize exec denies host", `Quick, test_authorize_exec_policy_denies_host);
    ("sessions", `Quick, test_sessions);
    ("compliance proof", `Quick, test_compliance_proof);
    ("obligations logged", `Quick, test_obligations_logged);
    ("parse error denied", `Quick, test_parse_error_logged_and_denied);
    ("multi storage nodes", `Quick, test_multi_storage_nodes);
  ]
