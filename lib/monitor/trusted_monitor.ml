(* The trusted monitor (§4.2): unified abstraction for attestation, key
   management, and policy compliance. Runs inside its own SGX enclave
   in the real system; here it owns a signing keypair whose public half
   clients trust, registries of known-good software measurements, and
   the audit log.

   Protocol surface:
   - [attest_host]       Fig. 4a — verify an SGX quote via the IAS,
                         check the measurement registry, certify the
                         host's session public key;
   - [attest_storage]    Fig. 4b — challenge-response against the
                         attestation TA, verified against the
                         manufacturer ROTPK and the normal-world
                         measurement registry;
   - [authorize]         policy-compliant query admission: access
                         policy, execution policy, query rewriting,
                         session-key issuance, compliance proof;
   - [session_cleanup]   key revocation after the request completes. *)

module C = Ironsafe_crypto
module Tee = Ironsafe_tee
module P = Ironsafe_policy
module Sql = Ironsafe_sql
module Obs = Ironsafe_obs.Obs
module Ev = Ironsafe_obs.Event_log

let obs_scope = "monitor"

type host_info = {
  host_measurement : string;
  host_version : int;
  host_location : string;
  host_certificate : string; (* monitor-signed host public key *)
}

type storage_info = {
  storage_device_id : string;
  storage_version : int;
  storage_location : string;
  storage_nw_hash : string;
}

type client_info = {
  client_label : string;
  client_pk : C.Signature.public_key;
  reuse_bit : int option;
}

type proof = {
  proof_query_digest : string;
  proof_policy_digest : string;
  proof_host_measurement : string;
  proof_storage_hash : string option;
  proof_date : Sql.Date.t;
  proof_signature : string;
}

type t = {
  drbg : C.Drbg.t;
  sk : C.Signature.secret_key;
  pk : C.Signature.public_key;
  ias : Tee.Sgx.ias;
  mutable trusted_host_measurements : (string * int) list;
  (* device_id -> (rotpk, expected normal-world measurement, version) *)
  mutable trusted_storage :
    (string * (C.Lamport.public_key * string * int)) list;
  mutable clients : client_info list;
  mutable access_policies : (string * P.Policy_ast.t) list;
  mutable attested_host : host_info option;
  (* all currently attested storage nodes, most recent first; the
     monitor sends the *list* of compliant nodes to the host (Fig. 5) *)
  mutable attested_storage : storage_info list;
  (* in-flight sessions only: session key -> client label. A key lives
     here from [authorize] until its request's [session_cleanup]; the
     audit log, not this table, is the durable record of what ran. *)
  sessions : (string, string) Hashtbl.t;
  mutable latest_fw_host : int;
  mutable latest_fw_storage : int;
  audit : Audit_log.t;
  mutable today : Sql.Date.t;
}

let create ~ias ~seed =
  let drbg = C.Drbg.create ~seed in
  let sk, pk = C.Signature.generate drbg in
  {
    drbg;
    sk;
    pk;
    ias;
    trusted_host_measurements = [];
    trusted_storage = [];
    clients = [];
    access_policies = [];
    attested_host = None;
    attested_storage = [];
    sessions = Hashtbl.create 16;
    latest_fw_host = 1;
    latest_fw_storage = 1;
    audit = Audit_log.create ~name:"ironsafe-audit" ~key:(C.Drbg.generate drbg 32);
    today = Sql.Date.of_ymd ~y:1998 ~m:12 ~d:1;
  }

let public_key t = t.pk
let audit_log t = t.audit
let set_today t d = t.today <- d
let today t = t.today

(* -- Registries ------------------------------------------------------ *)

let trust_host_image t image =
  t.trusted_host_measurements <-
    (Tee.Image.measurement image, Tee.Image.version image)
    :: t.trusted_host_measurements;
  t.latest_fw_host <-
    List.fold_left max 0 (List.map snd t.trusted_host_measurements)

let trust_storage_device t ~device_id ~rotpk ~normal_world ~version =
  t.trusted_storage <-
    (device_id, (rotpk, Tee.Image.measurement normal_world, version))
    :: t.trusted_storage;
  t.latest_fw_storage <-
    List.fold_left max 0
      (List.map (fun (_, (_, _, v)) -> v) t.trusted_storage)

let register_client t ~label ~pk ~reuse_bit =
  t.clients <- { client_label = label; client_pk = pk; reuse_bit } :: t.clients

let set_access_policy t ~database ~policy =
  t.access_policies <-
    (database, policy) :: List.remove_assoc database t.access_policies

let find_client t label =
  List.find_opt (fun c -> c.client_label = label) t.clients

(* -- Attestation (Fig. 4a / 4b) -------------------------------------- *)

let attest_host t ~quote ~location =
  Obs.count ~scope:obs_scope "attest_host";
  match Tee.Sgx.verify_quote ~ias:t.ias quote with
  | Error e -> Error (Printf.sprintf "host quote rejected: %s" e)
  | Ok () -> (
      match
        List.assoc_opt quote.Tee.Sgx.quoted_mrenclave t.trusted_host_measurements
      with
      | None -> Error "host measurement not in the trusted registry"
      | Some version ->
          (* certify the host's report data (its session public key) *)
          let cert =
            C.Signature.sign t.sk ("host-cert" ^ quote.Tee.Sgx.report_data)
          in
          let info =
            {
              host_measurement = quote.Tee.Sgx.quoted_mrenclave;
              host_version = version;
              host_location = location;
              host_certificate = cert;
            }
          in
          t.attested_host <- Some info;
          Ironsafe_obs.Span.instant ~name:"attest.host.ok" ~scope:obs_scope
            ~attrs:[ ("location", location) ]
            ();
          if Obs.enabled () then
            Obs.event ~scope:obs_scope ~kind:"attest.host"
              [
                ("ok", Ev.B true);
                ("location", Ev.S location);
                ( "measurement",
                  Ev.S (C.Hex.of_string quote.Tee.Sgx.quoted_mrenclave) );
              ];
          Ok info)

let fresh_challenge t = C.Drbg.generate t.drbg 32

let attest_storage ?shard t ~challenge ~response ~location =
  Obs.count ~scope:obs_scope "attest_storage";
  let device_id = response.Tee.Trustzone.resp_device_id in
  let result =
    match List.assoc_opt device_id t.trusted_storage with
    | None -> Error (Printf.sprintf "unknown storage device %s" device_id)
    | Some (rotpk, expected_nw, version) -> (
        match Tee.Trustzone.verify_attestation ~rotpk ~challenge response with
        | Error e -> Error (Printf.sprintf "storage attestation failed: %s" e)
        | Ok () ->
            if
              not
                (C.Constant_time.equal
                   response.Tee.Trustzone.resp_normal_world_hash expected_nw)
            then
              Error
                "storage normal-world measurement does not match the trusted \
                 registry"
            else begin
              let info =
                {
                  storage_device_id = device_id;
                  storage_version = version;
                  storage_location = location;
                  storage_nw_hash =
                    response.Tee.Trustzone.resp_normal_world_hash;
                }
              in
              t.attested_storage <-
                info
                :: List.filter
                     (fun s -> s.storage_device_id <> device_id)
                     t.attested_storage;
              Ok info
            end)
  in
  (* Cluster sessions pass [shard]: the monitor then records one
     evidence entry per shard in the hash-chained audit log — success
     or failure — so a rejected shard is observable as its own
     audit-chain entry. Without [shard] no audit entry is added. *)
  (match shard with
  | None -> ()
  | Some i ->
      let outcome =
        match result with
        | Ok _ -> "attested"
        | Error e -> "rejected: " ^ e
      in
      ignore
        (Audit_log.append t.audit ~date:t.today ~actor:"monitor"
           ~action:"attest-shard"
           ~detail:(Printf.sprintf "shard %d device %s %s" i device_id outcome)));
  (match result with
  | Ok _ ->
      Ironsafe_obs.Span.instant ~name:"attest.storage.ok" ~scope:obs_scope
        ~attrs:
          (("device", device_id) :: ("location", location)
          ::
          (match shard with
          | Some i -> [ ("shard", string_of_int i) ]
          | None -> []))
        ();
      if Obs.enabled () then
        Obs.event ~scope:obs_scope ~kind:"attest.storage"
          ([
             ("ok", Ev.B true);
             ("device", Ev.S device_id);
             ("location", Ev.S location);
           ]
          @ match shard with Some i -> [ ("shard", Ev.I i) ] | None -> [])
  | Error e -> (
      match shard with
      | None -> ()
      | Some i ->
          if Obs.enabled () then
            Obs.event ~scope:obs_scope ~kind:"attest.storage"
              [
                ("ok", Ev.B false);
                ("device", Ev.S device_id);
                ("location", Ev.S location);
                ("shard", Ev.I i);
                ("error", Ev.S e);
              ]));
  result

(* -- Authorization ---------------------------------------------------- *)

type authorization = {
  auth_session_key : string;
  auth_stmt : Sql.Ast.stmt;  (** rewritten to be policy compliant *)
  auth_compliant_storage : string list;
      (** device ids satisfying the execution policy (Fig. 5) *)
  auth_proof : proof;
  auth_obligations : P.Policy_eval.obligation list;
}

let perm_of_stmt = function
  | Sql.Ast.Select _ -> P.Policy_ast.Read
  | Sql.Ast.Insert _ | Sql.Ast.Update _ | Sql.Ast.Delete _
  | Sql.Ast.Create_table _ | Sql.Ast.Drop_table _ | Sql.Ast.Create_index _
  | Sql.Ast.Drop_index _ ->
      P.Policy_ast.Write

let request_of ?storage_node t ~client =
  let storage =
    match storage_node with
    | Some s -> Some s
    | None -> (
        match t.attested_storage with s :: _ -> Some s | [] -> None)
  in
  {
    P.Policy_eval.client_key = client.client_label;
    access_date = t.today;
    host =
      Option.map
        (fun h ->
          {
            P.Policy_eval.location = h.host_location;
            fw_version = h.host_version;
          })
        t.attested_host;
    storage =
      Option.map
        (fun s ->
          {
            P.Policy_eval.location = s.storage_location;
            fw_version = s.storage_version;
          })
        storage;
    latest_fw_host = t.latest_fw_host;
    latest_fw_storage = t.latest_fw_storage;
    reuse_bit = client.reuse_bit;
  }

let policy_digest policy = C.Sha256.digest (Fmt.str "%a" P.Policy_ast.pp policy)

let make_proof t ~sql ~policy =
  let p =
    {
      proof_query_digest = C.Sha256.digest sql;
      proof_policy_digest = policy_digest policy;
      proof_host_measurement =
        (match t.attested_host with
        | Some h -> h.host_measurement
        | None -> "");
      proof_storage_hash =
        (match t.attested_storage with
        | s :: _ -> Some s.storage_nw_hash
        | [] -> None);
      proof_date = t.today;
      proof_signature = "";
    }
  in
  let payload =
    String.concat "\x00"
      [
        p.proof_query_digest;
        p.proof_policy_digest;
        p.proof_host_measurement;
        Option.value ~default:"" p.proof_storage_hash;
        string_of_int p.proof_date;
      ]
  in
  { p with proof_signature = C.Signature.sign t.sk ("compliance-proof" ^ payload) }

let verify_proof ~monitor_pk p =
  let payload =
    String.concat "\x00"
      [
        p.proof_query_digest;
        p.proof_policy_digest;
        p.proof_host_measurement;
        Option.value ~default:"" p.proof_storage_hash;
        string_of_int p.proof_date;
      ]
  in
  C.Signature.verify monitor_pk ("compliance-proof" ^ payload) p.proof_signature

(* Forensic identity of a policy rule: rules carry no intrinsic ids,
   so decisions are reported under perm name + a truncated digest of
   the selected rule's rendering — stable across runs, and it changes
   exactly when the rule text does. *)
let rule_id ~perm rule =
  let digest = C.Sha256.digest (Fmt.str "%a" P.Policy_ast.pp_rule rule) in
  P.Policy_ast.perm_name perm ^ "-" ^ String.sub (C.Hex.of_string digest) 0 12

let audit_head_hex t = C.Hex.of_string (Audit_log.head t.audit)

(* JSONL record of a policy decision. Emitted *after* the matching
   audit-log append, so the recorded chain head covers the decision —
   the event is checkable against the hash-chained audit log. *)
let note_decision t ~kind ~client ?rule_id:rid fields =
  if Obs.enabled () then
    Obs.event ~scope:obs_scope ~kind
      (("client", Ev.S client)
      :: (match rid with Some id -> [ ("rule_id", Ev.S id) ] | None -> [])
      @ fields
      @ [ ("audit_head", Ev.S (audit_head_hex t)) ])

let log_denied t ~client ~sql ?rule_id reason =
  Obs.count ~scope:obs_scope "queries_denied";
  Ironsafe_obs.Span.instant ~name:"policy.denied" ~scope:obs_scope
    ~attrs:[ ("client", client); ("reason", reason) ]
    ();
  ignore
    (Audit_log.append t.audit ~date:t.today ~actor:client ~action:"denied"
       ~detail:(sql ^ " -- " ^ reason));
  note_decision t ~kind:"policy.deny" ~client ?rule_id
    [ ("reason", Ev.S reason) ]

let authorize t ~catalog ~client_label ~database ~exec_policy ~sql =
  Obs.count ~scope:obs_scope "policy_checks";
  match find_client t client_label with
  | None ->
      log_denied t ~client:client_label ~sql "unknown client";
      Error "client identity not registered with the monitor"
  | Some client -> (
      if t.attested_host = None then Error "host not attested"
      else begin
        let stmt =
          try Ok (Sql.Parser.parse sql) with
          | Sql.Parser.Parse_error e -> Error ("parse error: " ^ e)
          | Sql.Lexer.Lex_error e -> Error ("lex error: " ^ e)
        in
        match stmt with
        | Error e ->
            log_denied t ~client:client_label ~sql e;
            Error e
        | Ok stmt -> (
            let access_policy =
              Option.value ~default:[] (List.assoc_opt database t.access_policies)
            in
            let req = request_of t ~client in
            let perm = perm_of_stmt stmt in
            let decided_rule =
              Option.map (rule_id ~perm)
                (P.Policy_eval.matching_rule access_policy ~perm)
            in
            match P.Policy_eval.evaluate access_policy ~perm req with
            | P.Policy_eval.Denied reason ->
                log_denied t ~client:client_label ~sql ?rule_id:decided_rule
                  reason;
                Error reason
            | P.Policy_eval.Allowed { residual; obligations; _ } ->
                let exec_verdict = P.Policy_eval.evaluate_exec exec_policy req in
                (* which attested storage nodes satisfy the policy? *)
                let compliant_storage =
                  List.filter_map
                    (fun node ->
                      let req = request_of ~storage_node:node t ~client in
                      let v = P.Policy_eval.evaluate_exec exec_policy req in
                      if v.P.Policy_eval.offload_allowed then
                        Some node.storage_device_id
                      else None)
                    t.attested_storage
                in
                ignore exec_verdict.P.Policy_eval.offload_allowed;
                if not exec_verdict.P.Policy_eval.host_ok then begin
                  let reason = "no compliant host for execution policy" in
                  log_denied t ~client:client_label ~sql reason;
                  Error reason
                end
                else begin
                  (* rewrite the query per the row-level residual *)
                  let stmt =
                    match residual with
                    | None -> stmt
                    | Some r -> P.Rewrite.rewrite_stmt catalog r stmt
                  in
                  (* execute obligations: audit logging *)
                  List.iter
                    (fun (o : P.Policy_eval.obligation) ->
                      ignore
                        (Audit_log.append t.audit ~date:t.today
                           ~actor:client_label
                           ~action:(P.Policy_ast.perm_name perm)
                           ~detail:sql);
                      ignore o.P.Policy_eval.log_name)
                    obligations;
                  note_decision t ~kind:"policy.allow" ~client:client_label
                    ?rule_id:decided_rule
                    [
                      ("perm", Ev.S (P.Policy_ast.perm_name perm));
                      ("residual", Ev.B (residual <> None));
                      ("obligations", Ev.I (List.length obligations));
                      ( "compliant_storage",
                        Ev.I (List.length compliant_storage) );
                    ];
                  (* session key issuance *)
                  Obs.count ~scope:obs_scope "sessions_issued";
                  let key = C.Drbg.generate t.drbg 32 in
                  Hashtbl.replace t.sessions key client_label;
                  Ok
                    {
                      auth_session_key = key;
                      auth_stmt = stmt;
                      auth_compliant_storage = compliant_storage;
                      auth_proof = make_proof t ~sql ~policy:access_policy;
                      auth_obligations = obligations;
                    }
                end)
      end)

let session_valid t key = Hashtbl.mem t.sessions key
let session_cleanup t key = Hashtbl.remove t.sessions key
let live_sessions t = Hashtbl.length t.sessions

let attested_storage_nodes t =
  List.map (fun s -> s.storage_device_id) t.attested_storage

let attested_host t = t.attested_host

(* Verify the monitor-issued certificate binding [host_pk] (Fig. 4a,
   step 4): the client checks this before trusting result signatures. *)
let verify_host_certificate ~monitor_pk ~host_pk ~certificate =
  C.Signature.verify monitor_pk
    ("host-cert" ^ C.Signature.public_key_bytes host_pk)
    certificate
