(* End-to-end IronSafe engine: the §3.1 workflow.

   1. the client submits a query plus execution policy over TLS;
   2. the host consults the trusted monitor, which checks the client's
      permissions against the data producer's access policy, checks the
      execution policy against the attested nodes, rewrites the query
      to be policy compliant, and issues a session key;
   3. the query is partitioned and executed (split across host and
      storage when offloading is allowed and compliant, host-only
      otherwise);
   4. the client receives the results and a signed proof of
      compliance; the monitor then runs session cleanup. *)

module C = Ironsafe_crypto
module Monitor = Ironsafe_monitor
module Sql = Ironsafe_sql
module Net = Ironsafe_net
module Fault = Ironsafe_fault.Fault

type storage = {
  attest : unit -> (unit, string) result;
  reset_counters : unit -> unit;
  nodes : Ironsafe_sim.Node.t list;
  device_ids : string list;
  admit : Sql.Ast.stmt -> Runner.violation option;
  run : Config.t -> Sql.Ast.stmt -> Runner.outcome;
}

type t = {
  deploy : Deployment.t;
  storage : storage;
  database : string;
  mutable attested : bool;
}

type response = {
  resp_result : Sql.Exec.result;
  resp_proof : Monitor.Trusted_monitor.proof;
  resp_result_signature : string;
      (** host-engine signature over the result (data-path integrity);
          the host's public key is certified by the monitor (Fig. 4a) *)
  resp_metrics : Runner.metrics;
}

(* [attest_reliable] retries only under an enabled fault plan, so it is
   exactly [Deployment.attest] when faults are off *)
let create ?(database = "ironsafe") (d : Deployment.t) =
  {
    deploy = d;
    storage =
      {
        attest = (fun () -> Deployment.attest_reliable d);
        reset_counters = (fun () -> Deployment.reset_counters d);
        nodes = [ d.Deployment.storage ];
        device_ids = [ Ironsafe_tee.Trustzone.device_id d.Deployment.tz_device ];
        admit = (fun _ -> None);
        run = (fun config stmt -> Runner.run_stmt_outcome ~reset:false d config stmt);
      };
    database;
    attested = false;
  }

let over d storage = { (create d) with storage }

let monitor t = t.deploy.Deployment.monitor
let deployment t = t.deploy

let ensure_attested t =
  if t.attested then Ok ()
  else begin
    match t.storage.attest () with
    | Ok () ->
        t.attested <- true;
        Ok ()
    | Error _ as e -> e
  end

(* Register a client identity with the monitor; returns its keypair
   (the secret stays with the caller, modelling the client's TLS
   client-certificate key). *)
let register_client t ~label ?reuse_bit () =
  let sk, pk = C.Signature.generate t.deploy.Deployment.drbg in
  Monitor.Trusted_monitor.register_client (monitor t) ~label ~pk ~reuse_bit;
  (sk, pk)

let set_access_policy t policy_src =
  let policy = Ironsafe_policy.Policy_parser.parse policy_src in
  Monitor.Trusted_monitor.set_access_policy (monitor t) ~database:t.database
    ~policy

let result_digest (r : Sql.Exec.result) =
  C.Sha256.digest
    (String.concat "|" r.Sql.Exec.columns
    ^ "\x00"
    ^ String.concat "\x00" (List.map Sql.Row.encode r.Sql.Exec.rows))

let sign_result t proof result =
  C.Signature.sign t.deploy.Deployment.host_sk
    ("host-result" ^ result_digest result
    ^ proof.Monitor.Trusted_monitor.proof_query_digest)

let parse_exec_policy src =
  if String.trim src = "" then Ok []
  else
    try Ok (Ironsafe_policy.Policy_parser.parse src)
    with Ironsafe_policy.Policy_parser.Policy_error msg ->
      Error ("execution policy: " ^ msg)

let submit ?(exec_policy = "") ?(config = Config.Scs) t ~client ~sql () =
  match (ensure_attested t, parse_exec_policy exec_policy) with
  | Error e, _ -> Error ("attestation failed: " ^ e)
  | Ok (), (Error _ as e) -> e
  | Ok (), Ok exec_policy_rules -> (
      let catalog =
        Sql.Database.catalog t.deploy.Deployment.secure_db
      in
      match
        Monitor.Trusted_monitor.authorize (monitor t) ~catalog
          ~client_label:client ~database:t.database
          ~exec_policy:exec_policy_rules ~sql
      with
      | Error e -> Error e
      | Ok auth -> (
          (* charge the control path: client TLS session to the host,
             host <-> monitor round, policy interpretation, session-key
             issuance and proof signing (§4.2 / Table 3) *)
          let params = t.deploy.Deployment.params in
          t.storage.reset_counters ();
          let host_node = t.deploy.Deployment.host in
          Ironsafe_sim.Node.charge host_node ~category:"policy"
            (params.Ironsafe_sim.Params.tls_handshake_ns
            +. (6.0 *. params.Ironsafe_sim.Params.net_latency_ns)
            +. params.Ironsafe_sim.Params.monitor_policy_ns
            +. params.Ironsafe_sim.Params.monitor_session_ns);
          let stmt = auth.Monitor.Trusted_monitor.auth_stmt in
          let query = match stmt with Sql.Ast.Select _ -> true | _ -> false in
          (* DML runs whole on the secure (authoritative) database, so it
             commits through the WAL when the deployment has one; a query
             runs split only if every storage node it runs on complies *)
          let compliant = auth.Monitor.Trusted_monitor.auth_compliant_storage in
          let offload_ok =
            List.for_all (fun id -> List.mem id compliant) t.storage.device_ids
          in
          let config =
            if not query then Config.Sos
            else if Config.split_execution config && not offload_ok then
              if Config.secure config then Config.Hos else Config.Hons
            else config
          in
          (* under a fault plan the session key reaches each storage node
             over a lossy channel with reliable delivery; with faults off
             the control-path charge above stands for the delivery *)
          let faults = Deployment.faults t.deploy in
          let deliver node =
            Result.map_error
              (fun e -> "control channel: " ^ Net.Channel.error_message e)
              (Result.bind
                 (Net.Channel.connect ~faults ~a:host_node ~b:node
                    ~session_key:auth.Monitor.Trusted_monitor.auth_session_key
                    ~drbg:t.deploy.Deployment.drbg ())
                 (fun ch ->
                   let r = Net.Channel.roundtrip_reliable ch ~from:host_node sql in
                   Net.Channel.close ch;
                   Result.map ignore r))
          in
          let deliver_session_key () =
            if not (Fault.enabled faults) then Ok ()
            else
              List.fold_left
                (fun acc node -> Result.bind acc (fun () -> deliver node))
                (Ok ()) t.storage.nodes
          in
          (* the session ends with the request, however the request ends;
             the storage side's refusal comes before key delivery *)
          let outcome =
            Fun.protect
              ~finally:(fun () ->
                Monitor.Trusted_monitor.session_cleanup (monitor t)
                  auth.Monitor.Trusted_monitor.auth_session_key)
              (fun () ->
                match t.storage.admit stmt with
                | Some v -> Ok (Runner.Rejected v)
                | None ->
                    Result.map
                      (fun () -> t.storage.run config stmt)
                      (deliver_session_key ()))
          in
          let respond metrics resp_result =
            Ok
              {
                resp_result;
                resp_proof = auth.Monitor.Trusted_monitor.auth_proof;
                resp_result_signature =
                  sign_result t auth.Monitor.Trusted_monitor.auth_proof
                    resp_result;
                resp_metrics = metrics;
              }
          in
          match outcome with
          | Error e -> Error e
          | Ok (Runner.Rejected v) ->
              Error (Fmt.str "query rejected: %a" Runner.pp_violation v)
          | Ok (Runner.Crashed v) ->
              Error (Fmt.str "query crashed: %a" Runner.pp_violation v)
          | Ok (Runner.Ok metrics | Runner.Degraded (metrics, _)) ->
              if query then respond metrics metrics.Runner.result
              else begin
                (* the write is committed: mirror it to the plain replica
                   so all Table-2 configurations keep seeing identical
                   data *)
                ignore (Sql.Database.exec_ast t.deploy.Deployment.plain_db stmt);
                respond metrics
                  {
                    Sql.Exec.columns = [ "affected" ];
                    rows = [ [| Sql.Value.Int metrics.Runner.affected |] ];
                  }
              end))

(* Client-side verification (the client trusts only the monitor's
   public key): 1. the compliance proof is monitor-signed; 2. the host
   engine's session key is monitor-certified (attestation, Fig. 4a);
   3. the result is signed under that certified key. *)
let verify_response t resp ~sql:_ =
  let monitor_pk = Monitor.Trusted_monitor.public_key (monitor t) in
  Monitor.Trusted_monitor.verify_proof ~monitor_pk resp.resp_proof
  && (match Monitor.Trusted_monitor.attested_host (monitor t) with
     | None -> false
     | Some h ->
         Monitor.Trusted_monitor.verify_host_certificate ~monitor_pk
           ~host_pk:t.deploy.Deployment.host_pk
           ~certificate:h.Monitor.Trusted_monitor.host_certificate)
  && C.Signature.verify t.deploy.Deployment.host_pk
       ("host-result" ^ result_digest resp.resp_result
       ^ resp.resp_proof.Monitor.Trusted_monitor.proof_query_digest)
       resp.resp_result_signature
