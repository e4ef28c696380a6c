(** The trusted monitor (§4.2): the unified abstraction for
    attestation, key management and policy compliance. Clients trust
    only the monitor's public key; the monitor in turn verifies the
    host enclave (via the IAS) and the storage node (via the
    manufacturer ROTPK and the normal-world measurement registry)
    before authorizing any query. *)

type t

type host_info = {
  host_measurement : string;
  host_version : int;
  host_location : string;
  host_certificate : string;
}

type storage_info = {
  storage_device_id : string;
  storage_version : int;
  storage_location : string;
  storage_nw_hash : string;
}

type proof = {
  proof_query_digest : string;
  proof_policy_digest : string;
  proof_host_measurement : string;
  proof_storage_hash : string option;
  proof_date : Ironsafe_sql.Date.t;
  proof_signature : string;
}

type authorization = {
  auth_session_key : string;
  auth_stmt : Ironsafe_sql.Ast.stmt;  (** rewritten to be compliant *)
  auth_offload_allowed : bool;  (** at least one compliant storage node *)
  auth_compliant_storage : string list;
      (** device ids satisfying the execution policy (Fig. 5) *)
  auth_proof : proof;
  auth_obligations : Ironsafe_policy.Policy_eval.obligation list;
}

val create : ias:Ironsafe_tee.Sgx.ias -> seed:string -> t

val public_key : t -> Ironsafe_crypto.Signature.public_key
val audit_log : t -> Audit_log.t
val set_today : t -> Ironsafe_sql.Date.t -> unit
val today : t -> Ironsafe_sql.Date.t

(** {2 Registries} *)

val trust_host_image : t -> Ironsafe_tee.Image.t -> unit
(** Add a known-good host enclave measurement. *)

val trust_storage_device :
  t ->
  device_id:string ->
  rotpk:Ironsafe_crypto.Lamport.public_key ->
  normal_world:Ironsafe_tee.Image.t ->
  version:int ->
  unit

val register_client :
  t ->
  label:string ->
  pk:Ironsafe_crypto.Signature.public_key ->
  reuse_bit:int option ->
  unit

val set_access_policy :
  t -> database:string -> policy:Ironsafe_policy.Policy_ast.t -> unit

(** {2 Attestation (Fig. 4a / 4b)} *)

val attest_host :
  t -> quote:Ironsafe_tee.Sgx.quote -> location:string ->
  (host_info, string) result

val fresh_challenge : t -> string

val attest_storage :
  ?shard:int ->
  t ->
  challenge:string ->
  response:Ironsafe_tee.Trustzone.attestation_response ->
  location:string ->
  (storage_info, string) result
(** [shard] marks a cluster-session attestation: the monitor then
    appends one evidence entry per shard to the audit chain — on
    success {e and} on failure, so a rejected shard leaves its own
    distinct audit-chain entry — and the [attest.storage] forensics
    event carries the shard id. Without [shard] the audit and event
    streams are byte-identical to the single-node monitor. *)

(** {2 Authorization} *)

val authorize :
  t ->
  catalog:Ironsafe_sql.Catalog.t ->
  client_label:string ->
  database:string ->
  exec_policy:Ironsafe_policy.Policy_ast.t ->
  sql:string ->
  (authorization, string) result
(** Check the client against the access policy, the deployment against
    the execution policy, rewrite the query per the row-level residual,
    execute logging obligations, and issue a session key. Denials are
    recorded in the audit log. *)

val verify_proof : monitor_pk:Ironsafe_crypto.Signature.public_key -> proof -> bool

val session_valid : t -> string -> bool
(** [true] while the key's request is in flight: issued by {!authorize}
    and not yet released by {!session_cleanup}. *)

val session_cleanup : t -> string -> unit
(** Revoke a session key when its request completes. Constant time; a
    key that is unknown or already revoked is ignored. *)

val live_sessions : t -> int
(** Number of sessions currently in flight. *)

val attested_storage_nodes : t -> string list
(** Device ids of all currently attested storage nodes, newest first. *)

val attested_host : t -> host_info option

val verify_host_certificate :
  monitor_pk:Ironsafe_crypto.Signature.public_key ->
  host_pk:Ironsafe_crypto.Signature.public_key ->
  certificate:string ->
  bool
(** Check the monitor-issued certificate over the host engine's session
    public key (Fig. 4a, step 4). *)
