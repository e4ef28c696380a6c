(** The end-to-end IronSafe engine (§3.1 workflow): clients submit SQL
    plus policies; the trusted monitor attests, authorizes, rewrites
    and issues session keys; the runner executes under the chosen
    configuration; results come back with a signed compliance proof. *)

type t

type response = {
  resp_result : Ironsafe_sql.Exec.result;
  resp_proof : Ironsafe_monitor.Trusted_monitor.proof;
  resp_result_signature : string;
      (** host-engine signature over the result, under the session key
          the monitor certified at attestation (Fig. 4a) *)
  resp_metrics : Runner.metrics;
}

val create : ?database:string -> Deployment.t -> t
val monitor : t -> Ironsafe_monitor.Trusted_monitor.t
val deployment : t -> Deployment.t

val register_client :
  t ->
  label:string ->
  ?reuse_bit:int ->
  unit ->
  Ironsafe_crypto.Signature.secret_key * Ironsafe_crypto.Signature.public_key
(** Register a client identity with the monitor; [reuse_bit] is the
    client's position in the reuseMap bitmap (§4.3 anti-pattern #2). *)

val set_access_policy : t -> string -> unit
(** Parse and install the data producer's access policy.
    @raise Ironsafe_policy.Policy_parser.Policy_error on bad source. *)

val submit :
  ?exec_policy:string ->
  ?config:Config.t ->
  t ->
  client:string ->
  sql:string ->
  unit ->
  (response, string) result
(** Run the full workflow. Attests lazily on first use; downgrades a
    split configuration to host-only when the execution policy rules
    out the storage node. DML statements run whole on the
    authoritative secure database ([Sos], whatever [config] asks), so
    a WAL deployment commits them before [submit] returns (durably,
    unless the deployment has a group-commit window); only then are
    they mirrored to the plain replica. A DML response carries one
    row, the affected-row count. A malformed [exec_policy], a denial,
    and a rejected or crashed statement are all [Error]; the session
    key is released on every path. *)

val verify_response : t -> response -> sql:string -> bool
(** Client-side verification against the monitor's public key alone:
    the compliance proof, the monitor-issued certificate over the host
    engine's session key, and the host's signature over the result. *)
