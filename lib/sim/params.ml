(* Every cost constant of the performance model in one place.

   Values are calibrated from the hardware of the paper's testbed
   (§6.1): Intel i9-10900K @ 3.7 GHz with SGX (SCONE), Solidrun
   Clearfog CX LX2K (16x Cortex-A72 @ 2.2 GHz), Samsung 970 EVO Plus
   NVMe (3329 MB/s seq. reads), 40 GbE network with 850 MB/s measured
   single-stream bandwidth. Where the paper gives no number we use
   published figures for the parts (SGX transition ~8 us, EPC fault
   ~40 us) — see EXPERIMENTS.md for the calibration discussion. *)

type t = {
  page_size : int;  (** bytes per database page (paper fixes 4 KiB) *)
  (* CPU *)
  host_row_ns : float;  (** host ns per row-operator step *)
  arm_slowdown : float;  (** ARM per-core slowdown vs host core *)
  parallel_fraction : float;  (** Amdahl fraction of query work that scales *)
  (* Storage medium *)
  nvme_page_ns : float;  (** NVMe read, per 4 KiB page *)
  page_cache_ns : float;  (** buffer-cache hit, per page *)
  (* Network *)
  net_bandwidth_bytes_per_ns : float;  (** 850 MB/s single stream *)
  net_latency_ns : float;  (** per message *)
  tls_handshake_ns : float;  (** per session *)
  tls_record_ns_per_byte : float;  (** channel encryption cost *)
  net_batch_bytes : int;  (** request/response message batch size *)
  (* SGX *)
  enclave_transition_ns : float;  (** one ecall or ocall *)
  epc_limit_bytes : int;  (** usable EPC (96 MiB on the testbed) *)
  epc_fault_ns : float;  (** one EPC page eviction+reload *)
  sgx_mee_ns_per_byte : float;  (** memory-encryption-engine tax *)
  (* TrustZone *)
  world_switch_ns : float;  (** SMC normal<->secure world switch *)
  rpmb_access_ns : float;  (** one RPMB read or write frame *)
  (* Secure storage crypto, per 4 KiB page (measured on ARM A72) *)
  decrypt_page_ns : float;
  hmac_page_ns : float;
  merkle_node_ns : float;  (** one internal HMAC (64-byte input) *)
  offload_session_ns : float;
      (** per offloaded sub-query: storage-side CS service instantiation *)
  wal_append_ns : float;
      (** one WAL record: encode + AES-CTR encrypt + chain HMAC *)
  wal_flush_ns : float;
      (** one group-commit flush: log-device write path (the RPMB
          anchor bump is charged separately at [rpmb_access_ns]) *)
  (* Control path (trusted monitor) *)
  monitor_policy_ns : float;  (** policy parse + interpretation per query *)
  monitor_session_ns : float;  (** key issuance, proof signing, cleanup *)
  (* Attestation (Table 4 shape) *)
  ias_roundtrip_ns : float;  (** SCONE CAS / IAS verification round trip *)
  tz_attest_tee_ns : float;  (** secure-world quote generation (OP-TEE) *)
  tz_attest_ree_ns : float;  (** normal-world handling of the request *)
  tz_attest_interconnect_ns : float;  (** protocol rounds host<->storage *)
}

let default =
  {
    page_size = 4096;
    host_row_ns = 95.0;
    arm_slowdown = 3.1;
    parallel_fraction = 0.85;
    nvme_page_ns = 4096.0 /. 3.329; (* 3329 MB/s *)
    page_cache_ns = 120.0;
    net_bandwidth_bytes_per_ns = 0.85; (* 850 MB/s = 0.85 B/ns *)
    net_latency_ns = 50_000.0;
    tls_handshake_ns = 1_200_000.0;
    tls_record_ns_per_byte = 0.45;
    net_batch_bytes = 65536;
    enclave_transition_ns = 8_000.0;
    epc_limit_bytes = 96 * 1024 * 1024;
    epc_fault_ns = 40_000.0;
    sgx_mee_ns_per_byte = 0.30;
    world_switch_ns = 3_500.0;
    rpmb_access_ns = 180_000.0;
    decrypt_page_ns = 9_200.0;
    hmac_page_ns = 6_100.0;
    merkle_node_ns = 2_000.0;
    offload_session_ns = 600_000.0;
    wal_append_ns = 1_800.0;
    wal_flush_ns = 12_000.0;
    monitor_policy_ns = 2_500_000.0; (* the paper's interpreter is Python *)
    monitor_session_ns = 600_000.0;
    ias_roundtrip_ns = 140_000_000.0; (* paper Table 4: CAS response *)
    tz_attest_tee_ns = 453_000_000.0; (* paper Table 4: TEE quote gen *)
    tz_attest_ree_ns = 54_000_000.0;
    tz_attest_interconnect_ns = 42_000_000.0;
  }

(* The networking layer of §5 "can be configured as: NVMe/PCIe, NVMe
   over fabrics (NVMe-oF), or TCP" (the paper evaluates TLS over
   TCP/IP). Profiles adjust the transport characteristics; channel
   protection (record crypto) is kept in all of them. *)
type interconnect = Tls_tcp | Nvme_of | Pcie

let interconnect_name = function
  | Tls_tcp -> "TLS/TCP"
  | Nvme_of -> "NVMe-oF"
  | Pcie -> "NVMe/PCIe"

let with_interconnect profile t =
  match profile with
  | Tls_tcp -> t
  | Nvme_of ->
      {
        t with
        net_bandwidth_bytes_per_ns = 2.2;
        net_latency_ns = 15_000.0;
        tls_handshake_ns = 400_000.0;
      }
  | Pcie ->
      {
        t with
        net_bandwidth_bytes_per_ns = 7.0;
        net_latency_ns = 2_000.0;
        tls_handshake_ns = 150_000.0;
      }
