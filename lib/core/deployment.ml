(* A full IronSafe deployment: the simulated host (x86 + SGX) and
   storage server (ARM + TrustZone), the storage media (plain and
   secure variants of the same database, so all five Table-2
   configurations run over identical data), the trusted monitor, and
   the attestation wiring.

   The testbed defaults mirror §6.1: 10 host cores, 16 storage cores,
   96 MiB usable EPC. *)

module C = Ironsafe_crypto
module Sim = Ironsafe_sim
module Storage = Ironsafe_storage
module Sec = Ironsafe_securestore
module Tee = Ironsafe_tee
module Sql = Ironsafe_sql
module Monitor = Ironsafe_monitor
module Fault = Ironsafe_fault.Fault
module Wal = Ironsafe_wal

type t = {
  params : Sim.Params.t;
  host : Sim.Node.t;
  storage : Sim.Node.t;
  drbg : C.Drbg.t;
  (* storage media *)
  device_plain : Storage.Block_device.t;
  device_secure : Storage.Block_device.t;
  rpmb : Storage.Rpmb.t;
  mutable secure_store : Sec.Secure_store.t;
      (* mutable: {!reboot_secure} swaps in the freshly reopened store *)
  plain_db : Sql.Database.t;
  secure_db : Sql.Database.t;
  (* decrypted-page buffer pools in front of each medium's pager
     ([None] when [pool_frames] = 0: the pagers are not wrapped, and
     every page access reaches the backend) *)
  pool_frames : int;
  plain_pool : Sql.Bufpool.t option;
  secure_pool : Sql.Bufpool.t option;
  (* crash-safe write path ([None] when [wal] is off: the secure pager
     reads and writes the secure store directly) *)
  device_wal : Storage.Block_device.t option;
  txn_store : Wal.Txn_store.t option;
  (* TEEs *)
  ias : Tee.Sgx.ias;
  sgx : Tee.Sgx.platform;
  host_enclave : Tee.Sgx.enclave;
  tz_device : Tee.Trustzone.device;
  tz_booted : Tee.Trustzone.booted;
  host_image : Tee.Image.t;
  storage_nw_image : Tee.Image.t;
  (* the host engine's session keypair; the public half is embedded in
     its attestation quote and certified by the monitor (Fig. 4a) *)
  host_sk : C.Signature.secret_key;
  host_pk : C.Signature.public_key;
  (* control plane *)
  monitor : Monitor.Trusted_monitor.t;
  (* fault plan shared by every injection site (Fault.none when off) *)
  faults : Fault.t;
}

let host_engine_image ~version =
  Tee.Image.create ~name:"ironsafe-host-engine" ~version
    ~code:(Printf.sprintf "host-engine-binary-v%d" version)

let storage_engine_image ~version =
  Tee.Image.create ~name:"ironsafe-storage-engine" ~version
    ~code:(Printf.sprintf "storage-engine-binary-v%d" version)

let atf_image = Tee.Image.create ~name:"arm-trusted-firmware" ~version:1 ~code:"atf"

let optee_image =
  Tee.Image.create ~name:"optee-3.4+ironsafe-tas" ~version:1
    ~code:"optee secure world with attestation + secure storage TAs"

(* Copy every table of [src] into [dst] (identical rows, possibly
   different page packing). *)
let copy_database src dst =
  List.iter
    (fun name ->
      let hf = Sql.Catalog.find (Sql.Database.catalog src) name in
      let schema = Sql.Heap_file.schema hf in
      Sql.Database.create_table dst schema;
      let out = Sql.Catalog.find (Sql.Database.catalog dst) name in
      Sql.Heap_file.iter hf ~f:(fun row -> Sql.Heap_file.append out row);
      Sql.Heap_file.flush out)
    (Sql.Catalog.table_names (Sql.Database.catalog src))

(* -- one storage node: TEE, secure medium, attestation ----------------- *)

(* Manufacture a TrustZone device, sign the reference secure-world
   images onto it and boot it, measuring [normal_world]. *)
let boot_storage_tee ~who ~location ~device_id ~normal_world drbg =
  let tz = Tee.Trustzone.manufacture ~location ~device_id drbg in
  let secure_stages = [ atf_image; optee_image ] in
  Tee.Trustzone.provision tz secure_stages;
  match Tee.Trustzone.secure_boot tz ~secure_stages ~normal_world with
  | Ok booted -> (tz, booted)
  | Error e -> invalid_arg (who ^ ": secure boot failed: " ^ e)

type secure_medium = {
  device : Storage.Block_device.t;
  rpmb : Storage.Rpmb.t;
  store : Sec.Secure_store.t;
}

(* A fresh secure medium keyed to [tz]'s hardware key, sized for a
   database of [plain_pages] pages plus a quarter of headroom. *)
let provision_secure ~who ~plain_pages tz drbg =
  let data_pages = plain_pages + (plain_pages / 4) + 64 in
  let device =
    Storage.Block_device.create
      ~pages:(Sec.Secure_store.device_pages_for ~data_pages)
  in
  let rpmb = Storage.Rpmb.create () in
  match
    Sec.Secure_store.initialize ~device ~rpmb
      ~hardware_key:(Tee.Trustzone.hardware_key tz) ~data_pages ~drbg ()
  with
  | Ok store -> { device; rpmb; store }
  | Error e ->
      invalid_arg
        (Fmt.str "%s: secure store init failed: %a" who
           Sec.Secure_store.pp_error e)

let fault_medium faults m =
  Storage.Block_device.set_faults m.device faults;
  Storage.Rpmb.set_faults m.rpmb faults;
  Sec.Secure_store.set_faults m.store faults

let create ?(params = Sim.Params.default) ?(host_cores = 10)
    ?(storage_cores = 16) ?storage_mem_limit ?(host_version = 1)
    ?(storage_version = 1) ?(storage_location = "eu-west")
    ?(faults = Fault.none) ?(pool_frames = 0) ?(wal = false)
    ?(wal_window_ns = 0.0) ?(wal_log_pages = 512) ~seed ~populate () =
  let drbg = C.Drbg.create ~seed in
  let host =
    Sim.Node.create ~cores:host_cores ~params ~name:"host" Sim.Cpu.Host_x86
  in
  let storage =
    Sim.Node.create ~cores:storage_cores ?mem_limit:storage_mem_limit ~params
      ~name:"storage" Sim.Cpu.Storage_arm
  in
  (* 1. plain database on its own medium *)
  let pool base =
    if pool_frames > 0 then begin
      let p = Sql.Bufpool.create ~frames:pool_frames base in
      (Some p, Sql.Bufpool.pager p)
    end
    else (None, base)
  in
  let plain_pool, plain_pager = pool (Sql.Pager.in_memory ()) in
  let plain_db = Sql.Database.create ~pager:plain_pager in
  populate plain_db;
  let plain_pages = Sql.Catalog.total_pages (Sql.Database.catalog plain_db) in
  (* the plain DB also lives on a raw device for hons (NFS) accounting;
     an in-memory pager suffices since we only count logical pages *)
  let device_plain = Storage.Block_device.create ~pages:(max 8 plain_pages) in
  (* 2. secure database: TrustZone device, RPMB, secure store *)
  let who = "Deployment.create" in
  let storage_nw_image = storage_engine_image ~version:storage_version in
  let tz_device, tz_booted =
    boot_storage_tee ~who ~location:storage_location
      ~device_id:"clearfog-cx-lx2k-0001" ~normal_world:storage_nw_image drbg
  in
  let medium = provision_secure ~who ~plain_pages tz_device drbg in
  let device_secure = medium.device and rpmb = medium.rpmb in
  let secure_store = medium.store in
  (* Crash-safe write path: a WAL on its own device plus the
     transactional overlay; the secure pager then routes through the
     overlay so DML is logged and SELECTs can pin snapshots. Off (the
     default) the pager sits directly on the secure store. *)
  let device_wal, txn_store, secure_pool, secure_pager =
    if not wal then begin
      let secure_pool, secure_pager = pool (Sql.Pager.secure secure_store) in
      (None, None, secure_pool, secure_pager)
    end
    else begin
      let dw = Storage.Block_device.create ~pages:wal_log_pages in
      let w =
        match
          Wal.Wal.create ~device:dw ~rpmb
            ~hardware_key:(Tee.Trustzone.hardware_key tz_device)
            ~drbg ()
        with
        | Ok w -> w
        | Error e ->
            invalid_arg
              (Fmt.str "Deployment.create: wal init failed: %a" Wal.Wal.pp_error
                 e)
      in
      let ts =
        Wal.Txn_store.attach ~store:secure_store ~wal:w ~device:device_secure
          ~window_ns:wal_window_ns ()
      in
      (* the base pager dereferences the overlay's current store, so a
         post-crash reopen is transparent to the SQL layer above *)
      let next = ref 0 in
      let store_err e =
        raise
          (Sql.Pager.Integrity_failure
             (Fmt.str "%a" Sec.Secure_store.pp_error e))
      in
      let base_pager =
        Sql.Pager.make ~capacity:Sec.Secure_store.capacity
          ~read:(fun i ->
            match Sec.Secure_store.read_page (Wal.Txn_store.store ts) i with
            | Ok d -> d
            | Error e -> store_err e)
          ~write:(fun i data ->
            match Sec.Secure_store.write_page (Wal.Txn_store.store ts) i data
            with
            | Ok () -> ()
            | Error e -> store_err e)
          ~allocate:(fun () ->
            let i = !next in
            incr next;
            i)
          ~page_count:(fun () -> !next)
          ()
      in
      (* pool (when present) caches decrypted base pages below the
         overlay; versioned reads never pollute the cache *)
      let secure_pool, base_access = pool base_pager in
      Wal.Txn_store.route_base ts
        ~read:(Sql.Pager.read base_access)
        ~write:(Sql.Pager.write base_access)
        ~flush:(fun () -> Sql.Pager.flush base_access)
        ~cached:(Sql.Pager.cached base_access);
      let overlay_pager =
        Sql.Pager.make ~capacity:Sec.Secure_store.capacity
          ~read:(Wal.Txn_store.pager_read ts)
          ~write:(Wal.Txn_store.pager_write ts)
          ~allocate:(fun () -> Sql.Pager.allocate base_access)
          ~page_count:(fun () -> Sql.Pager.page_count base_access)
          ~cached:(Wal.Txn_store.pager_cached ts)
          ()
      in
      (Some dw, Some ts, secure_pool, overlay_pager)
    end
  in
  let secure_db = Sql.Database.create ~pager:secure_pager in
  copy_database plain_db secure_db;
  (* drain the pools before fault wiring so every setup write reaches
     the media cleanly, and drop the frames so workloads start cold *)
  Option.iter Sql.Bufpool.clear plain_pool;
  Option.iter Sql.Bufpool.clear secure_pool;
  Option.iter Sql.Bufpool.reset_stats plain_pool;
  Option.iter Sql.Bufpool.reset_stats secure_pool;
  Sec.Secure_store.reset_stats secure_store;
  Storage.Block_device.reset_counters device_secure;
  (* population ran in pass-through mode; from here on, writes to the
     secure medium are logged and versioned *)
  Option.iter
    (fun ts ->
      Wal.Txn_store.set_clock ts (fun () ->
          Float.max (Sim.Node.now host) (Sim.Node.now storage));
      Wal.Txn_store.engage ts)
    txn_store;
  (* 3. SGX host *)
  let ias = Tee.Sgx.create_ias () in
  let sgx =
    Tee.Sgx.create_platform ~epc_limit:params.Sim.Params.epc_limit_bytes ~ias
      drbg
  in
  let host_image = host_engine_image ~version:host_version in
  let host_enclave = Tee.Sgx.launch sgx host_image in
  let host_sk, host_pk = C.Signature.generate drbg in
  (* 4. monitor: trust the deployed software, nothing else *)
  let monitor = Monitor.Trusted_monitor.create ~ias ~seed:(seed ^ "|monitor") in
  Monitor.Trusted_monitor.trust_host_image monitor host_image;
  Monitor.Trusted_monitor.trust_storage_device monitor
    ~device_id:(Tee.Trustzone.device_id tz_device)
    ~rotpk:(Tee.Trustzone.rotpk tz_device)
    ~normal_world:storage_nw_image ~version:storage_version;
  (* Wire the fault plan only after population: setup writes are always
     clean, faults hit the workload. Only the secure medium is faulted;
     the plain replica stays pristine so hons doubles as a fault-free
     oracle for the same deployment. *)
  if Fault.enabled faults then begin
    Fault.set_clock faults (fun () ->
        Float.max (Sim.Node.now host) (Sim.Node.now storage));
    fault_medium faults medium;
    Option.iter (fun ts -> Wal.Txn_store.set_faults ts faults) txn_store
  end;
  {
    params;
    host;
    storage;
    drbg;
    device_plain;
    device_secure;
    rpmb;
    secure_store;
    plain_db;
    secure_db;
    pool_frames;
    plain_pool;
    secure_pool;
    device_wal;
    txn_store;
    ias;
    sgx;
    host_enclave;
    tz_device;
    tz_booted;
    host_image;
    storage_nw_image;
    host_sk;
    host_pk;
    monitor;
    faults;
  }

let faults t = t.faults
let exec_mode _ = Sql.Exec.Row_at_a_time
let wal_enabled t = t.txn_store <> None
let txn_store t = t.txn_store

(* Crash-and-reboot of the secure medium: drop every volatile layer
   (pool frames vanish with power — no write-back), reopen the store
   and the WAL from the persistent media, and redo the committed log
   into the base store.

   The reopened WAL draws a fresh boot salt while [Txn_store.adopt]
   bumps the log epoch, so no post-recovery record encryption reuses a
   pre-crash CTR nonce, even at the same (epoch, LSN) coordinates.
   Pages need no such reset: every page write draws a fresh random CBC
   IV. *)
let reboot_secure t =
  match (t.txn_store, t.device_wal) with
  | Some ts, Some dw -> (
      Option.iter Sql.Bufpool.invalidate t.secure_pool;
      let hardware_key = Tee.Trustzone.hardware_key t.tz_device in
      match
        Sec.Secure_store.open_existing ~device:t.device_secure ~rpmb:t.rpmb
          ~hardware_key
          ~data_pages:(Sec.Secure_store.data_page_count t.secure_store)
          ~drbg:t.drbg ()
      with
      | Error e ->
          Error (Fmt.str "secure store: %a" Sec.Secure_store.pp_error e)
      | Ok store -> (
          if Fault.enabled t.faults then
            Sec.Secure_store.set_faults store t.faults;
          match
            Wal.Wal.recover ~device:dw ~rpmb:t.rpmb ~hardware_key ~drbg:t.drbg
              ()
          with
          | Error e -> Error (Fmt.str "wal: %a" Wal.Wal.pp_error e)
          | Ok (w, records) -> (
              t.secure_store <- store;
              match Wal.Txn_store.adopt ts ~store ~wal:w ~records with
              | Ok () ->
                  (* the SQL layer survives the swap, but its volatile
                     heap cursors and indexes may still carry rows
                     whose commit was lost — re-anchor on the
                     recovered pages *)
                  Sql.Database.reload_storage t.secure_db;
                  Ok ()
              | Error e -> Error (Fmt.str "%a" Wal.Txn_store.pp_error e))))
  | _ -> Error "Deployment.reboot_secure: deployment has no WAL"

(* Fault injection on the host quote: a fired [Sgx_quote_reject] flips
   a bit of the quote signature so IAS verification fails once. *)
let corrupt_quote faults (q : Tee.Sgx.quote) =
  let sg = Bytes.of_string q.Tee.Sgx.signature in
  let off = Fault.rand_int faults (Bytes.length sg) in
  Bytes.set sg off (Char.chr (Char.code (Bytes.get sg off) lxor 0x01));
  { q with Tee.Sgx.signature = Bytes.to_string sg }

(* Fig. 4b for one storage node: the monitor challenges the node's
   attestation TA and checks the signed boot chain and normal world. *)
let attest_storage_node ?shard ~faults ~location monitor node booted =
  match
    Sim.Node.with_span node ~name:"attest.storage" (fun () ->
        let challenge = Monitor.Trusted_monitor.fresh_challenge monitor in
        let response = Tee.Trustzone.attest ~faults booted ~challenge in
        Monitor.Trusted_monitor.attest_storage ?shard monitor ~challenge
          ~response ~location)
  with
  | Error e -> Error e
  | Ok _ -> Ok ()

(* Run both attestation protocols (Fig. 4a, 4b); returns an error if
   either node fails verification. *)
let attest ?(host_location = "eu-west") ?(storage_location = "eu-west") t =
  (* the quote binds the host engine's session public key (Fig. 4a) *)
  match
    Sim.Node.with_span t.host ~name:"attest.host" (fun () ->
        let report = C.Signature.public_key_bytes t.host_pk in
        let quote = Tee.Sgx.generate_quote t.host_enclave ~report_data:report in
        let quote =
          if
            Fault.enabled t.faults
            && Fault.fire t.faults Fault.Sgx_quote_reject
          then corrupt_quote t.faults quote
          else quote
        in
        Monitor.Trusted_monitor.attest_host t.monitor ~quote
          ~location:host_location)
  with
  | Error e -> Error e
  | Ok _ ->
      if Fault.enabled t.faults && Fault.fire t.faults Fault.Tz_world_switch
      then Error "storage: secure world switch failed"
      else
        attest_storage_node ~faults:t.faults ~location:storage_location
          t.monitor t.storage t.tz_booted

(* Recovery: re-run [attest] with bounded exponential backoff, charged
   to the host, the storage node and every node in [also]. Each retry is
   a full re-attestation (fresh challenge, fresh quote), so a
   transiently-faulted TEE re-joins the trusted set; a persistently
   failing one exhausts the budget and stays rejected. *)
let retry_attestation ?(max_attempts = 5) ?(also = []) t attest =
  let mark = Fault.incident_count t.faults in
  let rec attempt n =
    match attest () with
    | Ok () ->
        if n > 0 then Fault.note_recovered_since t.faults mark;
        Ok ()
    | Error e when Fault.enabled t.faults && n + 1 < max_attempts ->
        ignore e;
        Fault.note_retry t.faults ~action:"attest";
        Fault.note_reattestation t.faults;
        let wait =
          Fault.backoff_ns ~base_ns:t.params.Sim.Params.net_latency_ns
            ~attempt:n
        in
        List.iter
          (fun node -> Sim.Node.fixed node ~category:"recovery" wait)
          (t.host :: t.storage :: also);
        attempt (n + 1)
    | Error e ->
        Fault.note_rejected t.faults;
        Error e
  in
  attempt 0

let attest_reliable ?host_location ?storage_location ?max_attempts t =
  retry_attestation ?max_attempts t (fun () ->
      attest ?host_location ?storage_location t)

(* Bytes the secure pool occupies when fully populated — charged
   against EPC residency where the decrypted cache lives inside the
   host enclave (hos). Zero without a pool. *)
let pool_bytes t =
  match t.secure_pool with
  | Some p -> Sql.Bufpool.capacity_bytes p
  | None -> 0

let reset_counters t =
  (* write back and drop pool frames first (the write-backs bump media
     counters, which the resets below then zero), so each measured run
     starts from a cold, clean cache *)
  Option.iter Sql.Bufpool.clear t.plain_pool;
  Option.iter Sql.Bufpool.clear t.secure_pool;
  Option.iter Sql.Bufpool.reset_stats t.plain_pool;
  Option.iter Sql.Bufpool.reset_stats t.secure_pool;
  (* keep the observability timeline monotonic across the clock reset *)
  Ironsafe_obs.Obs.new_epoch ();
  Sim.Node.reset t.host;
  Sim.Node.reset t.storage;
  Sec.Secure_store.reset_stats t.secure_store;
  Storage.Block_device.reset_counters t.device_secure;
  Storage.Block_device.reset_counters t.device_plain;
  Tee.Sgx.reset_counters t.host_enclave;
  Tee.Trustzone.reset_counters t.tz_device

(* Functional copy with different node shapes (core-count and
   memory-limit sweeps reuse the loaded databases). *)
let with_nodes ?(host_cores = 10) ?(storage_cores = 16) ?storage_mem_limit t =
  {
    t with
    host =
      Sim.Node.create ~cores:host_cores ~params:t.params ~name:"host"
        Sim.Cpu.Host_x86;
    storage =
      Sim.Node.create ~cores:storage_cores ?mem_limit:storage_mem_limit
        ~params:t.params ~name:"storage" Sim.Cpu.Storage_arm;
  }
