(* Executes a query under one of the five Table-2 configurations,
   really running it on the real engine over the real (plain or
   secure) storage backend, and charging the simulated clocks from the
   measured operation counts: rows processed, pages touched, crypto
   operations, bytes shipped, enclave transitions, EPC pressure.

   Cost categories (these are the Fig. 8 / Fig. 9c series):
     ndp         query compute (row-operator work)
     io          storage-medium page reads
     network     serialization + transfer (+ TLS record crypto)
     decryption  per-page AES
     freshness   per-page HMAC + Merkle path + RPMB anchoring
     enclave     SGX transition costs
     epc         SGX EPC paging
     spill       memory-limit thrashing on the storage node *)

module C = Ironsafe_crypto
module Sim = Ironsafe_sim
module Sec = Ironsafe_securestore
module Tee = Ironsafe_tee
module Sql = Ironsafe_sql
module Obs = Ironsafe_obs.Obs
module OSpan = Ironsafe_obs.Span
module Ev = Ironsafe_obs.Event_log
module Fault = Ironsafe_fault.Fault

type metrics = {
  config : Config.t;
  end_to_end_ns : float;
  host_breakdown : (string * float) list;
  storage_breakdown : (string * float) list;
  bytes_shipped : int;
  pages_scanned : int;
  page_hits : int;
      (** buffer-pool hits: page reads served from the decrypted-page
          cache, skipping I/O and (on the secure medium) crypto *)
  host_rows : int;
  storage_rows : int;
  affected : int;
  result : Sql.Exec.result;
  profile : Obs.profile option;
      (** span tree + metrics snapshot, when tracing was enabled *)
}

let total breakdown = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 breakdown

(* -- helpers ---------------------------------------------------------- *)

let with_counters db f =
  let obs, c = Sql.Observer.counting () in
  Sql.Database.set_observer db obs;
  Fun.protect
    ~finally:(fun () -> Sql.Database.set_observer db Sql.Observer.null)
    (fun () ->
      let r = f () in
      (r, c))

(* Run [stmt] whole on [db] under a counting observer: a query yields
   its rows, a DML statement its affected-row count. *)
let exec_whole db stmt =
  with_counters db (fun () ->
      match Sql.Database.exec_ast db stmt with
      | Sql.Database.Result r -> (r, 0)
      | Sql.Database.Affected n -> ({ Sql.Exec.columns = []; rows = [] }, n)
      | Sql.Database.Created _ | Sql.Database.Dropped _ ->
          ({ Sql.Exec.columns = []; rows = [] }, 0))

let snapshot_secure_stats store =
  let s = Sec.Secure_store.stats store in
  ( s.Sec.Secure_store.page_decrypts,
    s.Sec.Secure_store.page_mac_checks,
    s.Sec.Secure_store.merkle_hashes,
    s.Sec.Secure_store.rpmb_accesses )

(* Charge decryption/freshness for secure-store operations to [node].
   [parallel] models the secure-storage layer verifying pages on a
   thread pool (split configs); a single engine instance (sos) does
   its page crypto inline on one core. Each page is one CBC chain, so
   its decrypt is charged whole to one core. *)
let charge_crypto ?(parallel = true) node (params : Sim.Params.t) ~decrypts
    ~macs ~merkle ~rpmb =
  Sim.Node.with_span node ~name:"crypto"
    ~attrs:[ ("decrypts", string_of_int decrypts) ]
    (fun () ->
      let dec = float_of_int decrypts *. params.decrypt_page_ns in
      let fresh =
        (float_of_int macs *. params.hmac_page_ns)
        +. (float_of_int merkle *. params.merkle_node_ns)
        +. (float_of_int rpmb *. params.rpmb_access_ns)
      in
      if parallel then begin
        Sim.Node.fixed_parallel node ~category:"decryption" dec;
        Sim.Node.fixed_parallel node ~category:"freshness" fresh
      end
      else begin
        Sim.Node.fixed node ~category:"decryption" dec;
        Sim.Node.fixed node ~category:"freshness" fresh
      end)

(* Charge a bulk transfer between the two nodes and synchronize their
   clocks (blocking request/response round). *)
let charge_transfer (params : Sim.Params.t) a b ~secure ~bytes ~messages =
  Obs.count ~scope:"net" ~n:messages "messages";
  Obs.count ~scope:"net" ~n:bytes "bytes_shipped";
  Sim.Node.with_span a ~name:"net.transfer"
    ~attrs:[ ("bytes", string_of_int bytes) ]
    (fun () ->
      let fbytes = float_of_int bytes in
      let per_end =
        if secure then fbytes *. params.tls_record_ns_per_byte
        else fbytes *. 0.05 (* plain serialization cost *)
      in
      Sim.Node.charge a ~category:"network" per_end;
      Sim.Node.charge b ~category:"network" per_end;
      Sim.Clock.sync (Sim.Node.clock a) (Sim.Node.clock b)
        ((float_of_int messages *. params.net_latency_ns)
        +. (fbytes /. params.net_bandwidth_bytes_per_ns)))

let charge_io node (params : Sim.Params.t) pages =
  Sim.Node.with_span node ~name:"storage.io"
    ~attrs:[ ("pages", string_of_int pages) ]
    (fun () ->
      Sim.Node.charge node ~category:"io"
        (float_of_int pages *. params.nvme_page_ns))

(* Buffer-pool hits: the page is already decrypted and resident, so
   instead of device + crypto cost the engine pays one in-memory cache
   probe per access. A run without hits (no pool) emits no span. *)
let charge_cache_hits node (params : Sim.Params.t) hits =
  if hits > 0 then
    Sim.Node.with_span node ~name:"bufpool.hits"
      ~attrs:[ ("hits", string_of_int hits) ]
      (fun () ->
        Sim.Node.charge node ~category:"io"
          (float_of_int hits *. params.page_cache_ns))

let charge_compute node ~rows =
  Sim.Node.with_span node ~name:"compute"
    ~attrs:[ ("rows", string_of_int rows) ]
    (fun () -> Sim.Node.compute node ~category:"ndp" ~row_ops:rows)

let charge_memory node ~category bytes =
  Sim.Node.allocate node ~category bytes;
  Sim.Node.release node bytes

let charge_enclave_transitions node (params : Sim.Params.t) n =
  Obs.count ~scope:"sgx" ~n "transitions";
  Sim.Node.with_span node ~name:"enclave.transitions"
    ~attrs:[ ("count", string_of_int n) ]
    (fun () ->
      Sim.Node.charge node ~category:"enclave"
        (float_of_int n *. params.enclave_transition_ns))

(* EPC pressure: once the enclave working set exceeds the usable EPC,
   a fraction of every further page access refaults (the resident set
   is capped, so accesses to the overflow fraction page in and out).
   [accesses] is the number of enclave page touches the workload makes
   (page fetches plus Merkle-tree node visits). *)
let charge_epc node enclave (params : Sim.Params.t) ~working_set ~accesses =
  ignore (Tee.Sgx.touch enclave working_set);
  let limit = float_of_int params.epc_limit_bytes in
  let ws = float_of_int working_set in
  if ws > limit then begin
    let fault_rate = (ws -. limit) /. ws in
    Sim.Node.with_span node ~name:"epc.paging"
      ~attrs:[ ("working_set", string_of_int working_set) ]
      (fun () ->
        Sim.Node.charge node ~category:"epc"
          (fault_rate *. float_of_int accesses *. params.epc_fault_ns))
  end

(* Merkle tree footprint the host must keep in enclave memory when it
   verifies freshness itself (hos): two 32-byte tags per leaf. *)
let merkle_bytes store = 64 * Sec.Secure_store.data_page_count store

(* Crash-safe write path glue for the secure configurations: tick the
   group-commit daemon on the virtual clock, pin a snapshot around
   SELECTs (readers see a consistent commit LSN while writers proceed),
   commit the implicit transaction after DML, and charge the WAL work
   this statement accrued to the storage node (the log device and RPMB
   live there). *)
let exec_wal d ts ~stmt f =
  let module W = Ironsafe_wal in
  let params = d.Deployment.params in
  let storage = d.Deployment.storage in
  let wal_err e =
    raise (Sql.Pager.Integrity_failure (Fmt.str "%a" W.Txn_store.pp_error e))
  in
  let wal_counts () =
    let s = W.Wal.stats (W.Txn_store.wal ts) in
    (s.W.Wal.appends, s.W.Wal.flushes, s.W.Wal.anchors)
  in
  let a0, f0, n0 = wal_counts () in
  (match W.Txn_store.tick ts with Ok () -> () | Error e -> wal_err e);
  let result =
    match stmt with
    | Sql.Ast.Select _ -> W.Txn_store.with_snapshot ts (fun _ -> f ())
    | _ ->
        let r = f () in
        (match W.Txn_store.commit_current ts with
        | Ok _ -> ()
        | Error e -> wal_err e);
        r
  in
  let a1, f1, n1 = wal_counts () in
  let appends = a1 - a0 and flushes = f1 - f0 and anchors = n1 - n0 in
  if appends + flushes + anchors > 0 then
    Sim.Node.with_span storage ~name:"wal"
      ~attrs:
        [
          ("appends", string_of_int appends);
          ("flushes", string_of_int flushes);
        ]
      (fun () ->
        Sim.Node.charge storage ~category:"wal"
          ((float_of_int appends *. params.Sim.Params.wal_append_ns)
          +. (float_of_int flushes *. params.Sim.Params.wal_flush_ns)
          +. (float_of_int anchors *. params.Sim.Params.rpmb_access_ns)));
  result

let message_count (params : Sim.Params.t) bytes =
  max 1 ((bytes + params.net_batch_bytes - 1) / params.net_batch_bytes)

(* Storage-side work of a query, wrapped in a [storage.exec] span on
   the storage lane and linked to the host's open query span by a flow
   arrow in each direction (request out, reply back), so the exported
   Chrome trace shows the host and SCS halves of one split query joined
   into a single causal tree. Spans and flows never gate or reorder the
   charges themselves: with tracing off every helper below reduces to
   [f ()] and cost accounting is bit-identical. *)
let with_offload host storage f =
  let hclk () = Sim.Node.now host in
  let sclk () = Sim.Node.now storage in
  let hscope = Sim.Node.name host and sscope = Sim.Node.name storage in
  let req = OSpan.flow_out ~clock:hclk ~name:"offload" ~scope:hscope () in
  let reply = ref 0 in
  let result =
    OSpan.with_ ~name:"storage.exec" ~scope:sscope ~clock:sclk
      ~attrs:(Obs.trace_attrs ())
      (fun () ->
        OSpan.flow_in ~clock:sclk ~name:"offload" ~scope:sscope req;
        let r = f () in
        reply := OSpan.flow_out ~clock:sclk ~name:"reply" ~scope:sscope ();
        r)
  in
  OSpan.flow_in ~clock:hclk ~name:"reply" ~scope:hscope !reply;
  result

(* -- split execution -------------------------------------------------- *)

(* Partition the statement, run the offloaded portion on the storage
   engine over [src_db], ship the results, and run the host portion.
   Returns everything needed for charging. *)
let run_split ?project ~src_db stmt =
  let catalog = Sql.Database.catalog src_db in
  let plan = Partitioner.split ?project catalog stmt in
  let offload = Storage_engine.run_offload src_db plan in
  let host = Host_engine.run_host ~storage_catalog:catalog plan offload in
  ( plan,
    offload.Storage_engine.counters,
    host.Host_engine.counters,
    host.Host_engine.result,
    offload.Storage_engine.bytes_shipped )

(* JSONL record of a split decision: which config, how many subqueries
   went near the data, which tables shipped. *)
let note_split config (plan : Partitioner.plan) =
  if Obs.enabled () then
    Obs.event ~scope:"core" ~kind:"plan.split"
      [
        ("config", Ev.S (Config.abbrev config));
        ("offload_stmts", Ev.I (List.length plan.Partitioner.offload_sql));
        ( "tables",
          Ev.S
            (String.concat ","
               (List.map fst plan.Partitioner.offload_sql)) );
      ]

(* -- one node's share of a query -------------------------------------- *)

let storage_share d config ~storage ~store ~sessions ~shipped
    (c : Sql.Observer.counters) =
  let params = d.Deployment.params and host = d.Deployment.host in
  let pages = c.Sql.Observer.page_reads and hits = c.Sql.Observer.page_hits in
  let crypto ?parallel node =
    let decrypts, macs, merkle, rpmb = snapshot_secure_stats store in
    charge_crypto ?parallel node params ~decrypts ~macs ~merkle ~rpmb
  in
  let offload_sessions () =
    Sim.Node.charge storage ~category:"other"
      (float_of_int sessions *. params.Sim.Params.offload_session_ns)
  in
  let ship ~secure ~bytes ~messages =
    charge_transfer params storage host ~secure ~bytes ~messages;
    (bytes, messages)
  in
  match config with
  | Config.Hons | Config.Hos ->
      (* every page crosses the network (encrypted under hos); hits are
         served from the host-side cache: no device read, no transfer *)
      let secure = config = Config.Hos in
      let bytes = pages * params.Sim.Params.page_size in
      let shipped =
        with_offload host storage (fun () ->
            charge_io storage params pages;
            charge_cache_hits host params hits;
            ship ~secure ~bytes ~messages:(message_count params bytes))
      in
      (* hos: decryption and freshness happen inside the host enclave *)
      if secure then crypto host;
      shipped
  | Config.Vcs ->
      with_offload host storage (fun () ->
          charge_io storage params pages;
          charge_cache_hits storage params hits;
          offload_sessions ();
          charge_compute storage ~rows:c.Sql.Observer.rows;
          charge_memory storage ~category:"spill" c.Sql.Observer.bytes_allocated;
          ship ~secure:false ~bytes:shipped
            ~messages:(message_count params shipped))
  | Config.Scs ->
      with_offload host storage (fun () ->
          offload_sessions ();
          charge_io storage params pages;
          charge_cache_hits storage params hits;
          (* storage-side decryption + freshness (near the data) *)
          crypto storage;
          charge_compute storage ~rows:c.Sql.Observer.rows;
          charge_memory storage ~category:"spill" c.Sql.Observer.bytes_allocated;
          ship ~secure:true ~bytes:shipped
            ~messages:(message_count params shipped))
  | Config.Sos ->
      with_offload host storage (fun () ->
          charge_io storage params pages;
          charge_cache_hits storage params hits;
          (* one engine instance: inline crypto and compute on one core *)
          crypto ~parallel:false storage;
          Sim.Node.compute_serial storage ~category:"ndp"
            ~row_ops:c.Sql.Observer.rows;
          charge_memory storage ~category:"spill" c.Sql.Observer.bytes_allocated;
          (* only the final result crosses the network *)
          ship ~secure:true ~bytes:shipped ~messages:1)

let host_share d config ~rows ~pages ~messages ~working_set =
  let params = d.Deployment.params and host = d.Deployment.host in
  let enclave = d.Deployment.host_enclave in
  charge_compute host ~rows;
  match config with
  | Config.Hos ->
      (* one ocall/ecall pair per page fetch *)
      charge_enclave_transitions host params (2 * pages);
      charge_epc host enclave params ~working_set ~accesses:(3 * pages)
  | Config.Scs ->
      (* enclave entered once per arriving message batch *)
      charge_enclave_transitions host params (2 * messages);
      charge_epc host enclave params ~working_set ~accesses:messages
  | Config.Hons | Config.Vcs | Config.Sos -> ()

(* The query root span's virtual duration is [end_to_end_ns]: it opens
   at (reset) time zero on the host clock — after any pre-flight
   recovery charge, which [end_to_end_ns] includes — and closes after
   the run's final clock sync. [begin_query] runs first: it allocates the
   trace context the root span (and every wire message sent meanwhile)
   carries, decides sampling, and snapshots the metrics registry so the
   captured profile reports this query's interval rather than the
   cumulative registry. *)
let with_query ?(attrs = []) d config run =
  let tok = Obs.begin_query () in
  let m =
    Sim.Node.with_span d.Deployment.host ~name:"query"
      ~attrs:((("config", Config.abbrev config) :: attrs) @ Obs.trace_attrs ())
      run
  in
  if Obs.enabled () then
    Obs.event ~scope:"core" ~kind:"query.done"
      [
        ("config", Ev.S (Config.abbrev config));
        ("end_to_end_ns", Ev.F m.end_to_end_ns);
        ("bytes_shipped", Ev.I m.bytes_shipped);
        ("pages", Ev.I m.pages_scanned);
        ("rows", Ev.I (List.length m.result.Sql.Exec.rows));
      ];
  match Obs.finish_query tok with
  | Some p -> { m with profile = Some p }
  | None -> m

(* -- per-configuration runners ---------------------------------------- *)

let run_stmt ?(reset = true) ?project deploy config stmt =
  let d = deploy in
  if reset then Deployment.reset_counters d;
  let host = d.Deployment.host and storage = d.Deployment.storage in
  let store = d.Deployment.secure_store in
  let db =
    match config with
    | Config.Hons | Config.Vcs -> d.Deployment.plain_db
    | Config.Hos | Config.Scs | Config.Sos -> d.Deployment.secure_db
  in
  let share = storage_share d config ~storage ~store in
  let finish ?(affected = 0) ~result ~bytes_shipped ~host_rows ~storage_rows
      (c : Sql.Observer.counters) =
    (* result shipping back to the client is charged to the host side *)
    Sim.Clock.sync (Sim.Node.clock host) (Sim.Node.clock storage) 0.0;
    {
      config;
      end_to_end_ns = Sim.Node.now host;
      host_breakdown = Sim.Trace.breakdown (Sim.Node.trace host);
      storage_breakdown = Sim.Trace.breakdown (Sim.Node.trace storage);
      bytes_shipped;
      pages_scanned = c.Sql.Observer.page_reads;
      page_hits = c.Sql.Observer.page_hits;
      host_rows;
      storage_rows;
      affected;
      result;
      profile = None;
    }
  in
  let exec () =
    match config with
    | Config.Hons | Config.Hos ->
        (* everything on the host over NFS; under hos the host enclave
           keeps the Merkle tree (and the pool's plaintext) in EPC *)
        let (result, affected), c = exec_whole db stmt in
        let bytes, messages = share ~sessions:0 ~shipped:0 c in
        let rows = c.Sql.Observer.rows in
        host_share d config ~rows ~pages:c.Sql.Observer.page_reads
          ~messages
          ~working_set:
            (c.Sql.Observer.bytes_allocated + merkle_bytes store
           + Deployment.pool_bytes d);
        finish ~result ~affected ~bytes_shipped:bytes ~host_rows:rows
          ~storage_rows:0 c
    | Config.Vcs | Config.Scs ->
        let plan, sc, hc, result, shipped = run_split ?project ~src_db:db stmt in
        note_split config plan;
        let bytes, messages =
          share ~sessions:(List.length plan.Partitioner.offload_sql) ~shipped sc
        in
        host_share d config ~rows:hc.Sql.Observer.rows
          ~pages:sc.Sql.Observer.page_reads ~messages
          ~working_set:hc.Sql.Observer.bytes_allocated;
        finish ~result ~bytes_shipped:bytes ~host_rows:hc.Sql.Observer.rows
          ~storage_rows:sc.Sql.Observer.rows sc
    | Config.Sos ->
        (* whole query on the storage node: the host only receives the
           result *)
        let (result, affected), c = exec_whole db stmt in
        let shipped =
          List.fold_left
            (fun acc row -> acc + Sql.Row.encoded_size row)
            0 result.Sql.Exec.rows
        in
        let bytes, _ = share ~sessions:0 ~shipped c in
        finish ~result ~affected ~bytes_shipped:bytes ~host_rows:0
          ~storage_rows:c.Sql.Observer.rows c
  in
  (* route secure-config statements through the transactional overlay
     when the deployment carries a WAL (no-op wrapper otherwise) *)
  let exec =
    match d.Deployment.txn_store with
    | Some ts
      when match config with
           | Config.Hos | Config.Scs | Config.Sos -> true
           | Config.Hons | Config.Vcs -> false ->
        fun () -> exec_wal d ts ~stmt exec
    | _ -> exec
  in
  with_query d config exec

let run_query deploy config sql = run_stmt deploy config (Sql.Parser.parse sql)

(* -- fault-aware execution -------------------------------------------- *)

type violation = { v_site : string; v_detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "%s: %s" v.v_site v.v_detail

type outcome =
  | Ok of metrics
  | Degraded of metrics * Fault.incident list
  | Rejected of violation
  | Crashed of violation
      (* a WAL crash fault fired mid-statement: the statement did not
         complete and the deployment needs [Deployment.reboot_secure] *)

(* Which configs involve which TEEs: SGX faults only matter where the
   host enclave is on the query path, TrustZone ones where the secure
   world (secure store TA) is. *)
let uses_host_enclave = function
  | Config.Hos | Config.Scs -> true
  | Config.Hons | Config.Vcs | Config.Sos -> false

let uses_secure_world = function
  | Config.Hos | Config.Scs | Config.Sos -> true
  | Config.Hons | Config.Vcs -> false

let violation_of_faults faults ~default ~detail =
  let v_site =
    match Fault.last_unrecovered faults with
    | Some inc -> Fault.site_name inc.Fault.inc_site
    | None -> default
  in
  { v_site; v_detail = detail }

(* Pre-flight TEE fault injection + recovery. The enclave/secure-world
   failures the plan schedules strike between queries (an AEX, a failed
   world switch); the recovery layer restarts, re-attests and charges
   the recovery time before the query proper runs. A failed world
   switch is retried on [storage], the node whose secure world the
   query enters. Returns a rejection when re-attestation cannot restore
   trust.

   A pre-flight recovery is a stall: the query cannot start on any node
   until it ends. So once something fired, every node the query runs
   on ([peers], which include [storage]) waits for the host, and the
   host for them; the query's own work then adds to the stall instead
   of hiding under it. *)
let preflight d config ~storage ~peers =
  let faults = Deployment.faults d in
  let mark = Fault.incident_count faults in
  let params = d.Deployment.params in
  let reject site detail =
    Fault.note_rejected faults;
    Some { v_site = site; v_detail = detail }
  in
  let aborted_enclave () =
    Tee.Sgx.inject_abort d.Deployment.host_enclave;
    Tee.Sgx.restart d.Deployment.host_enclave;
    (* restart loses all session state: the monitor must re-attest *)
    Sim.Node.fixed d.Deployment.host ~category:"recovery"
      (100.0 *. params.Sim.Params.enclave_transition_ns);
    Fault.note_retry faults ~action:"enclave.restart";
    Fault.note_reattestation faults;
    match Deployment.attest_reliable d with
    | Stdlib.Ok () ->
        Fault.note_recovered_since faults mark;
        None
    | Stdlib.Error e -> reject "sgx.abort" ("re-attestation failed: " ^ e)
  in
  let stall_until_recovered () =
    let nodes = d.Deployment.host :: peers in
    let until = List.fold_left (fun m n -> Float.max m (Sim.Node.now n)) 0.0 nodes in
    List.iter
      (fun n -> Sim.Clock.advance (Sim.Node.clock n) (until -. Sim.Node.now n))
      nodes
  in
  if not (Fault.enabled faults) then None
  else begin
    let rejection =
      if uses_host_enclave config && Fault.fire faults Fault.Sgx_abort then
        aborted_enclave ()
      else None
    in
    match rejection with
    | Some _ -> rejection
    | None ->
        if uses_host_enclave config && Fault.fire faults Fault.Sgx_epc_storm
        then begin
          (* paging storm: a burst of refaults slows the query but needs
             no retry — absorbed as degradation *)
          Sim.Node.fixed d.Deployment.host ~category:"epc"
            (4096.0 *. params.Sim.Params.epc_fault_ns);
          Fault.note_recovered_since faults mark
        end;
        if uses_secure_world config && Fault.fire faults Fault.Tz_world_switch
        then begin
          (* the failed switch is retried by the normal world driver *)
          Sim.Node.fixed storage ~category:"recovery"
            (2.0 *. params.Sim.Params.rpmb_access_ns);
          Fault.note_retry faults ~action:"world_switch";
          Fault.note_recovered_since faults mark
        end;
        if Fault.incident_count faults > mark then stall_until_recovered ();
        None
  end

(* Abnormal outcomes are first-class events: [query.crashed] /
   [query.rejected] are terminal kinds (the event-log sink flushes on
   them, so the lines explaining the failure are durable even if the
   process dies before its orderly export) and every abnormal kind
   triggers a flight recorder dump. *)
let outcome_event ~kind v =
  if Obs.enabled () then
    Obs.event ~scope:"core" ~kind
      [ ("site", Ev.S v.v_site); ("detail", Ev.S v.v_detail) ]

let with_outcome ?(admit = fun () -> None) ?storage ?peers d config run =
  let faults = Deployment.faults d in
  let storage = Option.value storage ~default:d.Deployment.storage in
  let peers = Option.value peers ~default:[ storage ] in
  let rejected v =
    Fault.note_rejected faults;
    outcome_event ~kind:"query.rejected" v;
    Rejected v
  in
  let mark = Fault.incident_count faults in
  match admit () with
  | Some v -> rejected v
  | None -> (
      match preflight d config ~storage ~peers with
      | Some v ->
          outcome_event ~kind:"query.rejected" v;
          Rejected v
      | None -> (
          match run () with
          | m -> (
              match Fault.incidents_since faults mark with
              | [] -> Ok m
              | incidents ->
                  (* the query completed and verified despite these
                     faults: whatever fired was survived, including
                     faults absorbed with no repair work (e.g. rot in an
                     unused region) *)
                  Fault.note_recovered_since faults mark;
                  if Obs.enabled () then
                    Obs.event ~scope:"core" ~kind:"query.degraded"
                      [ ("incidents", Ev.I (List.length incidents)) ];
                  Degraded (m, incidents))
          | exception Ironsafe_wal.Wal.Crashed site ->
              Obs.count ~scope:"fault" "crashes";
              let v =
                {
                  v_site = Fault.site_name site;
                  v_detail = "power loss injected; reboot required";
                }
              in
              outcome_event ~kind:"query.crashed" v;
              Crashed v
          | exception Sql.Pager.Integrity_failure detail ->
              rejected (violation_of_faults faults ~default:"securestore" ~detail)
          | exception Tee.Sgx.Enclave_aborted ->
              rejected
                (violation_of_faults faults ~default:"sgx.abort"
                   ~detail:"enclave died mid-query")))

(* The clocks are reset before [with_outcome]'s pre-flight, not inside
   [run_stmt]: a pre-flight recovery charge (EPC storm, enclave
   restart, world-switch retry) is part of the query's latency. *)
let run_stmt_outcome ?(reset = true) ?project deploy config stmt =
  if reset then Deployment.reset_counters deploy;
  with_outcome deploy config (fun () ->
      run_stmt ~reset:false ?project deploy config stmt)

let run_query_outcome deploy config sql =
  run_stmt_outcome deploy config (Sql.Parser.parse sql)
