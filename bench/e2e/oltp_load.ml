(* oltp-wal: writes beside reads on the secure medium, one client in a
   closed loop. The only workload that runs the crash-safe write path
   (lib/wal), MVCC, the decrypted-page buffer pool, secure-store writes
   and the per-request control path (authorize + session cleanup).

   The mix is the repository's OLTP experiment (bench/main.ml): about
   two thirds of the ops insert a fresh [nation] row, the rest are
   snapshot reads of [nation]'s row count and largest key, each checked
   against the benchmark's model of the table.

   Ops bypass [Engine.submit]: its DML path never commits the WAL
   transaction (20 submitted inserts leave [Txn_store.stats.commits]
   at 0), so each op calls the public pieces submit is made of:
   [Trusted_monitor.authorize], [Runner.run_stmt_outcome ~reset:false]
   on the rewritten statement, [Trusted_monitor.session_cleanup]. *)

open Ironsafe
open Harness
module Sql = Ironsafe_sql
module Tpch = Ironsafe_tpch
module W = Ironsafe_wal
module Sec = Ironsafe_securestore.Secure_store
module Mon = Ironsafe_monitor.Trusted_monitor
module Prng = Ironsafe_sim.Prng
module Node = Ironsafe_sim.Node
module Dev = Ironsafe_storage.Block_device

(* Nominal wall seconds per op at scale 0.01 on a 2-core x86
   container; a run does [--seconds / op_s] timed ops. *)
let op_s = 1.5e-3

type state = {
  d : Deployment.t;
  e : Engine.t;
  ts : W.Txn_store.t;
  mutable rows : int;  (** model: rows in [nation] *)
  mutable max_key : int;  (** model: largest [n_nationkey] *)
}

type op = Insert | Read

let snapshot_read = "select count(*), max(n_nationkey) from nation"

(* One op: authorize, run on the secure medium (Sos), release the
   session key. *)
let exec st tr ~op ~parent sql =
  let mon = Engine.monitor st.e in
  let span name f = fst (Tracer.span tr ~op ~parent name (fun _ -> f ())) in
  match
    span "monitor.authorize" (fun () ->
        Mon.authorize mon
          ~catalog:(Sql.Database.catalog st.d.Deployment.secure_db)
          ~client_label:client ~database ~exec_policy:[] ~sql)
  with
  | Error m -> Error ("authorize: " ^ m)
  | Ok a -> (
      let outcome =
        span "core.run_stmt" (fun () ->
            Runner.run_stmt_outcome ~reset:false st.d Config.Sos a.Mon.auth_stmt)
      in
      span "monitor.cleanup" (fun () -> Mon.session_cleanup mon a.Mon.auth_session_key);
      match outcome with
      | Runner.Ok m | Runner.Degraded (m, _) -> Ok m
      | Runner.Rejected v -> Error (Format.asprintf "rejected: %a" Runner.pp_violation v)
      | Runner.Crashed v -> Error (Format.asprintf "crashed: %a" Runner.pp_violation v))

(* [nation]'s row count and largest key, if [rows] is a snapshot read's
   answer *)
let count_and_max (rows : Sql.Row.t list) =
  match rows with
  | [ [| Sql.Value.Int c; Sql.Value.Int m |] ] -> Some (c, m)
  | _ -> None

let setup ctx =
  let d =
    Deployment.create ~seed:"e2e-oltp" ~wal:true ~wal_window_ns:100_000.
      ~pool_frames:256
      ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:ctx.scale))
      ()
  in
  let e = Engine.create d in
  ignore (Engine.register_client e ~label:client ());
  Engine.set_access_policy e policy;
  (match Deployment.attest d with
  | Ok () -> ()
  | Error m -> failwith ("attestation failed: " ^ m));
  (* the model starts from the loaded data; the plain replica holds the
     same rows and reads without crypto *)
  match
    count_and_max (Sql.Database.query d.Deployment.plain_db snapshot_read).Sql.Exec.rows
  with
  | Some (rows, max_key) ->
      { d; e; ts = Option.get (Deployment.txn_store d); rows; max_key }
  | None -> failwith "cannot read the nation table"

let next_op st prng =
  if Prng.rand_int prng 3 < 2 then
    let k = st.max_key + 1 in
    ( Insert,
      Printf.sprintf "insert into nation values (%d, 'N%d', %d, 'e2e writer row')" k k
        (Prng.rand_int prng 5) )
  else (Read, snapshot_read)

(* Check a successful op against the model, then apply it. *)
let settle st op (m : Runner.metrics) =
  match op with
  | Insert ->
      st.rows <- st.rows + 1;
      st.max_key <- st.max_key + 1;
      Ok ()
  | Read ->
      if count_and_max m.Runner.result.Sql.Exec.rows = Some (st.rows, st.max_key) then
        Ok ()
      else Error "snapshot read disagrees with the model"

(* Counters sampled at the start and end of the timed phase (the
   stats records are mutable, so their fields are copied out). *)
type snap = {
  hits : int;
  misses : int;
  evictions : int;
  bytes_logged : int;
  flushes : int;
  anchors : int;
  commits : int;
  durable : int;
  checkpoints : int;
  virt_now : float;
  virt_cat : (string * float) list;
}

let snap st =
  let d = st.d in
  let pool = Option.map Sql.Bufpool.stats d.Deployment.secure_pool in
  let pool_get f = match pool with Some p -> f p | None -> 0 in
  let w = W.Wal.stats (W.Txn_store.wal st.ts) in
  let t = W.Txn_store.stats st.ts in
  {
    hits = pool_get (fun p -> p.Sql.Bufpool.hits);
    misses = pool_get (fun p -> p.Sql.Bufpool.misses);
    evictions = pool_get (fun p -> p.Sql.Bufpool.evictions);
    bytes_logged = w.W.Wal.bytes_logged;
    flushes = w.W.Wal.flushes;
    anchors = w.W.Wal.anchors;
    commits = t.W.Txn_store.commits;
    durable = t.W.Txn_store.durable_commits;
    checkpoints = t.W.Txn_store.checkpoints;
    virt_now = Float.max (Node.now d.Deployment.host) (Node.now d.Deployment.storage);
    virt_cat =
      Ironsafe_sim.Trace.breakdown (Node.trace d.Deployment.host)
      @ Ironsafe_sim.Trace.breakdown (Node.trace d.Deployment.storage);
  }

let cat_total snap c =
  List.fold_left
    (fun acc (name, ns) -> if virt_category name = c then acc +. ns else acc)
    0.0 snap.virt_cat

let run ctx =
  let tr = ctx.tracer in
  let setup_s, st = repeated_setup ctx (fun () -> setup ctx) in
  let prng = Prng.create ~seed:ctx.seed in
  let log_bytes =
    Dev.page_count (Option.get st.d.Deployment.device_wal) * Dev.page_size
  in
  let failures = ref [] in
  (* one op; a write that fills half the log device checkpoints inside
     it, so the stall lands on the write's latency as a client sees it *)
  let step tr ~id =
    let op, sql = next_op st prng in
    (* [submit] zeroes the secure store's counters before each request
       and the runner charges the virtual clock for the counts it finds;
       this loop calls the runner directly, so it zeroes them itself *)
    Sec.reset_stats st.d.Deployment.secure_store;
    let result, ms =
      Tracer.span tr ~op:id ~parent:(-1) "op" (fun root ->
          match exec st tr ~op:id ~parent:root sql with
          | Error _ as e -> e
          | Ok m ->
              if
                op = Insert
                && W.Wal.persisted_bytes (W.Txn_store.wal st.ts) > log_bytes / 2
              then
                match
                  fst
                    (Tracer.span tr ~op:id ~parent:root "wal.checkpoint" (fun _ ->
                         W.Txn_store.checkpoint st.ts))
                with
                | Ok () -> Ok m
                | Error e -> Error (Format.asprintf "checkpoint: %a" W.Txn_store.pp_error e)
              else Ok m)
    in
    let result = Result.bind result (fun m -> Result.map (fun () -> m) (settle st op m)) in
    (match result with
    | Ok _ -> ()
    | Error m -> failures := Printf.sprintf "op %d (%s): %s" id sql m :: !failures);
    (op, result, ms)
  in
  for i = 1 to if ctx.smoke then 0 else 500 do
    ignore (step None ~id:(-i))
  done;
  let n = units ctx ~unit_s:op_s ~min:300 ~smoke:300 in
  let lat = Array.make n 0.0 in
  let writes = ref [] and reads = ref [] in
  let failed = ref 0 and pages = ref 0 and rows = ref 0 and bytes = ref 0 in
  let store = Array.make 6 0 in
  let gc = gc_acc () in
  let s0 = snap st in
  let (), phase_ms =
    time (fun () ->
        for id = 0 to n - 1 do
          let op, result, ms = with_gc gc (fun () -> step tr ~id) in
          lat.(id) <- ms;
          let s = Sec.stats st.d.Deployment.secure_store in
          Array.iteri
            (fun i x -> store.(i) <- store.(i) + x)
            [|
              s.Sec.page_decrypts; s.Sec.page_mac_checks; s.Sec.merkle_hashes;
              s.Sec.rpmb_accesses; s.Sec.device_reads; s.Sec.device_writes;
            |];
          if op = Insert then writes := ms :: !writes else reads := ms :: !reads;
          match result with
          | Ok m ->
              pages := !pages + m.Runner.pages_scanned;
              rows := !rows + m.Runner.host_rows + m.Runner.storage_rows;
              bytes := !bytes + m.Runner.bytes_shipped
          | Error _ -> incr failed
        done)
  in
  let s1 = snap st in
  let nw = List.length !writes in
  let fn = float_of_int n in
  let per x = Stats.ratio (float_of_int x) fn in
  let per_write x = Stats.ratio (float_of_int x) (float_of_int nw) in
  let commits = s1.commits - s0.commits in
  let per_commit x = Stats.ratio (float_of_int x) (float_of_int commits) in
  let virt_s = (s1.virt_now -. s0.virt_now) /. 1e9 in
  let wr = Array.of_list !writes and rd = Array.of_list !reads in
  let counters =
    [
      ("oltp.write_p50_ms", Stats.percentile wr 0.50);
      ("oltp.write_p99_ms", Stats.percentile wr 0.99);
      ("oltp.read_p50_ms", Stats.percentile rd 0.50);
      ("oltp.read_p99_ms", Stats.percentile rd 0.99);
      ("sql.pages_per_op", per !pages);
      ("sql.rows_per_op", per !rows);
      ("net.bytes_shipped_per_op", per !bytes);
      ( "bufpool.hit_ratio",
        Stats.ratio
          (float_of_int (s1.hits - s0.hits))
          (float_of_int (s1.hits - s0.hits + s1.misses - s0.misses)) );
      ("bufpool.evictions_per_op", per (s1.evictions - s0.evictions));
      ("securestore.decrypts_per_op", per store.(0));
      ("securestore.mac_checks_per_op", per store.(1));
      ("securestore.merkle_hashes_per_op", per store.(2));
      ("securestore.rpmb_accesses_per_op", per store.(3));
      ("securestore.device_reads_per_op", per store.(4));
      ("securestore.device_writes_per_write", per_write store.(5));
      ("wal.bytes_logged_per_write", per_write (s1.bytes_logged - s0.bytes_logged));
      ( "wal.checkpoints_per_kop",
        1000.0 *. per (s1.checkpoints - s0.checkpoints) );
      ("wal.flushes_per_commit", per_commit (s1.flushes - s0.flushes));
      ("wal.anchors_per_commit", per_commit (s1.anchors - s0.anchors));
      ("virt.op_ms", (s1.virt_now -. s0.virt_now) /. fn /. 1e6);
      ( "virt.commits_per_s",
        Stats.ratio (float_of_int (s1.durable - s0.durable)) virt_s );
    ]
    @ List.map
        (fun c -> ("virt." ^ c ^ "_ms", (cat_total s1 c -. cat_total s0 c) /. fn /. 1e6))
        virt_categories
    @ gc_metrics gc ~ops:n
  in
  let traced =
    match tr with
    | None -> []
    | Some t ->
        let tot = Tracer.total_ms t in
        let per_op x = x /. fn in
        let children =
          tot "monitor.authorize" +. tot "core.run_stmt" +. tot "monitor.cleanup"
          +. tot "wal.checkpoint"
        in
        [
          ("monitor.authorize_ms", per_op (tot "monitor.authorize"));
          ("core.run_stmt_ms", per_op (tot "core.run_stmt"));
          ("monitor.cleanup_ms", per_op (tot "monitor.cleanup"));
          ( "wal.checkpoint_ms",
            Stats.ratio (tot "wal.checkpoint")
              (float_of_int (Tracer.calls t "wal.checkpoint")) );
          ( "trace.unattributed_pct",
            100.0 *. Stats.ratio (tot "op" -. children) (tot "op") );
          ("trace.overhead_pct", trace_overhead_pct ~phase_ms ~op_ms:(tot "op"));
          ( "obs.on_overhead_pct",
            obs_overhead_pct ~pairs:(if ctx.smoke then 5 else 50) (fun () ->
                ignore (exec st None ~op:(-1) ~parent:(-1) snapshot_read)) );
        ]
  in
  (* Durability oracle: make every acknowledged commit durable, crash
     and reboot the secure medium, and read the table back. The keys
     are inserted in sequence, so the row count and the largest key
     together say that every acknowledged insert survived. *)
  let flushed = W.Txn_store.flush st.ts = Ok () in
  let txn = W.Txn_store.stats st.ts in
  let durable_ratio =
    Stats.ratio
      (float_of_int txn.W.Txn_store.durable_commits)
      (float_of_int txn.W.Txn_store.commits)
  in
  let rebooted, recover_ms = time (fun () -> Deployment.reboot_secure st.d) in
  let survived =
    match exec st None ~op:(-1) ~parent:(-1) snapshot_read with
    | Ok m -> count_and_max m.Runner.result.Sql.Exec.rows = Some (st.rows, st.max_key)
    | Error _ -> false
  in
  {
    attempted = n;
    failed = !failed;
    checks =
      [
        ("wal flush before reboot", flushed);
        ("every commit acknowledged durable", durable_ratio = 1.0);
        ("secure medium reboots", rebooted = Ok ());
        ("every acknowledged insert survives reboot", survived);
      ];
    metrics =
      op_metrics ~setup_s lat @ counters @ traced
      @ [ ("wal.durable_ratio", durable_ratio); ("wal.recover_ms", recover_ms) ];
    notes =
      Printf.sprintf "%d ops (%d writes, %d reads), %d checkpoints" n nw
        (Array.length rd)
        (s1.checkpoints - s0.checkpoints)
      :: List.rev !failures;
  }
