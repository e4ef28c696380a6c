(* tpch-scs and tpch-vcs: one client submits the 17 evaluated TPC-H
   queries back to back (closed loop, no think time), each through
   [Engine.submit] followed by [Engine.verify_response], in a seeded
   order per round.

   scs (IronSafe's split secure configuration) spends most of its wall
   time in the secure store's CBC decrypt, HMAC and Merkle checks; vcs
   runs the same split over the plain replica and so skips the secure
   store and the crypto entirely, leaving SQL execution, the
   partitioner and the host engine. A crypto change should move the
   first and not the second. *)

open Ironsafe
open Harness
module Sql = Ironsafe_sql
module Tpch = Ironsafe_tpch
module Sec = Ironsafe_securestore.Secure_store
module Mon = Ironsafe_monitor.Trusted_monitor
module Prng = Ironsafe_sim.Prng

(* Nominal wall seconds of one 17-query round at scale 0.01 on a
   2-core x86 container; a run does [--seconds / round_s] rounds, at
   least four. *)
let round_s = function Config.Scs -> 9.0 | _ -> 2.0

let setup ctx =
  let d =
    Deployment.create ~seed:"e2e-tpch"
      ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:ctx.scale))
      ()
  in
  let e = Engine.create d in
  ignore (Engine.register_client e ~label:client ());
  Engine.set_access_policy e policy;
  (* the first submit attests host and storage: set-up work *)
  (match Engine.submit e ~client ~sql:"select count(*) from region" () with
  | Ok _ -> ()
  | Error m -> failwith ("set-up query failed: " ^ m));
  (d, e)

let shuffle prng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.rand_int prng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Counters summed over the timed queries. *)
type acc = {
  mutable pages : int;
  mutable rows : int;
  mutable bytes : int;
  mutable decrypts : int;
  mutable macs : int;
  mutable merkle : int;
  mutable rpmb : int;
  mutable dev_reads : int;
  mutable virt_ns : float;
  virt_cat : (string, float) Hashtbl.t;
}

let note_response acc d (m : Runner.metrics) =
  acc.pages <- acc.pages + m.Runner.pages_scanned;
  acc.rows <- acc.rows + m.Runner.host_rows + m.Runner.storage_rows;
  acc.bytes <- acc.bytes + m.Runner.bytes_shipped;
  acc.virt_ns <- acc.virt_ns +. m.Runner.end_to_end_ns;
  List.iter
    (fun (cat, ns) ->
      let cat = virt_category cat in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc.virt_cat cat) in
      Hashtbl.replace acc.virt_cat cat (prev +. ns))
    (m.Runner.host_breakdown @ m.Runner.storage_breakdown);
  (* [submit] zeroes the secure store's counters before it runs the
     query, so they now hold this query's work *)
  let s = Sec.stats d.Deployment.secure_store in
  acc.decrypts <- acc.decrypts + s.Sec.page_decrypts;
  acc.macs <- acc.macs + s.Sec.page_mac_checks;
  acc.merkle <- acc.merkle + s.Sec.merkle_hashes;
  acc.rpmb <- acc.rpmb + s.Sec.rpmb_accesses;
  acc.dev_reads <- acc.dev_reads + s.Sec.device_reads

(* The traced run's probes: re-run, one public call at a time, the work
   [submit] did for this query, so each layer gets its own wall time.
   Pool-less deployments start every query cold (the runner resets
   counters first), so a probe sees the same pages the op did. *)
let probe tr ~op d e config sql =
  let secure = Config.secure config in
  let src = if secure then d.Deployment.secure_db else d.Deployment.plain_db in
  let catalog = Sql.Database.catalog src in
  fst @@ Tracer.span tr ~op ~parent:(-1) "probe" @@ fun root ->
  let span name f = fst (Tracer.span tr ~op ~parent:root name (fun _ -> f ())) in
  let auth =
    span "monitor.authorize" (fun () ->
        Mon.authorize (Engine.monitor e)
          ~catalog:(Sql.Database.catalog d.Deployment.secure_db)
          ~client_label:client ~database ~exec_policy:[] ~sql)
  in
  match auth with
  | Error m -> failwith ("probe authorize: " ^ m)
  | Ok a ->
      Mon.session_cleanup (Engine.monitor e) a.Mon.auth_session_key;
      ignore (span "sql.parse" (fun () -> Sql.Parser.parse sql));
      let stmt = a.Mon.auth_stmt in
      ignore (span "core.runner" (fun () -> Runner.run_stmt d config stmt));
      let plan = span "core.partition" (fun () -> Partitioner.split catalog stmt) in
      let off = span "sql.offload" (fun () -> Storage_engine.run_offload src plan) in
      if secure then
        ignore
          (span "sql.offload_plain" (fun () ->
               Storage_engine.run_offload d.Deployment.plain_db plan));
      ignore
        (span "core.host" (fun () ->
             Host_engine.run_host ~exec_mode:(Deployment.exec_mode d)
               ~storage_catalog:catalog plan off))

(* Per-layer wall metrics from the span totals of [n] traced queries. *)
let layer_metrics tr ~n ~secure ~virt_crypto_ms =
  let t = Tracer.total_ms tr and per x = Stats.ratio x (float_of_int n) in
  let offload_plain = if secure then t "sql.offload_plain" else t "sql.offload" in
  let store_read = if secure then t "sql.offload" -. t "sql.offload_plain" else 0.0 in
  let leaves =
    t "monitor.authorize" +. t "core.partition" +. t "sql.offload" +. t "core.host"
    +. t "client.verify"
  in
  [
    ("monitor.authorize_ms", per (t "monitor.authorize" -. t "sql.parse"));
    ("sql.parse_ms", per (t "sql.parse"));
    ("core.partition_ms", per (t "core.partition"));
    ("sql.offload_plain_ms", per offload_plain);
    ("securestore.read_ms", per store_read);
    ("core.host_ms", per (t "core.host"));
    ( "core.runner_self_ms",
      per (t "core.runner" -. t "core.partition" -. t "sql.offload" -. t "core.host") );
    ( "core.engine_self_ms",
      per (t "engine.submit" -. t "core.runner" -. t "monitor.authorize") );
    ("client.verify_ms", per (t "client.verify"));
    (* op time outside every probed call below lib/core: the engine's
       and runner's own code (cost charging, signing, bookkeeping) *)
    ("trace.unattributed_pct", 100.0 *. Stats.ratio (t "op" -. leaves) (t "op"));
    ("ratio.securestore_wall_per_virt", Stats.ratio (per store_read) virt_crypto_ms);
  ]

let run config ctx =
  let tr = ctx.tracer in
  let setup_s, (d, e) = repeated_setup ctx (fun () -> setup ctx) in
  let prng = Prng.create ~seed:ctx.seed in
  let queries = Array.of_list Tpch.Queries.all in
  let expected qid = List.assoc_opt qid ctx.goldens in
  (* one submit + verify, checked against the result golden *)
  let op tr ?(parent = -1) ~id (q : Tpch.Queries.t) =
    let sql = q.Tpch.Queries.sql in
    let submitted, _ =
      Tracer.span tr ~op:id ~parent "engine.submit" (fun _ ->
          Engine.submit ~config e ~client ~sql ())
    in
    match submitted with
    | Error m -> Error m
    | Ok resp ->
        let verified, _ =
          Tracer.span tr ~op:id ~parent "client.verify" (fun _ ->
              Engine.verify_response e resp ~sql)
        in
        if not verified then Error "response failed verification"
        else if resp.Engine.resp_metrics.Runner.config <> config then
          Error "configuration was downgraded"
        else if Some (Golden.digest resp.Engine.resp_result) <> expected q.Tpch.Queries.id
        then Error "result digest differs from the golden"
        else Ok resp
  in
  (* untimed warm-up: a first pass through the query path. Not a whole
     round, which would add 9 s to each scs run: in a steady scs run the
     first round measured within 3% of later ones, and on vcs it was the
     fastest. *)
  ignore (op None ~id:(-1) (Tpch.Queries.by_id 2));
  (* the traced run covers one round: every query once, with probes; a
     measured run does at least four (68 samples) *)
  let rounds =
    if tr <> None then 1 else units ctx ~unit_s:(round_s config) ~min:4 ~smoke:1
  in
  let n = rounds * Array.length queries in
  let lat = Array.make n 0.0 in
  let failed = ref 0 and failures = ref [] in
  let gc = gc_acc () in
  let acc =
    {
      pages = 0; rows = 0; bytes = 0; decrypts = 0; macs = 0; merkle = 0;
      rpmb = 0; dev_reads = 0; virt_ns = 0.0; virt_cat = Hashtbl.create 16;
    }
  in
  let (), phase_ms =
    time (fun () ->
        for r = 0 to rounds - 1 do
          shuffle prng queries;
          Array.iteri
            (fun i q ->
              let id = (r * Array.length queries) + i in
              let result, ms =
                with_gc gc (fun () ->
                    Tracer.span tr ~op:id ~parent:(-1) "op" (fun root ->
                        op tr ~parent:root ~id q))
              in
              lat.(id) <- ms;
              (match result with
              | Ok resp -> note_response acc d resp.Engine.resp_metrics
              | Error m ->
                  incr failed;
                  failures := Printf.sprintf "Q%d: %s" q.Tpch.Queries.id m :: !failures);
              if tr <> None then probe tr ~op:id d e config q.Tpch.Queries.sql)
            queries
        done)
  in
  let per x = Stats.ratio (float_of_int x) (float_of_int n) in
  let virt name =
    let ns = Option.value ~default:0.0 (Hashtbl.find_opt acc.virt_cat name) in
    Stats.ratio ns (float_of_int n) /. 1e6
  in
  let counters =
    [
      ("sql.pages_per_op", per acc.pages);
      ("sql.rows_per_op", per acc.rows);
      ("net.bytes_shipped_per_op", per acc.bytes);
      ("securestore.decrypts_per_op", per acc.decrypts);
      ("securestore.mac_checks_per_op", per acc.macs);
      ("securestore.merkle_hashes_per_op", per acc.merkle);
      ("securestore.rpmb_accesses_per_op", per acc.rpmb);
      ("securestore.device_reads_per_op", per acc.dev_reads);
      ("virt.op_ms", Stats.ratio acc.virt_ns (float_of_int n) /. 1e6);
    ]
    @ List.map (fun c -> ("virt." ^ c ^ "_ms", virt c)) virt_categories
    @ gc_metrics gc ~ops:n
  in
  let traced =
    match tr with
    | None -> []
    | Some t ->
        let cheapest = Tpch.Queries.by_id 16 in
        layer_metrics t ~n ~secure:(Config.secure config)
          ~virt_crypto_ms:(virt "decryption" +. virt "freshness")
        @ [
            ( "trace.overhead_pct",
              trace_overhead_pct ~phase_ms ~op_ms:(Tracer.total_ms t "op") );
            ( "obs.on_overhead_pct",
              obs_overhead_pct ~pairs:(if ctx.smoke then 1 else 5) (fun () ->
                  ignore (op None ~id:(-1) cheapest)) );
          ]
  in
  {
    attempted = n;
    failed = !failed;
    checks = [];
    metrics = op_metrics ~setup_s lat @ counters @ traced;
    notes =
      Printf.sprintf "%d round(s) of %d queries under %s" rounds
        (Array.length queries) (Config.abbrev config)
      :: List.rev !failures;
  }
