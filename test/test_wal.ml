(* Crash-safe write path tests: WAL record/chain mechanics, group
   commit, MVCC snapshots, the crash-at-every-point recovery property,
   recovery idempotence, tamper/rollback detection via the RPMB anchor,
   nonce freshness across reboots, and WAL-off byte identity. *)

open Ironsafe
module C = Ironsafe_crypto
module S = Ironsafe_storage
module Sec = Ironsafe_securestore.Secure_store
module W = Ironsafe_wal
module Fault = Ironsafe_fault.Fault
module Obs = Ironsafe_obs.Obs
module Ev = Ironsafe_obs.Event_log
module Sql = Ironsafe_sql
module Tpch = Ironsafe_tpch

let hk = String.make 32 '\x5a'

let ok_exn pp = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %a" pp e

let init_content p = Printf.sprintf "init-%d" p

(* CI's crash matrix reruns this suite under several fixed seeds and
   both page ciphers: IRONSAFE_FAULT_SEED joins the built-in seed list,
   IRONSAFE_CRYPTO_MODE selects the cipher the crash and idempotence
   properties run over, and IRONSAFE_WAL_JSONL, when set, exports the
   crash matrix's wal.* recovery events as a JSONL artifact. *)
let env_seed =
  match Sys.getenv_opt "IRONSAFE_FAULT_SEED" with
  | Some s -> int_of_string_opt s
  | None -> None

let ci_page_mode =
  match Sys.getenv_opt "IRONSAFE_CRYPTO_MODE" with
  | Some "ctr" -> Sec.Ctr
  | _ -> Sec.Cbc

(* A self-contained secure medium + WAL + transactional overlay, every
   data page pre-imaged before the overlay engages (mirroring
   deployment population running in pass-through mode). *)
type env = {
  ts : W.Txn_store.t;
  device : S.Block_device.t;
  wal_dev : S.Block_device.t;
  rpmb : S.Rpmb.t;
  drbg : C.Drbg.t;
  page_mode : Sec.page_mode;
  data_pages : int;
  now : float ref;
}

let fresh ?(page_mode = Sec.Cbc) ?(window_ns = 0.0) ?(data_pages = 12)
    ?(log_pages = 64) ~seed () =
  let drbg = C.Drbg.create ~seed in
  let device = S.Block_device.create ~pages:(Sec.device_pages_for ~data_pages) in
  let wal_dev = S.Block_device.create ~pages:log_pages in
  let rpmb = S.Rpmb.create () in
  let store =
    ok_exn Sec.pp_error
      (Sec.initialize ~page_mode ~device ~rpmb ~hardware_key:hk ~data_pages
         ~drbg ())
  in
  for p = 0 to data_pages - 1 do
    ok_exn Sec.pp_error (Sec.write_page store p (init_content p))
  done;
  let wal =
    ok_exn W.Wal.pp_error
      (W.Wal.create ~device:wal_dev ~rpmb ~hardware_key:hk ~drbg ())
  in
  let ts = W.Txn_store.attach ~store ~wal ~device ~window_ns () in
  let now = ref 0.0 in
  W.Txn_store.set_clock ts (fun () -> !now);
  W.Txn_store.engage ts;
  { ts; device; wal_dev; rpmb; drbg; page_mode; data_pages; now }

let recover_wal env =
  W.Wal.recover ~device:env.wal_dev ~rpmb:env.rpmb ~hardware_key:hk
    ~drbg:env.drbg ()

(* Power-cycle the secure medium: reopen store + WAL from persistent
   state and redo the committed log in place. Returns the redone
   records. *)
let reboot env =
  let store =
    ok_exn Sec.pp_error
      (Sec.open_existing ~page_mode:env.page_mode ~device:env.device
         ~rpmb:env.rpmb ~hardware_key:hk ~data_pages:env.data_pages
         ~drbg:env.drbg ())
  in
  match recover_wal env with
  | Error e -> Alcotest.failf "recover: %a" W.Wal.pp_error e
  | Ok (wal, records) -> (
      match W.Txn_store.adopt env.ts ~store ~wal ~records with
      | Ok () -> records
      | Error e -> Alcotest.failf "adopt: %a" W.Txn_store.pp_error e)

let commit_pages ?(sync = true) env pages =
  let txn = W.Txn_store.begin_txn env.ts in
  List.iter (fun (p, v) -> W.Txn_store.txn_write env.ts txn ~page:p v) pages;
  ok_exn W.Txn_store.pp_error (W.Txn_store.commit_txn ~sync env.ts txn)

let read env p = W.Txn_store.pager_read env.ts p

(* -- records ----------------------------------------------------------- *)

let test_record_roundtrip () =
  let payloads =
    [
      W.Record.Begin { txn = 7 };
      W.Record.Page_write { txn = 7; page = 42; data = "hello \x00 world" };
      W.Record.Page_write { txn = 1; page = 0; data = "" };
      W.Record.Commit { txn = 7 };
    ]
  in
  List.iter
    (fun p ->
      match W.Record.decode (W.Record.encode p) with
      | Ok p' -> Alcotest.(check bool) "roundtrip" true (p = p')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    payloads;
  (* truncations and junk must fail, not misparse *)
  let enc = W.Record.encode (W.Record.Page_write { txn = 1; page = 2; data = "abcd" }) in
  for n = 0 to String.length enc - 1 do
    match W.Record.decode (String.sub enc 0 n) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes decoded" n
    | Error _ -> ()
  done;
  (match W.Record.decode "\xffgarbage" with
  | Ok _ -> Alcotest.fail "unknown tag decoded"
  | Error _ -> ())

(* -- basic durability -------------------------------------------------- *)

let test_append_flush_recover () =
  let env = fresh ~seed:"basic" () in
  ignore (commit_pages env [ (0, "a0"); (1, "b0") ]);
  ignore (commit_pages env [ (0, "a1") ]);
  Alcotest.(check string) "latest read" "a1" (read env 0);
  Alcotest.(check string) "latest read" "b0" (read env 1);
  (* power-cycle without checkpoint: redo must rebuild from the log *)
  let records = reboot env in
  Alcotest.(check bool) "log replayed" true (List.length records >= 4);
  Alcotest.(check string) "recovered" "a1" (read env 0);
  Alcotest.(check string) "recovered" "b0" (read env 1);
  Alcotest.(check string) "untouched page" (init_content 5) (read env 5);
  (* the log was truncated: a second boot replays nothing *)
  let records = reboot env in
  Alcotest.(check int) "empty log after truncate" 0 (List.length records);
  Alcotest.(check string) "still there" "a1" (read env 0)

let test_checkpoint_then_recover () =
  let env = fresh ~seed:"ckpt" () in
  ignore (commit_pages env [ (2, "v1"); (3, "w1") ]);
  ok_exn W.Txn_store.pp_error (W.Txn_store.checkpoint env.ts);
  ignore (commit_pages env [ (2, "v2") ]);
  let records = reboot env in
  (* only the post-checkpoint tail is in the log *)
  let page_writes =
    List.filter
      (fun r ->
        match r.W.Record.payload with
        | W.Record.Page_write _ -> true
        | _ -> false)
      records
  in
  Alcotest.(check int) "one page image redone" 1 (List.length page_writes);
  Alcotest.(check string) "post-ckpt commit" "v2" (read env 2);
  Alcotest.(check string) "checkpointed page" "w1" (read env 3)

(* -- tamper / rollback detection --------------------------------------- *)

let test_tampered_log_detected () =
  let env = fresh ~seed:"tamper" () in
  ignore (commit_pages env [ (0, "x") ]);
  ignore (commit_pages env [ (1, "y") ]);
  (* flip a byte inside the first frame's MAC region, below the
     anchored horizon *)
  S.Block_device.tamper env.wal_dev ~page:0 ~offset:30;
  (match recover_wal env with
  | Error (W.Wal.Tampered_record _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" W.Wal.pp_error e
  | Ok _ -> Alcotest.fail "tampered log accepted")

let snapshot_device d ~pages =
  Array.init pages (fun i -> S.Block_device.read_page d i)

let restore_device d img =
  Array.iteri (fun i p -> S.Block_device.write_page d i p) img

let test_truncated_log_detected () =
  let env = fresh ~seed:"roll" ~log_pages:8 () in
  ignore (commit_pages env [ (0, "x") ]);
  let old = snapshot_device env.wal_dev ~pages:8 in
  ignore (commit_pages env [ (1, "y") ]);
  ignore (commit_pages env [ (2, "z") ]);
  (* roll the log device back to before the last two acknowledged
     commits: the chain now ends below the RPMB-anchored horizon *)
  restore_device env.wal_dev old;
  (match recover_wal env with
  | Error (W.Wal.Truncated { durable_lsn; last_valid_lsn }) ->
      Alcotest.(check bool) "ends early" true (last_valid_lsn < durable_lsn)
  | Error e -> Alcotest.failf "wrong error: %a" W.Wal.pp_error e
  | Ok _ -> Alcotest.fail "rolled-back log accepted")

let test_forked_log_detected () =
  (* A fork needs two different histories at the same LSNs with the
     anchor covering only one — exactly what a crash between frame
     persistence and the anchor bump produces: the doomed tail stays
     on the device, recovery rolls it back, and the system then writes
     a different tail at the same LSNs. Replaying the captured doomed
     tail is the fork attack. *)
  let env = fresh ~window_ns:5_000.0 ~log_pages:8 ~seed:"fork" () in
  ignore (commit_pages env [ (0, "base-val") ]);
  let plan =
    Fault.make
      ~clock:(fun () -> !(env.now))
      ~seed:9
      [ (Fault.Wal_crash_before_anchor, Fault.rule ~max_fires:1 ()) ]
  in
  W.Txn_store.set_faults env.ts plan;
  ignore (commit_pages ~sync:false env [ (1, "history-a") ]);
  (try
     ignore (W.Txn_store.flush env.ts);
     Alcotest.fail "crash site did not fire"
   with W.Wal.Crashed _ -> ());
  let fork_a = snapshot_device env.wal_dev ~pages:8 in
  (* recover, then write a same-length alternate history reusing the
     rolled-back LSNs; the anchor now covers fork B *)
  (match recover_wal env with
  | Error e -> Alcotest.failf "recover: %a" W.Wal.pp_error e
  | Ok (wal2, _) ->
      ignore (W.Wal.append wal2 (W.Record.Begin { txn = 99 }));
      ignore
        (W.Wal.append wal2
           (W.Record.Page_write { txn = 99; page = 1; data = "history-b" }));
      ignore (W.Wal.append wal2 (W.Record.Commit { txn = 99 }));
      ok_exn W.Wal.pp_error (W.Wal.flush wal2));
  (* replay fork A: an internally valid chain of acknowledged length
     that does not reproduce the anchored chain MAC *)
  restore_device env.wal_dev fork_a;
  match recover_wal env with
  | Error (W.Wal.Anchor_mismatch | W.Wal.Tampered_record _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" W.Wal.pp_error e
  | Ok _ -> Alcotest.fail "forked log accepted"

(* -- group commit ------------------------------------------------------ *)

let test_group_commit_amortizes_anchors () =
  let env = fresh ~seed:"group" ~window_ns:5_000.0 () in
  let wal () = W.Txn_store.wal env.ts in
  let anchors0 = (W.Wal.stats (wal ())).W.Wal.anchors in
  for i = 0 to 7 do
    match commit_pages ~sync:false env [ (i mod 4, Printf.sprintf "g%d" i) ] with
    | `Queued _ -> ()
    | `Durable _ -> Alcotest.fail "windowed commit flushed eagerly"
  done;
  Alcotest.(check int) "commits pending ack" 8
    (W.Txn_store.unacked_commits env.ts);
  Alcotest.(check int) "no anchor update yet" anchors0
    ((W.Wal.stats (wal ())).W.Wal.anchors);
  (* window expires: one flush, one anchor bump, eight commits durable *)
  env.now := !(env.now) +. 10_000.0;
  ok_exn W.Txn_store.pp_error (W.Txn_store.tick env.ts);
  Alcotest.(check int) "all acked" 0 (W.Txn_store.unacked_commits env.ts);
  Alcotest.(check int) "single anchor for the batch" (anchors0 + 1)
    ((W.Wal.stats (wal ())).W.Wal.anchors);
  Alcotest.(check int) "batch size recorded" 8
    (W.Txn_store.stats env.ts).W.Txn_store.max_group;
  (* and the group survives a power cycle *)
  ignore (reboot env);
  Alcotest.(check string) "group durable" "g7" (read env 3)

(* -- MVCC snapshots ---------------------------------------------------- *)

let test_snapshot_isolation () =
  let env = fresh ~seed:"mvcc" () in
  ignore (commit_pages env [ (0, "v1") ]);
  (* a writer commits while the snapshot is pinned: the pinned reader
     must keep seeing the old world *)
  let seen =
    W.Txn_store.with_snapshot env.ts (fun _ ->
        ignore (commit_pages env [ (0, "v2"); (1, "w2") ]);
        W.Txn_store.pager_read env.ts 0)
  in
  Alcotest.(check string) "pinned reader isolated" "v1" seen;
  Alcotest.(check string) "latest after release" "v2" (read env 0);
  Alcotest.(check string) "other page" "w2" (read env 1);
  (* explicit pin/release keeps gc honest *)
  let s = W.Txn_store.snapshot env.ts in
  ignore (commit_pages env [ (0, "v3") ]);
  W.Txn_store.release_snapshot env.ts s;
  Alcotest.(check string) "latest" "v3" (read env 0)

let test_snapshot_survives_checkpoint () =
  let env = fresh ~seed:"mvcc2" () in
  ignore (commit_pages env [ (4, "old") ]);
  ok_exn W.Txn_store.pp_error (W.Txn_store.checkpoint env.ts);
  (* "old" now lives only in the base store; overwrite it under a
     pinned snapshot — the checkpoint must preserve the old image *)
  let seen =
    W.Txn_store.with_snapshot env.ts (fun _ ->
        ignore (commit_pages env [ (4, "new") ]);
        ok_exn W.Txn_store.pp_error (W.Txn_store.checkpoint env.ts);
        W.Txn_store.pager_read env.ts 4)
  in
  Alcotest.(check string) "pinned read across checkpoint" "old" seen;
  Alcotest.(check string) "latest" "new" (read env 4)

let test_latest_read_with_pin_across_checkpoints () =
  let env = fresh ~seed:"pinbase" () in
  ignore (commit_pages env [ (2, "old") ]);
  ok_exn W.Txn_store.pp_error (W.Txn_store.checkpoint env.ts);
  (* pin the pre-update world, then update + checkpoint: gc keeps only
     the preserved old image for the pin (the new overlay copy is
     base-redundant) — a latest read must then resolve to the base, not
     to the pinned old version *)
  let s = W.Txn_store.snapshot env.ts in
  ignore (commit_pages env [ (2, "new") ]);
  ok_exn W.Txn_store.pp_error (W.Txn_store.checkpoint env.ts);
  Alcotest.(check string) "latest read while pin held" "new" (read env 2);
  W.Txn_store.release_snapshot env.ts s;
  Alcotest.(check string) "latest read after release" "new" (read env 2)

(* -- log-full degradation ---------------------------------------------- *)

let test_log_full_rolls_back_and_checkpoint_unwedges () =
  (* a 2-page log device fills after two full-ish commits *)
  let env = fresh ~seed:"logfull" ~log_pages:2 () in
  let big c = String.make 3000 c in
  ignore (commit_pages env [ (1, big 'a') ]);
  ignore (commit_pages env [ (1, big 'b') ]);
  (* third commit cannot fit: it must fail, and its data must not stay
     visible (it can never become durable) *)
  let txn = W.Txn_store.begin_txn env.ts in
  W.Txn_store.txn_write env.ts txn ~page:1 (big 'c');
  (match W.Txn_store.commit_txn ~sync:true env.ts txn with
  | Error (W.Txn_store.Wal_error W.Wal.Log_full) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" W.Txn_store.pp_error e
  | Ok _ -> Alcotest.fail "over-capacity commit acknowledged");
  Alcotest.(check string) "failed commit rolled back" (big 'b') (read env 1);
  Alcotest.(check int) "no commit left pending ack" 0
    (W.Txn_store.unacked_commits env.ts);
  (* checkpoint still goes through: writes back the durable prefix and
     truncates, unwedging the log *)
  ok_exn W.Txn_store.pp_error (W.Txn_store.checkpoint env.ts);
  (match commit_pages env [ (1, big 'd') ] with
  | `Durable _ -> ()
  | `Queued _ -> Alcotest.fail "sync commit not acknowledged");
  Alcotest.(check string) "store accepts work again" (big 'd') (read env 1);
  (* acked state survives a power cycle; the failed commit is absent *)
  ignore (reboot env);
  Alcotest.(check string) "acked state after reboot" (big 'd') (read env 1)

(* -- crash-at-every-point property -------------------------------------- *)

let seeds =
  let base = [ 11; 22; 33 ] in
  match env_seed with
  | Some s when not (List.mem s base) -> base @ [ s ]
  | _ -> base

(* Mixed workload driven to a crash at [site], tracking the pages every
   durably-acknowledged commit wrote. Returns the acked model and the
   crash site that fired. *)
let run_until_crash env ~site ~seed =
  let after_ns = 2_000.0 +. float_of_int (seed mod 5) *. 3_000.0 in
  let plan =
    Fault.make
      ~clock:(fun () -> !(env.now))
      ~seed
      [ (site, Fault.rule ~max_fires:1 ~after_ns ()) ]
  in
  W.Txn_store.set_faults env.ts plan;
  let prng = Ironsafe_sim.Prng.create ~seed in
  let model = Hashtbl.create 16 in
  for p = 0 to env.data_pages - 1 do
    Hashtbl.replace model p (init_content p)
  done;
  let queued = ref [] in
  (* acknowledge everything the anchored durable horizon covers; the
     in-memory horizon only advances when a flush fully succeeded *)
  let ack () =
    let d = W.Wal.durable_lsn (W.Txn_store.wal env.ts) in
    let acked, rest = List.partition (fun (l, _) -> l <= d) !queued in
    queued := rest;
    List.iter
      (fun (_, ws) -> List.iter (fun (p, v) -> Hashtbl.replace model p v) ws)
      (List.sort compare acked)
  in
  let crashed = ref None in
  (try
     for i = 0 to 29 do
       env.now := !(env.now) +. 1_000.0;
       if i mod 7 = 3 then begin
         ok_exn W.Txn_store.pp_error (W.Txn_store.checkpoint env.ts);
         ack ()
       end
       else begin
         let txn = W.Txn_store.begin_txn env.ts in
         let nw = 1 + Ironsafe_sim.Prng.rand_int prng 3 in
         let ws =
           List.init nw (fun j ->
               ( Ironsafe_sim.Prng.rand_int prng env.data_pages,
                 Printf.sprintf "s%d-i%d-j%d" seed i j ))
         in
         List.iter
           (fun (p, v) -> W.Txn_store.txn_write env.ts txn ~page:p v)
           ws;
         match W.Txn_store.commit_txn ~sync:(i mod 2 = 0) env.ts txn with
         | Ok (`Durable lsn) | Ok (`Queued lsn) ->
             queued := !queued @ [ (lsn, ws) ];
             ack ()
         | Error e -> Alcotest.failf "commit: %a" W.Txn_store.pp_error e
       end;
       if i mod 5 = 4 then begin
         env.now := !(env.now) +. 2_000.0;
         ok_exn W.Txn_store.pp_error (W.Txn_store.tick env.ts);
         ack ()
       end
     done
   with W.Wal.Crashed s ->
     crashed := Some s;
     ack ());
  (model, !crashed)

let check_recovered env model =
  for p = 0 to env.data_pages - 1 do
    (* a torn or stale page would either fail verification here or
       mismatch the acked model *)
    Alcotest.(check string)
      (Printf.sprintf "page %d matches acked state" p)
      (Hashtbl.find model p) (read env p)
  done

let test_crash_at_every_point () =
  let jsonl_out = Sys.getenv_opt "IRONSAFE_WAL_JSONL" in
  let was_obs = Obs.enabled () in
  if jsonl_out <> None && not was_obs then Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      (match jsonl_out with
      | Some path ->
          let oc = open_out path in
          output_string oc (Ev.to_jsonl ());
          close_out oc
      | None -> ());
      if jsonl_out <> None && not was_obs then Obs.disable ())
  @@ fun () ->
  List.iter
    (fun site ->
      List.iter
        (fun seed ->
          let env =
            fresh ~page_mode:ci_page_mode ~window_ns:2_000.0
              ~seed:(Printf.sprintf "crash-%s-%d" (Fault.site_name site) seed)
              ()
          in
          let model, crashed = run_until_crash env ~site ~seed in
          (match crashed with
          | Some s ->
              Alcotest.(check string) "expected site fired"
                (Fault.site_name site) (Fault.site_name s)
          | None ->
              Alcotest.failf "site %s never fired" (Fault.site_name site));
          let _records = reboot env in
          check_recovered env model;
          (* the system accepts new work after recovery *)
          W.Txn_store.set_faults env.ts Fault.none;
          (match commit_pages env [ (0, "post-recovery") ] with
          | `Durable _ -> ()
          | `Queued _ -> Alcotest.fail "sync commit not durable");
          Alcotest.(check string) "post-recovery write" "post-recovery"
            (read env 0))
        seeds)
    Fault.wal_sites

(* -- recovery idempotence ---------------------------------------------- *)

let recovery_events mark =
  List.filteri (fun i _ -> i >= mark) (Ev.events ())
  |> List.filter (fun e ->
         e.Ev.e_scope = "wal"
         && (e.Ev.e_kind = "wal.recover" || e.Ev.e_kind = "wal.redo"))
  |> List.map (fun e -> (e.Ev.e_kind, e.Ev.e_fields))

let test_recovery_idempotent () =
  let was_obs = Obs.enabled () in
  if not was_obs then Obs.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_obs then Obs.disable ())
    (fun () ->
      List.iter
        (fun seed ->
          let env =
            fresh ~page_mode:ci_page_mode ~window_ns:2_000.0
              ~seed:(Printf.sprintf "idem-%d" seed)
              ()
          in
          let model, crashed =
            run_until_crash env ~site:Fault.Wal_crash_mid_flush ~seed
          in
          Alcotest.(check bool) "crashed" true (crashed <> None);
          let pages = List.init env.data_pages Fun.id in
          let mark1 = Ev.length () in
          ignore (reboot env);
          let h1 = W.Txn_store.state_hash env.ts ~pages in
          let ev1 = recovery_events mark1 in
          check_recovered env model;
          (* power-cycle again with no intervening work: byte-identical
             logical state, and the recovery JSONL replays nothing *)
          let mark2 = Ev.length () in
          let records2 = reboot env in
          let h2 = W.Txn_store.state_hash env.ts ~pages in
          let ev2 = recovery_events mark2 in
          Alcotest.(check string) "state hash stable" h1 h2;
          Alcotest.(check int) "second recovery replays nothing" 0
            (List.length records2);
          check_recovered env model;
          (* both recoveries land on the same durable horizon, so the
             second's events describe an empty redo *)
          (match (ev1, ev2) with
          | ( [ ("wal.recover", f1); ("wal.redo", _) ],
              [ ("wal.recover", f2); ("wal.redo", r2) ] ) ->
              let durable f = List.assoc "durable_lsn" f in
              Alcotest.(check bool) "same durable horizon" true
                (durable f1 = durable f2);
              Alcotest.(check bool) "no records second time" true
                (List.assoc "records" r2 = Ev.I 0)
          | _ -> Alcotest.fail "unexpected recovery event shape"))
        seeds)

(* -- nonce freshness across reboots ------------------------------------ *)

let test_no_nonce_reuse_after_recovery () =
  let env = fresh ~page_mode:Sec.Ctr ~window_ns:5_000.0 ~seed:"nonce" () in
  (* persist frames for LSNs the recovery will roll back: crash between
     the device writes and the anchor bump *)
  let plan =
    Fault.make
      ~clock:(fun () -> !(env.now))
      ~seed:7
      [ (Fault.Wal_crash_before_anchor, Fault.rule ~max_fires:1 ()) ]
  in
  W.Txn_store.set_faults env.ts plan;
  ignore (commit_pages ~sync:false env [ (0, "doomed-0") ]);
  ignore (commit_pages ~sync:false env [ (1, "doomed-1") ]);
  (try
     ignore (W.Txn_store.flush env.ts);
     Alcotest.fail "crash site did not fire"
   with W.Wal.Crashed _ -> ());
  (* the frames are on the device though never acknowledged *)
  let pre = W.Wal.scan_nonces env.wal_dev in
  Alcotest.(check bool) "pre-crash frames persisted" true
    (List.length pre >= 6);
  let pre_ctr_iv = String.sub (S.Block_device.read_page env.device 0) 0 16 in
  ignore (reboot env);
  W.Txn_store.set_faults env.ts Fault.none;
  (* the same LSNs are reassigned after recovery; same-length payloads
     overwrite the rolled-back frames byte-for-byte, so the raw scan
     below compares new frames against old at identical offsets *)
  ignore (commit_pages env [ (0, "newval-0") ]);
  ignore (commit_pages env [ (1, "newval-1") ]);
  let post = W.Wal.scan_nonces env.wal_dev in
  List.iter
    (fun (lsn, nonce) ->
      match List.assoc_opt lsn pre with
      | Some old_nonce ->
          Alcotest.(check bool)
            (Printf.sprintf "lsn %d record nonce differs across boots" lsn)
            true
            (not (String.equal nonce old_nonce))
      | None -> ())
    post;
  (* ...and a post-recovery CTR page write at the same page coordinates
     draws a different nonce (fresh per-boot salt) *)
  ok_exn W.Txn_store.pp_error (W.Txn_store.checkpoint env.ts);
  let post_ctr_iv = String.sub (S.Block_device.read_page env.device 0) 0 16 in
  Alcotest.(check bool) "page nonce differs across boots" true
    (not (String.equal pre_ctr_iv post_ctr_iv))

(* -- deployment integration -------------------------------------------- *)

let small_populate db = ignore (Tpch.Dbgen.populate db ~scale:0.002)

let row_strings r = Array.to_list (Array.map Sql.Value.to_string r)

let test_wal_off_matches_wal_on_results () =
  let mk wal =
    Deployment.create ~seed:"wal-ident" ~wal ~populate:small_populate ()
  in
  let off = mk false and on_ = mk true in
  Alcotest.(check bool) "off has no txn store" true
    (Deployment.txn_store off = None);
  Alcotest.(check bool) "on has txn store" true
    (Deployment.txn_store on_ <> None);
  let sql = "select count(*), sum(l_quantity) from lineitem" in
  let canon (m : Runner.metrics) =
    List.map row_strings m.Runner.result.Sql.Exec.rows
  in
  List.iter
    (fun cfg ->
      let m_off = Runner.run_query off cfg sql in
      let m_on = Runner.run_query on_ cfg sql in
      Alcotest.(check (list (list string)))
        (Config.abbrev cfg ^ " results identical with WAL on")
        (canon m_off) (canon m_on))
    [ Config.Hos; Config.Sos ]

let test_wal_off_deployments_byte_identical () =
  let mk () = Deployment.create ~seed:"wal-det" ~populate:small_populate () in
  let a = mk () and b = mk () in
  let pages d = S.Block_device.page_count d in
  Alcotest.(check int) "same device size"
    (pages a.Deployment.device_secure)
    (pages b.Deployment.device_secure);
  for p = 0 to pages a.Deployment.device_secure - 1 do
    if
      not
        (String.equal
           (S.Block_device.read_page a.Deployment.device_secure p)
           (S.Block_device.read_page b.Deployment.device_secure p))
    then Alcotest.failf "secure device page %d differs" p
  done

let test_runner_crash_then_reboot () =
  let faults =
    Fault.make ~seed:5 [ (Fault.Wal_crash_mid_flush, Fault.rule ~max_fires:1 ()) ]
  in
  let d =
    Deployment.create ~seed:"runner-crash" ~wal:true ~faults
      ~populate:small_populate ()
  in
  let insert =
    "insert into region values (7, 'ATLANTIS', 'sunk beneath the waves')"
  in
  (match Runner.run_query_outcome d Config.Sos insert with
  | Runner.Crashed v ->
      Alcotest.(check bool) "names a wal site" true
        (List.mem v.Runner.v_site (List.map Fault.site_name Fault.wal_sites))
  | Runner.Ok _ | Runner.Degraded _ ->
      Alcotest.fail "crash fault did not fire"
  | Runner.Rejected v ->
      Alcotest.failf "rejected instead of crashed: %a" Runner.pp_violation v);
  (match Deployment.reboot_secure d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reboot failed: %s" e);
  (* the unacknowledged insert was rolled back; the engine accepts new
     work and serves consistent reads *)
  (match Runner.run_query_outcome d Config.Sos "select count(*) from region" with
  | Runner.Ok m | Runner.Degraded (m, _) ->
      Alcotest.(check (list (list string)))
        "rolled back to 5 regions"
        [ [ "5" ] ]
        (List.map row_strings m.Runner.result.Sql.Exec.rows)
  | Runner.Rejected v | Runner.Crashed v ->
      Alcotest.failf "post-reboot query failed: %a" Runner.pp_violation v);
  match Runner.run_query_outcome d Config.Sos insert with
  | Runner.Ok _ | Runner.Degraded _ -> (
      match
        Runner.run_query_outcome d Config.Sos "select count(*) from region"
      with
      | Runner.Ok m | Runner.Degraded (m, _) ->
          Alcotest.(check (list (list string)))
            "post-reboot insert visible"
            [ [ "6" ] ]
            (List.map row_strings m.Runner.result.Sql.Exec.rows)
      | Runner.Rejected v | Runner.Crashed v ->
          Alcotest.failf "count failed: %a" Runner.pp_violation v)
  | Runner.Rejected v | Runner.Crashed v ->
      Alcotest.failf "post-reboot insert failed: %a" Runner.pp_violation v

(* Crash-after-ack through the client front door: inserts submitted
   via [Engine.submit] on a WAL deployment, driven to a crash at each
   WAL fault site. Every insert [submit] acknowledged must survive
   [Deployment.reboot_secure]; the one in flight when the power went
   may or may not; the plain replica mirrors acknowledged inserts
   only. *)
let test_engine_submit_crash_after_ack () =
  let keys rows =
    List.sort compare
      (List.map
         (function [| Sql.Value.Int k |] -> k | _ -> Alcotest.fail "row shape")
         rows)
  in
  List.iter
    (fun site ->
      List.iter
        (fun seed ->
          let name = Printf.sprintf "%s seed %d" (Fault.site_name site) seed in
          let d =
            Deployment.create
              ~seed:(Printf.sprintf "submit-crash-%s-%d" (Fault.site_name site) seed)
              ~wal:true ~crypto_mode:ci_page_mode
              ~populate:(fun db ->
                ignore (Sql.Database.exec db "create table acked (k int)"))
              ()
          in
          let e = Engine.create d in
          ignore (Engine.register_client e ~label:"K" ());
          Engine.set_access_policy e
            "read ::= sessionKeyIs(K)\nwrite ::= sessionKeyIs(K)";
          let ts = Option.get (Deployment.txn_store d) in
          let now = ref 0.0 in
          let after_ns = 2_000.0 +. float_of_int (seed mod 5) *. 3_000.0 in
          W.Txn_store.set_faults ts
            (Fault.make
               ~clock:(fun () -> !now)
               ~seed
               [ (site, Fault.rule ~max_fires:1 ~after_ns ()) ]);
          let acked = ref [] and in_flight = ref None in
          let i = ref 0 in
          while !in_flight = None && !i < 30 do
            now := !now +. 1_000.0;
            (if !i mod 7 = 3 then
               match W.Txn_store.checkpoint ts with
               | Ok () -> ()
               | Error err -> Alcotest.failf "checkpoint: %a" W.Txn_store.pp_error err
               | exception W.Wal.Crashed _ -> in_flight := Some (-1)
             else
               match
                 Engine.submit e ~client:"K"
                   ~sql:(Printf.sprintf "insert into acked values (%d)" !i)
                   ()
               with
               | Ok _ -> acked := !i :: !acked
               | Error err ->
                   Alcotest.(check bool)
                     (name ^ ": only a crash fails an insert") true
                     (String.starts_with ~prefix:"query crashed" err);
                   in_flight := Some !i);
            incr i
          done;
          if !in_flight = None then Alcotest.failf "%s: never fired" name;
          (match Deployment.reboot_secure d with
          | Ok () -> ()
          | Error err -> Alcotest.failf "%s: reboot: %s" name err);
          let acked = List.sort compare !acked in
          let recovered =
            match
              Engine.submit e ~client:"K" ~config:Config.Sos
                ~sql:"select k from acked" ()
            with
            | Ok r -> keys r.Engine.resp_result.Sql.Exec.rows
            | Error err -> Alcotest.failf "%s: read back: %s" name err
          in
          List.iter
            (fun k ->
              if not (List.mem k recovered) then
                Alcotest.failf "%s: acknowledged insert %d lost" name k)
            acked;
          List.iter
            (fun k ->
              if not (List.mem k acked || Some k = !in_flight) then
                Alcotest.failf "%s: insert %d was never submitted" name k)
            recovered;
          Alcotest.(check (list int)) (name ^ ": replica mirrors acked only")
            acked
            (keys
               (Sql.Database.query d.Deployment.plain_db "select k from acked")
                 .Sql.Exec.rows))
        seeds)
    Fault.wal_sites

let suite =
  [
    Alcotest.test_case "record roundtrip" `Quick test_record_roundtrip;
    Alcotest.test_case "append/flush/recover" `Quick test_append_flush_recover;
    Alcotest.test_case "checkpoint then recover" `Quick
      test_checkpoint_then_recover;
    Alcotest.test_case "tampered log detected" `Quick
      test_tampered_log_detected;
    Alcotest.test_case "rollback detected" `Quick test_truncated_log_detected;
    Alcotest.test_case "forked log detected" `Quick test_forked_log_detected;
    Alcotest.test_case "group commit amortizes anchors" `Quick
      test_group_commit_amortizes_anchors;
    Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
    Alcotest.test_case "snapshot survives checkpoint" `Quick
      test_snapshot_survives_checkpoint;
    Alcotest.test_case "latest read with pin across checkpoints" `Quick
      test_latest_read_with_pin_across_checkpoints;
    Alcotest.test_case "log full rolls back and checkpoint unwedges" `Quick
      test_log_full_rolls_back_and_checkpoint_unwedges;
    Alcotest.test_case "crash at every point" `Slow test_crash_at_every_point;
    Alcotest.test_case "recovery idempotent" `Slow test_recovery_idempotent;
    Alcotest.test_case "no nonce reuse after recovery" `Quick
      test_no_nonce_reuse_after_recovery;
    Alcotest.test_case "wal off/on result identity" `Quick
      test_wal_off_matches_wal_on_results;
    Alcotest.test_case "wal-off deployments byte-identical" `Quick
      test_wal_off_deployments_byte_identical;
    Alcotest.test_case "runner crash then reboot" `Quick
      test_runner_crash_then_reboot;
    Alcotest.test_case "engine submit crash after ack" `Slow
      test_engine_submit_crash_after_ack;
  ]
