(* Pinned figures: the virtual clock and the page-read order of a fixed
   query corpus, compared line by line against committed goldens. An
   executor change that claims "every figure unchanged" must pass these
   without regenerating them; a change that moves a counter on purpose
   shows the drift as a diff.

   Corpus: the 17 evaluated TPC-H queries plus 220 queries drawn from
   the differential generator under a fixed seed.

   - pinned_clock.golden: per query and per Table-2 config, a digest of
     [end_to_end_ns] (IEEE bits), bytes shipped, pages scanned, pool
     hits, host and storage row steps, both per-category breakdowns and
     the result rows. The deployment has a small buffer pool so hit
     counts are part of what is pinned.
   - pinned_reads.golden: per query, a digest of the page-id sequence a
     logging pager over the secure store sees, for whole-query
     execution (hos/sos) and for the offloaded scans (scs).
   - pinned_cluster.golden: the pinned_clock digest of the TPC-H
     queries and the first 40 generated ones, run through a 2-shard
     hash cluster and a 4-shard range cluster.

   Regenerate (only when a change moves these figures on purpose) with
   IRONSAFE_WRITE_GOLDEN=$PWD/test/golden/<file>.golden, running this
   suite alone. *)

open Ironsafe
module Sql = Ironsafe_sql
module Sec = Ironsafe_securestore
module Tpch = Ironsafe_tpch
module C = Ironsafe_crypto
module S = Ironsafe_storage

let scale = 0.002

let corpus =
  lazy
    (let tpch =
       List.map
         (fun (q : Tpch.Queries.t) -> (Printf.sprintf "tpch q%02d" q.id, q.sql))
         Tpch.Queries.all
     in
     let rand = Random.State.make [| 23 |] in
     let diff =
       QCheck.Gen.generate ~rand ~n:220 Test_differential.query_gen
       |> List.mapi (fun i sql -> (Printf.sprintf "diff %03d" i, sql))
     in
     tpch @ diff)

let short_digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

let check_golden name got =
  match Sys.getenv_opt "IRONSAFE_WRITE_GOLDEN" with
  | Some path when Filename.basename path = name ->
      let oc = open_out_bin path in
      output_string oc got;
      close_out oc
  | _ ->
      let path =
        List.find Sys.file_exists [ "golden/" ^ name; "test/golden/" ^ name ]
      in
      let ic = open_in_bin path in
      let want = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let lines s = String.split_on_char '\n' s in
      (* name the first diverging line rather than dumping both files *)
      let rec first_diff = function
        | w :: ws, g :: gs -> if w = g then first_diff (ws, gs) else Some (w, g)
        | [], [] -> None
        | w :: _, [] -> Some (w, "<missing>")
        | [], g :: _ -> Some ("<missing>", g)
      in
      match first_diff (lines want, lines got) with
      | None -> ()
      | Some (w, g) -> Alcotest.failf "%s: first difference@.want %s@.got  %s" name w g

(* -- virtual clock and counters ------------------------------------------ *)

let metrics_line (m : Runner.metrics) =
  let b = Buffer.create 256 in
  let bits f = Printf.bprintf b "%Lx;" (Int64.bits_of_float f) in
  bits m.Runner.end_to_end_ns;
  Printf.bprintf b "%d;%d;%d;%d;%d;" m.Runner.bytes_shipped
    m.Runner.pages_scanned m.Runner.page_hits m.Runner.host_rows
    m.Runner.storage_rows;
  List.iter
    (fun (cat, ns) ->
      Printf.bprintf b "%s=" cat;
      bits ns)
    (m.Runner.host_breakdown @ ("|", 0.0) :: m.Runner.storage_breakdown);
  List.iter
    (fun r -> Buffer.add_string b (Sql.Row.encode r))
    m.Runner.result.Sql.Exec.rows;
  short_digest (Buffer.contents b)

let pinned_deployment () =
  Deployment.create ~seed:"pinned" ~pool_frames:16
    ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale))
    ()

let test_clock_golden () =
  let d = pinned_deployment () in
  let out = Buffer.create 65536 in
  List.iter
    (fun (tag, sql) ->
      List.iter
        (fun cfg ->
          let m = Runner.run_query d cfg sql in
          Printf.bprintf out "%s %s %s\n" tag (Config.abbrev cfg)
            (metrics_line m))
        Config.all)
    (Lazy.force corpus);
  check_golden "pinned_clock.golden" (Buffer.contents out)

(* -- the same figures through the sharded cluster ------------------------- *)

(* The 17 TPC-H queries and the first 40 generated ones, under every
   config, through a 2-shard hash cluster and a 4-shard range cluster
   over the same deployment. The shards' media carry no buffer pool, so
   the base deployment's pool must not reach the cluster's charges. *)
let test_cluster_clock_golden () =
  let d = pinned_deployment () in
  let module Cluster = Ironsafe_cluster.Cluster in
  let queries =
    List.filteri (fun i _ -> i < List.length Tpch.Queries.all + 40)
      (Lazy.force corpus)
  in
  let out = Buffer.create 32768 in
  List.iter
    (fun (ctag, shards, scheme) ->
      let cl = Cluster.create ~shards ~scheme d in
      (match Cluster.attest cl with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: attestation failed: %s" ctag e);
      List.iter
        (fun (tag, sql) ->
          List.iter
            (fun cfg ->
              let m = Cluster.run_query cl cfg sql in
              Printf.bprintf out "%s %s %s %s\n" ctag tag (Config.abbrev cfg)
                (metrics_line m))
            Config.all)
        queries)
    [ ("2h", 2, Partitioner.Hash); ("4r", 4, Partitioner.Range) ];
  check_golden "pinned_cluster.golden" (Buffer.contents out)

(* -- page-read order on the secure medium --------------------------------- *)

let test_read_order_golden () =
  let plain = Sql.Database.create ~pager:(Sql.Pager.in_memory ()) in
  ignore (Tpch.Dbgen.populate plain ~scale);
  let data_pages = Sql.Catalog.total_pages (Sql.Database.catalog plain) + 16 in
  let device =
    S.Block_device.create
      ~pages:(Sec.Secure_store.device_pages_for ~data_pages)
  in
  let store =
    match
      Sec.Secure_store.initialize ~device ~rpmb:(S.Rpmb.create ())
        ~hardware_key:(String.make 32 'P') ~data_pages
        ~drbg:(C.Drbg.create ~seed:"pinned-reads") ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "init: %a" Sec.Secure_store.pp_error e
  in
  let base = Sql.Pager.secure store in
  let log = Buffer.create 4096 in
  let logging =
    Sql.Pager.make ~capacity:(Sql.Pager.capacity base)
      ~read:(fun i ->
        Printf.bprintf log "%d," i;
        Sql.Pager.read base i)
      ~write:(Sql.Pager.write base)
      ~allocate:(fun () -> Sql.Pager.allocate base)
      ~page_count:(fun () -> Sql.Pager.page_count base)
      ()
  in
  let db = Sql.Database.create ~pager:logging in
  let src = Sql.Database.catalog plain in
  List.iter
    (fun name ->
      let schema = Sql.Heap_file.schema (Sql.Catalog.find src name) in
      Sql.Database.create_table db schema;
      Sql.Database.insert_rows db name
        (Sql.Heap_file.to_list (Sql.Catalog.find src name)))
    (Sql.Catalog.table_names src);
  let out = Buffer.create 16384 in
  let record tag mode f =
    Buffer.clear log;
    f ();
    Printf.bprintf out "%s %s %s\n" tag mode (short_digest (Buffer.contents log))
  in
  List.iter
    (fun (tag, sql) ->
      let stmt = Sql.Parser.parse sql in
      record tag "whole" (fun () -> ignore (Sql.Database.exec_ast db stmt));
      record tag "offload" (fun () ->
          let plan = Partitioner.split (Sql.Database.catalog db) stmt in
          ignore (Storage_engine.run_offload db plan)))
    (Lazy.force corpus);
  check_golden "pinned_reads.golden" (Buffer.contents out)

let suite =
  [
    ("virtual clock and counters", `Slow, test_clock_golden);
    ("secure page-read order", `Slow, test_read_order_golden);
    ("pinned cluster clock", `Slow, test_cluster_clock_golden);
  ]
