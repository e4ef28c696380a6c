(* The secure store has one verified read, [Secure_store.read_page]:
   every page that misses the buffer pool costs one device read, one
   MAC check, one decrypt and one modelled Merkle path walk of [depth]
   hashes. The runner charges the virtual clock from exactly these
   counts, so they are pinned here end to end — through the SQL engine,
   the partitioner and the runner — for every Table-2 configuration. *)

open Ironsafe
module Sql = Ironsafe_sql
module Sec = Ironsafe_securestore
module C = Ironsafe_crypto
module Tpch = Ironsafe_tpch

let mk_deploy ?pool_frames () =
  let d =
    Deployment.create ?pool_frames ~seed:"read-path-test"
      ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:0.002))
      ()
  in
  (match Deployment.attest d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "attestation failed: %s" e);
  d

let deploy = lazy (mk_deploy ())

(* a full scan, a filtered scan and a join, so the split configs ship
   both whole tables and pushed-down filters *)
let queries =
  [
    "select count(*) as c from supplier";
    "select c_custkey, c_name from customer where c_acctbal > 5000";
    "select n_name, count(*) as c from supplier, nation where s_nationkey = \
     n_nationkey group by n_name";
  ]

let secure = [ Config.Hos; Config.Scs; Config.Sos ]
let plain = [ Config.Hons; Config.Vcs ]

let depth d =
  let store = d.Deployment.secure_store in
  C.Merkle.depth
    (C.Merkle.create ~key:"depth"
       ~leaves:(Sec.Secure_store.data_page_count store))

let stats d = Sec.Secure_store.stats d.Deployment.secure_store

let label config sql = Printf.sprintf "%s [%s]" (Config.abbrev config) sql

(* Each page a secure configuration reads is verified exactly once:
   the store's counters equal the engine's page reads, one to one. *)
let test_secure_one_verify_per_page () =
  let d = Lazy.force deploy in
  let depth = depth d in
  List.iter
    (fun config ->
      List.iter
        (fun sql ->
          let m = Runner.run_query d config sql in
          let s = stats d in
          let l = label config sql in
          let n = m.Runner.pages_scanned in
          Alcotest.(check bool) (l ^ ": reads pages") true (n > 0);
          Alcotest.(check int) (l ^ ": device_reads = pages") n
            s.Sec.Secure_store.device_reads;
          Alcotest.(check int) (l ^ ": mac checks = pages") n
            s.Sec.Secure_store.page_mac_checks;
          Alcotest.(check int) (l ^ ": decrypts = pages") n
            s.Sec.Secure_store.page_decrypts;
          Alcotest.(check int)
            (l ^ ": merkle hashes = pages x depth")
            (n * depth) s.Sec.Secure_store.merkle_hashes;
          Alcotest.(check int) (l ^ ": no writes") 0
            s.Sec.Secure_store.device_writes)
        queries)
    secure

(* The plain replica never touches the secure medium. *)
let test_plain_skips_secure_store () =
  let d = Lazy.force deploy in
  List.iter
    (fun config ->
      List.iter
        (fun sql ->
          let m = Runner.run_query d config sql in
          let s = stats d in
          let l = label config sql in
          Alcotest.(check bool) (l ^ ": reads pages") true
            (m.Runner.pages_scanned > 0);
          Alcotest.(check int) (l ^ ": no secure reads") 0
            s.Sec.Secure_store.device_reads;
          Alcotest.(check int) (l ^ ": no decrypts") 0
            s.Sec.Secure_store.page_decrypts;
          Alcotest.(check int) (l ^ ": no merkle hashes") 0
            s.Sec.Secure_store.merkle_hashes)
        queries)
    plain

(* The whole-query secure configs run the same plan over the same
   store, so they read the same pages; a second cold run repeats every
   count exactly. *)
let test_counts_repeat () =
  let d = Lazy.force deploy in
  let counts config sql =
    ignore (Runner.run_query d config sql);
    let s = stats d in
    ( s.Sec.Secure_store.device_reads,
      s.Sec.Secure_store.page_mac_checks,
      s.Sec.Secure_store.page_decrypts,
      s.Sec.Secure_store.merkle_hashes )
  in
  let t4 = Alcotest.(pair (pair int int) (pair int int)) in
  let nest (a, b, c, e) = ((a, b), (c, e)) in
  List.iter
    (fun sql ->
      let hos = nest (counts Config.Hos sql) in
      Alcotest.(check t4) ("hos = sos [" ^ sql ^ "]") hos
        (nest (counts Config.Sos sql));
      List.iter
        (fun config ->
          let first = nest (counts config sql) in
          Alcotest.(check t4) ("cold rerun " ^ label config sql) first
            (nest (counts config sql)))
        secure)
    queries

(* A buffer-pool hit is served decrypted: only misses reach the
   verified read, and each miss still pays for exactly one. *)
let test_pool_hits_skip_verified_read () =
  let d = mk_deploy ~pool_frames:4096 () in
  let depth = depth d in
  let stmt = Sql.Parser.parse (List.hd queries) in
  List.iter
    (fun config ->
      let m1 = Runner.run_stmt d config stmt in
      let s = stats d in
      let reads1 = s.Sec.Secure_store.device_reads in
      let l = Config.abbrev config in
      Alcotest.(check int) (l ^ ": cold reads = pages") m1.Runner.pages_scanned
        reads1;
      (* warm rerun: counters accumulate without a reset *)
      let m2 = Runner.run_stmt ~reset:false d config stmt in
      let s = stats d in
      let reads2 = s.Sec.Secure_store.device_reads - reads1 in
      Alcotest.(check bool) (l ^ ": warm run hits") true
        (m2.Runner.page_hits > 0);
      Alcotest.(check int) (l ^ ": warm reads = misses") m2.Runner.pages_scanned
        reads2;
      Alcotest.(check int) (l ^ ": decrypts = all misses")
        (reads1 + reads2) s.Sec.Secure_store.page_decrypts;
      Alcotest.(check int) (l ^ ": merkle hashes = all misses x depth")
        ((reads1 + reads2) * depth)
        s.Sec.Secure_store.merkle_hashes;
      Alcotest.(check bool) (l ^ ": identical rows") true
        (m1.Runner.result = m2.Runner.result))
    secure

let suite =
  [
    ("secure: one verify per page", `Quick, test_secure_one_verify_per_page);
    ("plain: no secure store reads", `Quick, test_plain_skips_secure_store);
    ("counts repeat across runs", `Quick, test_counts_repeat);
    ("pool hits skip verified read", `Quick,
     test_pool_hits_skip_verified_read);
  ]
