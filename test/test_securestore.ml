(* Secure page store tests: confidentiality, integrity, freshness,
   reboot recovery, and detection of every attack in the threat model
   (§3.3): tampering, displacement, rollback, forking. *)

module S = Ironsafe_storage
module Sec = Ironsafe_securestore
module C = Ironsafe_crypto
module Obs = Ironsafe_obs.Obs
module Metrics = Ironsafe_obs.Metrics

let hardware_key = String.make 32 'H'

let setup ?(data_pages = 8) () =
  let device =
    S.Block_device.create ~pages:(Sec.Secure_store.device_pages_for ~data_pages)
  in
  let rpmb = S.Rpmb.create () in
  let drbg = C.Drbg.create ~seed:"securestore-test" in
  match
    Sec.Secure_store.initialize ~device ~rpmb ~hardware_key ~data_pages ~drbg
      ()
  with
  | Ok store -> (device, rpmb, store, drbg)
  | Error e -> Alcotest.failf "init failed: %a" Sec.Secure_store.pp_error e

let write_ok store i data =
  match Sec.Secure_store.write_page store i data with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write %d failed: %a" i Sec.Secure_store.pp_error e

let read_ok store i =
  match Sec.Secure_store.read_page store i with
  | Ok data -> data
  | Error e -> Alcotest.failf "read %d failed: %a" i Sec.Secure_store.pp_error e

let test_roundtrip () =
  let _, _, store, _ = setup () in
  write_ok store 0 "hello secure world";
  write_ok store 7 (String.make Sec.Secure_store.capacity 'z');
  Alcotest.(check string) "page 0" "hello secure world" (read_ok store 0);
  Alcotest.(check string) "page 7 full" (String.make Sec.Secure_store.capacity 'z')
    (read_ok store 7);
  write_ok store 0 "overwritten";
  Alcotest.(check string) "overwrite" "overwritten" (read_ok store 0)

let test_bounds_and_capacity () =
  let _, _, store, _ = setup () in
  Alcotest.check_raises "index oob"
    (Invalid_argument "Secure_store.read_page: index out of range") (fun () ->
      ignore (Sec.Secure_store.read_page store 8));
  Alcotest.check_raises "payload too large"
    (Invalid_argument "Secure_store.write_page: payload exceeds page capacity")
    (fun () ->
      ignore
        (Sec.Secure_store.write_page store 0
           (String.make (Sec.Secure_store.capacity + 1) 'x')))

let test_confidentiality () =
  let device, _, store, _ = setup () in
  let secret = "very-secret-customer-record" in
  write_ok store 3 secret;
  (* the raw medium must not contain the plaintext *)
  let raw = S.Block_device.read_page device 3 in
  let contains hay needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "plaintext not on medium" false (contains raw secret)

let test_tamper_detected () =
  let device, _, store, _ = setup () in
  write_ok store 2 "integrity protected";
  (* flip a ciphertext byte (the page layout is IV | MAC | len | ct) *)
  S.Block_device.tamper device ~page:2 ~offset:55;
  match Sec.Secure_store.read_page store 2 with
  | Error (Sec.Secure_store.Tampered_page 2) -> ()
  | Ok _ -> Alcotest.fail "tampered page read back successfully"
  | Error e -> Alcotest.failf "unexpected error: %a" Sec.Secure_store.pp_error e

let test_displacement_detected () =
  let device, _, store, _ = setup () in
  write_ok store 0 "page zero";
  write_ok store 1 "page one";
  S.Block_device.swap_pages device 0 1;
  (match Sec.Secure_store.read_page store 0 with
  | Error (Sec.Secure_store.Tampered_page 0) -> ()
  | Ok _ -> Alcotest.fail "displaced page accepted"
  | Error e -> Alcotest.failf "unexpected error: %a" Sec.Secure_store.pp_error e);
  match Sec.Secure_store.read_page store 1 with
  | Error (Sec.Secure_store.Tampered_page 1) -> ()
  | Ok _ -> Alcotest.fail "displaced page accepted"
  | Error e -> Alcotest.failf "unexpected error: %a" Sec.Secure_store.pp_error e

let test_reopen () =
  let device, rpmb, store, _ = setup () in
  write_ok store 4 "survives reboot";
  let drbg2 = C.Drbg.create ~seed:"reboot" in
  match
    Sec.Secure_store.open_existing ~device ~rpmb ~hardware_key ~data_pages:8
      ~drbg:drbg2 ()
  with
  | Error e -> Alcotest.failf "reopen failed: %a" Sec.Secure_store.pp_error e
  | Ok store2 ->
      Alcotest.(check string) "data recovered" "survives reboot" (read_ok store2 4)

let test_rollback_detected () =
  let device, rpmb, store, _ = setup () in
  write_ok store 0 "version 1";
  S.Block_device.snapshot device ~name:"old";
  write_ok store 0 "version 2";
  (* adversary reverts the whole medium (data + Merkle metadata) *)
  (match S.Block_device.rollback device ~name:"old" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let drbg2 = C.Drbg.create ~seed:"after-rollback" in
  match
    Sec.Secure_store.open_existing ~device ~rpmb ~hardware_key ~data_pages:8
      ~drbg:drbg2 ()
  with
  | Error Sec.Secure_store.Stale_root -> ()
  | Ok _ -> Alcotest.fail "rollback went undetected"
  | Error e -> Alcotest.failf "unexpected error: %a" Sec.Secure_store.pp_error e

let test_fork_detected () =
  let device, rpmb, store, _ = setup () in
  write_ok store 0 "pre-fork";
  let replica = S.Block_device.fork device in
  (* the real store moves on; the RPMB (inside the SoC) moves with it *)
  write_ok store 0 "post-fork";
  let drbg2 = C.Drbg.create ~seed:"fork" in
  match
    Sec.Secure_store.open_existing ~device:replica ~rpmb ~hardware_key
      ~data_pages:8 ~drbg:drbg2 ()
  with
  | Error Sec.Secure_store.Stale_root -> ()
  | Ok _ -> Alcotest.fail "forked replica accepted"
  | Error e -> Alcotest.failf "unexpected error: %a" Sec.Secure_store.pp_error e

let test_wrong_hardware_key () =
  let device, rpmb, store, _ = setup () in
  write_ok store 0 "locked to SoC";
  let drbg2 = C.Drbg.create ~seed:"wrong-huk" in
  match
    Sec.Secure_store.open_existing ~device ~rpmb
      ~hardware_key:(String.make 32 'X') ~data_pages:8 ~drbg:drbg2 ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "opened with wrong hardware key"

let test_stats_counting () =
  let _, _, store, _ = setup () in
  Sec.Secure_store.reset_stats store;
  write_ok store 0 "counted";
  let s = Sec.Secure_store.stats store in
  Alcotest.(check int) "one encrypt" 1 s.Sec.Secure_store.page_encrypts;
  Alcotest.(check bool) "merkle work done" true (s.Sec.Secure_store.merkle_hashes > 0);
  Alcotest.(check bool) "rpmb anchored" true (s.Sec.Secure_store.rpmb_accesses > 0);
  Sec.Secure_store.reset_stats store;
  ignore (read_ok store 0);
  let s = Sec.Secure_store.stats store in
  Alcotest.(check int) "one decrypt" 1 s.Sec.Secure_store.page_decrypts;
  Alcotest.(check int) "no encrypts on read" 0 s.Sec.Secure_store.page_encrypts;
  Alcotest.(check bool) "freshness verified" true (s.Sec.Secure_store.merkle_hashes > 0)

let test_iv_uniqueness () =
  let device, _, store, _ = setup () in
  write_ok store 0 "same plaintext";
  let raw1 = S.Block_device.read_page device 0 in
  write_ok store 0 "same plaintext";
  let raw2 = S.Block_device.read_page device 0 in
  Alcotest.(check bool) "fresh IV per write" true (raw1 <> raw2)

let test_per_page_keys () =
  let data_pages = 8 in
  let device =
    S.Block_device.create ~pages:(Sec.Secure_store.device_pages_for ~data_pages)
  in
  let rpmb = S.Rpmb.create () in
  let drbg = C.Drbg.create ~seed:"per-page" in
  let store =
    match
      Sec.Secure_store.initialize ~key_mode:Sec.Secure_store.Per_page_keys
        ~device ~rpmb ~hardware_key ~data_pages ~drbg ()
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "init: %a" Sec.Secure_store.pp_error e
  in
  write_ok store 0 "page zero secret";
  write_ok store 5 "page five secret";
  Alcotest.(check string) "roundtrip p0" "page zero secret" (read_ok store 0);
  Alcotest.(check string) "roundtrip p5" "page five secret" (read_ok store 5);
  (* reopening in the same mode recovers the data *)
  (match
     Sec.Secure_store.open_existing ~key_mode:Sec.Secure_store.Per_page_keys
       ~device ~rpmb ~hardware_key ~data_pages
       ~drbg:(C.Drbg.create ~seed:"pp-reopen") ()
   with
  | Ok store2 ->
      Alcotest.(check string) "recovered" "page zero secret" (read_ok store2 0)
  | Error e -> Alcotest.failf "reopen: %a" Sec.Secure_store.pp_error e);
  (* opening in single-key mode cannot decrypt the pages *)
  match
    Sec.Secure_store.open_existing ~device ~rpmb ~hardware_key ~data_pages
      ~drbg:(C.Drbg.create ~seed:"pp-wrong") ()
  with
  | Error _ -> ()
  | Ok store3 -> (
      match Sec.Secure_store.read_page store3 0 with
      | Ok plain ->
          Alcotest.(check bool) "wrong mode decrypts garbage" true
            (plain <> "page zero secret")
      | Error _ -> ())

(* The root-MAC memo (read_page avoids recomputing HMAC(task_key, root)
   when the root is unchanged) must never serve a stale value. Interleave
   writes — each moves the Merkle root — with freshness-checked reads,
   force RPMB counter resyncs mid-stream, reboot, and finally roll the
   medium back: every legitimate read must verify, and the rollback must
   still be rejected with [Stale_root]. *)
let test_root_mac_memo_freshness () =
  let device, rpmb, store, _ = setup () in
  (* write -> read -> write -> read: a memo keyed on anything stale
     would make the post-write freshness check compare against the
     previous root's MAC and fail (or, worse, accept a wrong root) *)
  for i = 0 to 7 do
    write_ok store i (Printf.sprintf "v1 page %d" i);
    Alcotest.(check string) "read after write"
      (Printf.sprintf "v1 page %d" i)
      (read_ok store i)
  done;
  (* repeated reads of an unchanged root hit the memo and still verify *)
  for _ = 1 to 3 do
    ignore (read_ok store 0)
  done;
  (* an injected RPMB counter desync forces a resync + re-anchor during
     the next writes; reads after the resync must see the new anchor,
     not a memoized MAC of the pre-resync root *)
  let faults =
    Ironsafe_fault.Fault.(
      make ~seed:11 [ (Rpmb_desync, rule ~prob:1.0 ~max_fires:2 ()) ])
  in
  Ironsafe_fault.Fault.set_clock faults (fun () -> 0.0);
  S.Rpmb.set_faults rpmb faults;
  Sec.Secure_store.set_faults store faults;
  write_ok store 2 "v2 after desync";
  Alcotest.(check string) "read across resync" "v2 after desync"
    (read_ok store 2);
  write_ok store 3 "v2 again";
  Alcotest.(check string) "read across second resync" "v2 again"
    (read_ok store 3);
  Alcotest.(check int) "desyncs were injected" 2
    (Ironsafe_fault.Fault.stats faults).Ironsafe_fault.Fault.injected;
  (* reboot: a fresh store starts with a cold memo and must recover *)
  (match
     Sec.Secure_store.open_existing ~device ~rpmb ~hardware_key ~data_pages:8
       ~drbg:(C.Drbg.create ~seed:"memo-reboot") ()
   with
  | Ok store2 ->
      Alcotest.(check string) "recovered after reboot" "v2 after desync"
        (read_ok store2 2)
  | Error e -> Alcotest.failf "reopen: %a" Sec.Secure_store.pp_error e);
  (* and the memo must not have weakened rollback detection *)
  S.Block_device.snapshot device ~name:"pre";
  write_ok store 4 "v3";
  (match S.Block_device.rollback device ~name:"pre" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match
    Sec.Secure_store.open_existing ~device ~rpmb ~hardware_key ~data_pages:8
      ~drbg:(C.Drbg.create ~seed:"memo-rollback") ()
  with
  | Error Sec.Secure_store.Stale_root -> ()
  | Ok _ -> Alcotest.fail "rollback accepted with memoized root MAC"
  | Error e -> Alcotest.failf "unexpected error: %a" Sec.Secure_store.pp_error e

(* Freshness on the live store, with no reboot: the adversary replays
   a page's own older version, which carries a valid MAC. Only the
   compare of that MAC with the trusted Merkle leaf tells it from the
   current version, whether the whole medium (data page and leaf-tag
   metadata) is rolled back or only the data page's old bytes are put
   back. *)
let test_replay_detected () =
  let expect_tampered store what =
    match Sec.Secure_store.read_page store 3 with
    | Error (Sec.Secure_store.Tampered_page 3) -> ()
    | Ok plain -> Alcotest.failf "%s: replayed page read back as %S" what plain
    | Error e ->
        Alcotest.failf "%s: unexpected error: %a" what Sec.Secure_store.pp_error e
  in
  let device, _, store, _ = setup () in
  write_ok store 3 "version 1";
  write_ok store 5 "bystander";
  S.Block_device.snapshot device ~name:"v1";
  write_ok store 3 "version 2";
  (match S.Block_device.rollback device ~name:"v1" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  expect_tampered store "rolled-back medium";
  Alcotest.(check string) "unchanged page still reads" "bystander"
    (read_ok store 5);
  let device, _, store, _ = setup () in
  write_ok store 3 "version 1";
  let v1 = S.Block_device.read_page device 3 in
  write_ok store 3 "version 2";
  S.Block_device.write_page device 3 v1;
  expect_tampered store "restored data page"

(* -- observability instrumentation ------------------------------------- *)

let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* The securestore-scope metrics must match the analytically known
   counts: reading back an N-page store is exactly N page reads, N MAC
   checks, N Merkle path verifications and N decryptions. The store's
   own stats pin what the virtual clock charges: N device reads and
   one HMAC per level of the tree for each page's freshness path. *)
let test_obs_counters_match_analytic () =
  with_obs (fun () ->
      let n = 16 in
      let _, _, store, _ = setup ~data_pages:n () in
      for i = 0 to n - 1 do
        write_ok store i (Printf.sprintf "page %d" i)
      done;
      let before = Obs.metrics () in
      Alcotest.(check int) "writes counted" n
        (Metrics.counter_value before ~scope:"securestore" "pages_written");
      Sec.Secure_store.reset_stats store;
      for i = 0 to n - 1 do
        ignore (read_ok store i)
      done;
      let d = Metrics.diff ~before ~after:(Obs.metrics ()) in
      let count name = Metrics.counter_value d ~scope:"securestore" name in
      Alcotest.(check int) "pages_read = N" n (count "pages_read");
      Alcotest.(check int) "merkle_verifies = N" n (count "merkle_verifies");
      Alcotest.(check int) "page_decrypts = N" n (count "page_decrypts");
      Alcotest.(check int) "hmac_checks = N" n (count "hmac_checks");
      Alcotest.(check int) "no writes during scan" 0 (count "pages_written");
      (* and the registry agrees with the store's own stats *)
      let s = Sec.Secure_store.stats store in
      Alcotest.(check int) "metrics agree with stats"
        s.Sec.Secure_store.page_decrypts (count "page_decrypts");
      Alcotest.(check int) "device_reads = N" n s.Sec.Secure_store.device_reads;
      (* the store's tree has one leaf per data page *)
      let depth = C.Merkle.depth (C.Merkle.create ~key:"depth" ~leaves:n) in
      Alcotest.(check int) "merkle_hashes = N x depth" (n * depth)
        s.Sec.Secure_store.merkle_hashes)

(* A secondary index over the encrypted store must cut the number of
   page decryptions a point query pays, not just the page reads. *)
let test_index_reduces_decrypts () =
  with_obs (fun () ->
      let data_pages = 128 in
      let _, _, store, _ = setup ~data_pages () in
      let db =
        Ironsafe_sql.Database.create ~pager:(Ironsafe_sql.Pager.secure store)
      in
      ignore
        (Ironsafe_sql.Database.exec db "create table t (k int, pad varchar)");
      (* wide rows so the table spans many encrypted pages *)
      let pad = String.make 400 'p' in
      Ironsafe_sql.Database.insert_rows db "t"
        (List.init 400 (fun i ->
             [| Ironsafe_sql.Value.Int i; Ironsafe_sql.Value.Str pad |]));
      let decrypts_of_query () =
        let before = Obs.metrics () in
        (match Ironsafe_sql.Database.exec db "select k from t where k = 123" with
        | Ironsafe_sql.Database.Result r ->
            Alcotest.(check int) "one matching row" 1
              (List.length r.Ironsafe_sql.Exec.rows)
        | _ -> Alcotest.fail "query failed");
        Metrics.counter_value
          (Metrics.diff ~before ~after:(Obs.metrics ()))
          ~scope:"securestore" "page_decrypts"
      in
      let full_scan = decrypts_of_query () in
      ignore (Ironsafe_sql.Database.exec db "create index t_k on t (k)");
      let indexed = decrypts_of_query () in
      Alcotest.(check bool)
        (Printf.sprintf "indexed (%d) < full scan (%d)" indexed full_scan)
        true
        (indexed < full_scan && full_scan > 1 && indexed >= 1))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"secure store roundtrips arbitrary payloads" ~count:40
      (pair (int_bound 7) (string_of_size Gen.(0 -- Sec.Secure_store.capacity)))
      (fun (i, data) ->
        let _, _, store, _ = setup () in
        match Sec.Secure_store.write_page store i data with
        | Error _ -> false
        | Ok () -> Sec.Secure_store.read_page store i = Ok data);
    (* a single flipped bit anywhere in the MAC-covered region
       (IV | MAC | len | ciphertext) is caught before decryption *)
    Test.make ~name:"page roundtrip + single-bit tamper detected" ~count:30
      (quad (int_bound 7)
         (string_of_size Gen.(1 -- Sec.Secure_store.capacity))
         small_nat (int_bound 7))
      (fun (i, data, byte_seed, bit) ->
        let device, _, store, _ = setup () in
        match Sec.Secure_store.write_page store i data with
        | Error _ -> false
        | Ok () ->
            Sec.Secure_store.read_page store i = Ok data
            && begin
                 (* header_len (50) + the PKCS#7-padded ciphertext *)
                 let covered = 50 + ((String.length data / 16) + 1) * 16 in
                 let off = byte_seed mod covered in
                 let raw = Bytes.of_string (S.Block_device.read_page device i) in
                 Bytes.set raw off
                   (Char.chr (Char.code (Bytes.get raw off) lxor (1 lsl bit)));
                 S.Block_device.write_page device i (Bytes.to_string raw);
                 match Sec.Secure_store.read_page store i with
                 | Error _ -> true
                 | Ok _ -> false
               end);
  ]

let suite =
  [
    ("roundtrip", `Quick, test_roundtrip);
    ("bounds and capacity", `Quick, test_bounds_and_capacity);
    ("confidentiality", `Quick, test_confidentiality);
    ("tamper detected", `Quick, test_tamper_detected);
    ("displacement detected", `Quick, test_displacement_detected);
    ("reopen after reboot", `Quick, test_reopen);
    ("rollback detected", `Quick, test_rollback_detected);
    ("fork detected", `Quick, test_fork_detected);
    ("wrong hardware key", `Quick, test_wrong_hardware_key);
    ("stats counting", `Quick, test_stats_counting);
    ("iv uniqueness", `Quick, test_iv_uniqueness);
    ("per-page key mode", `Quick, test_per_page_keys);
    ("root mac memo never stale", `Quick, test_root_mac_memo_freshness);
    ("replay on live store (cbc)", `Quick, test_replay_detected);
    ("obs counters match analytic counts", `Quick, test_obs_counters_match_analytic);
    ("index reduces decrypts", `Quick, test_index_reduces_decrypts);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
