(* Workload scheduler tests: PRNG, deterministic replay, sequential
   equivalence (closed loop with one session reproduces the sequential
   runner), admission control / typed sheds, and the tenant gate. *)

open Ironsafe
module Sim = Ironsafe_sim
module Tpch = Ironsafe_tpch
module Sched = Ironsafe_sched.Sched
module Server = Ironsafe_sched.Server
module Obs = Ironsafe_obs

(* a tiny shared TPC-H deployment, built once and attested (the tenant
   gate goes through the trusted monitor, which requires attestation) *)
let deploy =
  lazy
    (let d =
       Deployment.create ~seed:"sched-test"
         ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:0.002))
         ()
     in
     (match Deployment.attest d with
     | Ok () -> ()
     | Error e -> Alcotest.failf "attestation failed: %s" e);
     d)

let mix_profiles d config =
  List.map
    (fun id ->
      let q = Tpch.Queries.by_id id in
      Sched.profile d config
        ~label:(Printf.sprintf "q%d" id)
        ~sql:q.Tpch.Queries.sql)
    [ 1; 6 ]

(* -- PRNG ---------------------------------------------------------------- *)

let test_prng () =
  let a = Sim.Prng.create ~seed:7 and b = Sim.Prng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same seed, same stream" (Sim.Prng.next_u64 a)
      (Sim.Prng.next_u64 b)
  done;
  let c = Sim.Prng.create ~seed:8 in
  Alcotest.(check bool) "different seed diverges" true
    (Sim.Prng.next_u64 a <> Sim.Prng.next_u64 c);
  let u = Sim.Prng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Sim.Prng.uniform u in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "uniform out of range: %f" x
  done;
  for _ = 1 to 1000 do
    let k = Sim.Prng.rand_int u 10 in
    if k < 0 || k >= 10 then Alcotest.failf "rand_int out of range: %d" k
  done;
  Alcotest.(check int) "rand_int of non-positive bound" 0
    (Sim.Prng.rand_int u 0);
  (* exponential: positive, roughly the requested mean over many draws *)
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Sim.Prng.exponential u ~mean_ns:100.0 in
    if x < 0.0 then Alcotest.fail "negative exponential draw";
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  if mean < 90.0 || mean > 110.0 then
    Alcotest.failf "exponential mean off: %f" mean;
  Alcotest.check_raises "negative mean rejected"
    (Invalid_argument "Prng.exponential: negative mean") (fun () ->
      ignore (Sim.Prng.exponential u ~mean_ns:(-1.0)));
  (* fork decorrelates without disturbing the parent *)
  let p = Sim.Prng.create ~seed:3 in
  let p' = Sim.Prng.copy p in
  let child = Sim.Prng.fork p in
  Alcotest.(check bool) "fork advances parent" true
    (Sim.Prng.next_u64 p' <> Sim.Prng.next_u64 child);
  ignore (Sim.Prng.next_u64 p)

(* -- FIFO server --------------------------------------------------------- *)

let test_server () =
  let s = Server.create ~name:"s" ~slots:2 in
  let feq = Alcotest.float 1e-9 in
  Alcotest.check feq "slot 0 free" 0.0 (Server.request s ~at:0.0 ~duration_ns:10.0);
  Alcotest.check feq "slot 1 free" 0.0 (Server.request s ~at:0.0 ~duration_ns:4.0);
  (* both busy: next request waits for the earliest-free slot (t=4) *)
  Alcotest.check feq "waits for earliest slot" 4.0
    (Server.request s ~at:1.0 ~duration_ns:2.0);
  (* uncontended later request starts on time *)
  Alcotest.check feq "uncontended starts on time" 50.0
    (Server.request s ~at:50.0 ~duration_ns:1.0);
  Alcotest.check feq "wait accounted" 3.0 (Server.wait_ns s);
  Alcotest.(check int) "served" 4 (Server.served s);
  Alcotest.check_raises "no slots"
    (Invalid_argument "Server.create: slots must be >= 1") (fun () ->
      ignore (Server.create ~name:"x" ~slots:0))

(* -- determinism --------------------------------------------------------- *)

let test_determinism () =
  let d = Lazy.force deploy in
  List.iter
    (fun config ->
      let spec =
        {
          Sched.default_spec with
          Sched.seed = 11;
          arrival = Sched.Open_loop { qps = 300.0 };
          queries = 24;
          tenants = [ "a"; "b" ];
          max_inflight = 3;
          queue_depth = 4;
        }
      in
      let r1 = Sched.run d spec (mix_profiles d config) in
      let r2 = Sched.run d spec (mix_profiles d config) in
      Alcotest.(check (list string))
        (Config.abbrev config ^ ": event logs byte-identical")
        r1.Sched.rep_event_log r2.Sched.rep_event_log;
      Alcotest.(check string)
        (Config.abbrev config ^ ": percentile tables byte-identical")
        (Sched.percentile_table r1) (Sched.percentile_table r2))
    Config.all

(* -- sequential equivalence ---------------------------------------------- *)

(* One closed-loop session replaying one query must reproduce the
   sequential runner's end-to-end latency: alone, every server has a
   free slot and the EPC inflation factor is exactly 1. *)
let test_sequential_equivalence () =
  let d = Lazy.force deploy in
  List.iter
    (fun config ->
      let q = Tpch.Queries.by_id 6 in
      let p = Sched.profile d config ~label:"q6" ~sql:q.Tpch.Queries.sql in
      let spec =
        {
          Sched.default_spec with
          Sched.arrival = Sched.Closed_loop { sessions = 1; think_ns = 0.0 };
          queries = 1;
          control_ns = 0.0;
        }
      in
      let r = Sched.run d spec [ p ] in
      Alcotest.(check int) "one completion" 1 r.Sched.rep_completed;
      match (List.hd r.Sched.rep_records).Sched.r_outcome with
      | Sched.Completed { latency_ns } ->
          let seq = p.Sched.qp_end_to_end_ns in
          if Float.abs (latency_ns -. seq) > 1e-6 *. Float.max 1.0 seq then
            Alcotest.failf "%s: concurrent %f vs sequential %f"
              (Config.abbrev config) latency_ns seq
      | o -> Alcotest.failf "unexpected outcome %s" (Sched.outcome_name o))
    Config.all

(* contention must only ever add latency, never remove it *)
let test_contention_monotone () =
  let d = Lazy.force deploy in
  let profiles = mix_profiles d Config.Scs in
  let spec qps =
    {
      Sched.default_spec with
      Sched.seed = 5;
      arrival = Sched.Open_loop { qps };
      queries = 24;
      max_inflight = 2;
      queue_depth = 24;
    }
  in
  let seq_max =
    List.fold_left (fun m p -> Float.max m p.Sched.qp_end_to_end_ns) 0.0 profiles
  in
  let slow = Sched.run d (spec 20.0) profiles in
  let fast = Sched.run d (spec 2000.0) profiles in
  Alcotest.(check bool) "all complete when idle" true
    (slow.Sched.rep_completed = 24);
  Alcotest.(check bool) "queueing inflates p99" true
    (fast.Sched.rep_latency.Sched.p99_ns >= slow.Sched.rep_latency.Sched.p99_ns);
  Alcotest.(check bool) "no completion beats the sequential minimum" true
    (List.for_all
       (fun r ->
         match r.Sched.r_outcome with
         | Sched.Completed { latency_ns } ->
             (* every mix entry takes at least the fastest profile *)
             latency_ns
             >= List.fold_left
                  (fun m p -> Float.min m p.Sched.qp_end_to_end_ns)
                  seq_max profiles
                -. 1e-6
         | _ -> true)
       fast.Sched.rep_records)

(* -- admission control --------------------------------------------------- *)

let test_admission_shed () =
  let d = Lazy.force deploy in
  let profiles = mix_profiles d Config.Vcs in
  Obs.Obs.enable ();
  Obs.Obs.reset ();
  let spec =
    {
      Sched.default_spec with
      Sched.seed = 9;
      arrival = Sched.Open_loop { qps = 100_000.0 };
      queries = 40;
      max_inflight = 1;
      queue_depth = 2;
    }
  in
  let r = Sched.run d spec profiles in
  let snap = Obs.Obs.metrics () in
  Obs.Obs.disable ();
  Alcotest.(check bool) "overload sheds" true (r.Sched.rep_shed > 0);
  Alcotest.(check int) "every submission accounted" r.Sched.rep_submitted
    (r.Sched.rep_completed + r.Sched.rep_shed + r.Sched.rep_denied);
  Alcotest.(check int) "typed shed records match the count" r.Sched.rep_shed
    (List.length
       (List.filter
          (fun rc ->
            match rc.Sched.r_outcome with
            | Sched.Shed (Sched.Queue_full { depth }) ->
                Alcotest.(check int) "shed carries the queue depth" 2 depth;
                true
            | _ -> false)
          r.Sched.rep_records));
  Alcotest.(check int) "sheds counted in the metrics registry"
    r.Sched.rep_shed
    (Obs.Metrics.counter_value snap ~scope:"sched" "shed");
  (* per-tenant counters add up too *)
  List.iter
    (fun (_, (st : Sched.tenant_stats)) ->
      Alcotest.(check int) "tenant accounting" st.Sched.t_submitted
        (st.Sched.t_completed + st.Sched.t_shed + st.Sched.t_denied))
    r.Sched.rep_per_tenant

(* -- tenant gate --------------------------------------------------------- *)

let test_tenant_gate () =
  let d = Lazy.force deploy in
  let engine = Engine.create d in
  ignore (Engine.register_client engine ~label:"acme" ());
  Engine.set_access_policy engine "read ::= sessionKeyIs(acme)";
  let gate = Sched.monitor_gate d in
  let profiles = mix_profiles d Config.Scs in
  let spec =
    {
      Sched.default_spec with
      Sched.seed = 2;
      arrival = Sched.Closed_loop { sessions = 2; think_ns = 0.0 };
      queries = 8;
      tenants = [ "acme"; "mallory" ];
    }
  in
  let r = Sched.run ~gate d spec profiles in
  let acme = List.assoc "acme" r.Sched.rep_per_tenant in
  let mallory = List.assoc "mallory" r.Sched.rep_per_tenant in
  Alcotest.(check int) "authorized tenant completes" acme.Sched.t_submitted
    acme.Sched.t_completed;
  Alcotest.(check bool) "acme ran" true (acme.Sched.t_submitted > 0);
  Alcotest.(check int) "unauthorized tenant denied" mallory.Sched.t_submitted
    mallory.Sched.t_denied;
  Alcotest.(check bool) "mallory tried" true (mallory.Sched.t_submitted > 0);
  Alcotest.(check bool) "denials carry the reason" true
    (List.exists
       (fun rc ->
         match rc.Sched.r_outcome with
         | Sched.Denied _ -> rc.Sched.r_tenant = "mallory"
         | _ -> false)
       r.Sched.rep_records)

(* -- pre-refactor byte identity ------------------------------------------ *)

(* The replay transcript (event logs + percentile tables) of a fixed
   scenario corpus: five Table-2 configs under open- and closed-loop
   specs, plus a 2-shard cluster replay. The golden file was generated
   by the Emap-based event queue and per-session tape lists that
   predate the pairing-heap/interning rework — the refactor must
   reproduce it byte for byte. Regenerate (only when intentionally
   changing replay semantics) with
   IRONSAFE_WRITE_GOLDEN=$PWD/test/golden/sched_replay.golden.

   The same loop also digests each scenario's Chrome trace and JSON
   report (SHA-256, hex), which the transcript does not cover: records,
   trace segments and the report's JSON rendering. *)
let replay_transcript () =
  let d =
    Deployment.create ~seed:"golden-replay"
      ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:0.002))
      ()
  in
  (match Deployment.attest d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "attestation failed: %s" e);
  let buf = Buffer.create 65536 in
  let digests = ref [] in
  let add_report tag r =
    digests :=
      ( tag,
        Ironsafe_crypto.Sha256.hex (Sched.trace_json r),
        Ironsafe_crypto.Sha256.hex (Sched.json_of_report r) )
      :: !digests;
    Buffer.add_string buf (Printf.sprintf "== %s\n" tag);
    List.iter
      (fun l ->
        Buffer.add_string buf l;
        Buffer.add_char buf '\n')
      r.Sched.rep_event_log;
    Buffer.add_string buf (Sched.percentile_table r);
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun config ->
      let profiles = mix_profiles d config in
      let open_spec =
        {
          Sched.default_spec with
          Sched.seed = 11;
          arrival = Sched.Open_loop { qps = 300.0 };
          queries = 24;
          tenants = [ "a"; "b" ];
          max_inflight = 3;
          queue_depth = 4;
        }
      in
      add_report
        (Config.abbrev config ^ " open")
        (Sched.run d open_spec profiles);
      let closed_spec =
        {
          Sched.default_spec with
          Sched.seed = 7;
          arrival = Sched.Closed_loop { sessions = 3; think_ns = 1e6 };
          queries = 9;
          max_inflight = 3;
          control_ns = 1000.0;
        }
      in
      add_report
        (Config.abbrev config ^ " closed")
        (Sched.run d closed_spec profiles))
    Config.all;
  (* 2-shard cluster: tapes charge two storage nodes; the replay
     contends a server triple per shard *)
  let module Cluster = Ironsafe_cluster.Cluster in
  let cl = Cluster.create ~shards:2 ~scheme:Partitioner.Hash d in
  (match Cluster.attest_reliable cl with
  | Ok () -> ()
  | Error e -> Alcotest.failf "cluster attestation failed: %s" e);
  let profiles =
    List.map
      (fun id ->
        let q = Tpch.Queries.by_id id in
        let stmt = Ironsafe_sql.Parser.parse q.Tpch.Queries.sql in
        Sched.profile_run
          ~working_set:(Sched.host_working_set d)
          ~label:(Printf.sprintf "q%d" id)
          ~sql:q.Tpch.Queries.sql Config.Scs
          (fun () -> Cluster.run_stmt cl Config.Scs stmt))
      [ 1; 6 ]
  in
  let spec =
    {
      Sched.default_spec with
      Sched.seed = 13;
      arrival = Sched.Open_loop { qps = 400.0 };
      queries = 16;
      tenants = [ "a"; "b" ];
      max_inflight = 4;
      queue_depth = 4;
    }
  in
  add_report "cluster-2shard open"
    (Sched.run ~storage_nodes:(Cluster.storage_nodes cl) d spec profiles);
  (Buffer.contents buf, List.rev !digests)

(* one replay of the corpus serves both checks below *)
let replay = lazy (replay_transcript ())

let test_byte_identity_golden () =
  let got = fst (Lazy.force replay) in
  match Sys.getenv_opt "IRONSAFE_WRITE_GOLDEN" with
  | Some path ->
      let oc = open_out path in
      output_string oc got;
      close_out oc;
      Printf.printf "wrote %s (%d bytes)\n%!" path (String.length got)
  | None ->
      (* dune runtest runs in _build/default/test; dune exec runs in
         the project root — accept either working directory *)
      let path =
        List.find Sys.file_exists
          [ "golden/sched_replay.golden"; "test/golden/sched_replay.golden" ]
      in
      let ic = open_in_bin path in
      let want = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "replay transcript matches pre-refactor golden"
        want got

(* Pinned SHA-256 (hex) of [Sched.trace_json] and [Sched.json_of_report]
   for every golden scenario, computed with the retain-everything
   default ([sample_sessions = -1]): per-query records, their resource
   segments and the JSON report must stay byte-identical too. *)
let pinned_digests =
  [
    ("hons open",
     "64457a8175ca8c7e57000a5a62f31f6be506d173d5bc3df9876742a835d57ec0",
     "d979519dd3209b785e71459adde914480862ff498fe15e1f27ba475206d4ac3a");
    ("hons closed",
     "3c39397c2eb5a4bf49a1df32760d55b94b7ad089d3d77d2dc45ada093813996a",
     "c67c33dd1617e76aa2b992fc61805d876a7417e373b1be09378f4a2cbf1a973b");
    ("hos open",
     "d8465100dd82b49fc0b1fdc61986cc333793bffacc7625ccf825aa0383bd9084",
     "45de1b03069e2c82af99a592f3ace28436f9c73e7c83b9a1cf12f09d9b09e43d");
    ("hos closed",
     "c7f4c659119a513128a12b5f9e7cc99bb6f8f8bb719ed533432332102797190a",
     "40b20d68b1a54f123b8b12a63d62070f563ea67c553578a72b1ded3e1ca944ab");
    ("vcs open",
     "1b11cdf17232ccf713254a04181d3c81b1c7d72e280553b88d60c70fbc4caa24",
     "fe20a937666b0ffebd1d6fac89fb2b25a1229c6f65824bff2060f689cf71ed2d");
    ("vcs closed",
     "ee5cb63558a1db531a65277a4a4a615517981a5bdc8c0829377c361f7b2ab6c1",
     "64f1b5e179a5e464491dce20213324ab034ad326dd9a4f3e1ac212d0b3787145");
    ("scs open",
     "9034c2921a939b07dff17d710f9799e02e817bb84cbc3b87367f85902d149a3a",
     "9400a426a464b28510c6fced7a9316fb9e1e3c7f990a1dcee1e7a383e813fe61");
    ("scs closed",
     "0797c00a88856918f07f6864ef1268b0c2863079b8ab3dd5c2a82c96fe5a39a3",
     "51ccbb90b3277bd797bb9aa88807cfbb9b6c719937aa71a91b726e60c2f2d871");
    ("sos open",
     "33f353d91ab8dd67caba136fadd0cdd607efd0cafcecf195f85397137a3ee071",
     "eb32f0a35192464dc4abe7057920bf2d0900ebc75a2bda445227493987f1810e");
    ("sos closed",
     "aa9d949650c79abd0a44a98f15d72ec204f4ea8c4412a988c575cadbc9bd962f",
     "12b0f96413a6699f9bdff6d2c528eb6901f7a75b8a832e8167085cc0e291907d");
    ("cluster-2shard open",
     "311a1cac01259ba4b48c5ed3e3e455a294340a7c99ffd85b051357a49c5dd1b3",
     "52bf95659bec797ce09a4f211d81978db152862b2697a0f7510046245b27e6cd");
  ]

let test_golden_digests () =
  Alcotest.(check (list (triple string string string)))
    "trace/report digests" pinned_digests
    (snd (Lazy.force replay))

(* -- event queue --------------------------------------------------------- *)

module Eq = Ironsafe_sched.Event_queue

(* The pairing heap must pop in exactly (time, then insertion order) —
   the contract the replay's determinism rests on. Reference: a stable
   sort of the push sequence. *)
let test_event_queue_order () =
  let q = Eq.create ~dummy:(-1) in
  let rng = Sim.Prng.create ~seed:99 in
  let pushed = ref [] in
  let n = 2000 in
  for i = 0 to n - 1 do
    (* coarse times force plenty of ties *)
    let t = float_of_int (Sim.Prng.rand_int rng 50) in
    Eq.push q t i;
    pushed := (t, i) :: !pushed
  done;
  Alcotest.(check int) "size" n (Eq.size q);
  let want =
    List.stable_sort
      (fun (t1, _) (t2, _) -> Float.compare t1 t2)
      (List.rev !pushed)
  in
  List.iter
    (fun (t, i) ->
      Alcotest.(check (float 0.0)) "min_time" t (Eq.min_time q);
      Alcotest.(check int) "pop order" i (Eq.pop q))
    want;
  Alcotest.(check bool) "drained" true (Eq.is_empty q);
  (* interleaved push/pop with node recycling: monotone pop times *)
  let last = ref neg_infinity in
  for round = 0 to 200 do
    Eq.push q (float_of_int round) round;
    Eq.push q (float_of_int round +. 0.5) (round + 1000);
    let v = Eq.pop q in
    let t = if v < 1000 then float_of_int v else float_of_int (v - 1000) +. 0.5 in
    if t < !last then Alcotest.failf "pop went backwards: %f after %f" t !last;
    last := t
  done;
  Alcotest.check_raises "pop on empty"
    (Invalid_argument "Event_queue.pop: empty queue") (fun () ->
      let q = Eq.create ~dummy:0 in
      ignore (Eq.pop q))

(* -- prng split / jump --------------------------------------------------- *)

let test_prng_split_jump () =
  (* jump n == discarding n draws *)
  List.iter
    (fun n ->
      let a = Sim.Prng.create ~seed:11 and b = Sim.Prng.create ~seed:11 in
      for _ = 1 to n do
        ignore (Sim.Prng.next_u64 a)
      done;
      Sim.Prng.jump b n;
      for _ = 1 to 5 do
        Alcotest.(check int64)
          (Printf.sprintf "jump %d = %d discards" n n)
          (Sim.Prng.next_u64 a) (Sim.Prng.next_u64 b)
      done)
    [ 0; 1; 7; 1000; 123_456 ];
  (* split is a pure read: the parent stream is untouched *)
  let p = Sim.Prng.create ~seed:5 in
  let p_ref = Sim.Prng.copy p in
  let _c0 = Sim.Prng.split p ~index:0 in
  let _c9 = Sim.Prng.split p ~index:999_999 in
  for _ = 1 to 20 do
    Alcotest.(check int64) "split leaves parent stream intact"
      (Sim.Prng.next_u64 p_ref) (Sim.Prng.next_u64 p)
  done;
  (* deterministic: same (state, index) -> same child stream *)
  let p1 = Sim.Prng.create ~seed:5 and p2 = Sim.Prng.create ~seed:5 in
  let c1 = Sim.Prng.split p1 ~index:42 and c2 = Sim.Prng.split p2 ~index:42 in
  for _ = 1 to 20 do
    Alcotest.(check int64) "split deterministic" (Sim.Prng.next_u64 c1)
      (Sim.Prng.next_u64 c2)
  done;
  (* children of distinct indices, and the parent's own continuation,
     are pairwise decorrelated (no shared prefix) *)
  let p = Sim.Prng.create ~seed:5 in
  let streams =
    Sim.Prng.copy p
    :: List.map (fun i -> Sim.Prng.split p ~index:i) [ 0; 1; 2; 100 ]
  in
  let firsts = List.map Sim.Prng.next_u64 streams in
  let distinct = List.sort_uniq Int64.compare firsts in
  Alcotest.(check int) "split children pairwise distinct"
    (List.length firsts) (List.length distinct);
  (* sampled-lane selection is unbiased enough to be useful: the
     per-index uniforms hit a [0, 1/8) target about 1/8 of the time *)
  let base = Sim.Prng.create ~seed:1234 in
  let hits = ref 0 in
  let n = 100_000 in
  for l = 0 to n - 1 do
    if Sim.Prng.uniform (Sim.Prng.split base ~index:l) < 0.125 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  if frac < 0.115 || frac > 0.135 then
    Alcotest.failf "split selection biased: %.4f (want ~0.125)" frac;
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Prng.split: negative index") (fun () ->
      ignore (Sim.Prng.split base ~index:(-1)));
  Alcotest.check_raises "negative jump rejected"
    (Invalid_argument "Prng.jump: negative count") (fun () ->
      Sim.Prng.jump base (-1))

(* -- lane assignment order ----------------------------------------------- *)

(* Regression for the free-lane pool rewrite (sorted list -> bitset):
   an open-loop run must always hand a starting query the MINIMUM free
   lane — the old sorted list's head. Replays the event log against a
   reference free-set. *)
let test_lane_order () =
  let d = Lazy.force deploy in
  let profiles = mix_profiles d Config.Scs in
  let max_inflight = 4 in
  let spec =
    {
      Sched.default_spec with
      Sched.seed = 21;
      arrival = Sched.Open_loop { qps = 900.0 };
      queries = 80;
      tenants = [ "a"; "b" ];
      max_inflight;
      queue_depth = 6;
    }
  in
  let r = Sched.run d spec profiles in
  let free = Array.make max_inflight true in
  let lane_of : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let starts = ref 0 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | _ :: "start" :: qid :: lane :: _ ->
          let q = Scanf.sscanf qid "q%d" Fun.id in
          let l = Scanf.sscanf lane "lane=%d" Fun.id in
          let min_free = ref (-1) in
          for i = max_inflight - 1 downto 0 do
            if free.(i) then min_free := i
          done;
          Alcotest.(check int)
            (Printf.sprintf "q%d takes the minimum free lane" q)
            !min_free l;
          free.(l) <- false;
          Hashtbl.replace lane_of q l;
          incr starts
      | _ :: "done" :: qid :: _ ->
          let q = Scanf.sscanf qid "q%d" Fun.id in
          free.(Hashtbl.find lane_of q) <- true
      | _ -> ())
    r.Sched.rep_event_log;
  Alcotest.(check int) "every admitted query checked" r.Sched.rep_completed
    !starts;
  (* lanes must actually have churned for the check to mean anything *)
  if r.Sched.rep_completed < 2 * max_inflight then
    Alcotest.fail "workload too small to exercise lane reuse"

(* -- bounded forensics --------------------------------------------------- *)

(* sample_sessions >= 0 bounds the forensic channels (records, event
   log, segments) to the retained lanes while every aggregate — counts,
   per-tenant stats, latency percentiles, makespan, utilization — stays
   exact: the percentile table renders identically to the keep-every-
   lane default ([-1]) on the same spec. Both runs take the one
   retention path; only its reservoir and ring sizes differ. *)
let test_bounded_forensics () =
  let d = Lazy.force deploy in
  let profiles = mix_profiles d Config.Scs in
  let base_spec =
    {
      Sched.default_spec with
      Sched.seed = 17;
      arrival = Sched.Closed_loop { sessions = 32; think_ns = 5e5 };
      queries = 160;
      tenants = [ "a"; "b"; "c" ];
      max_inflight = 32;
      queue_depth = 32;
      control_ns = 500.0;
    }
  in
  let exact = Sched.run d base_spec profiles in
  let bounded =
    Sched.run d { base_spec with Sched.sample_sessions = 4 } profiles
  in
  Alcotest.(check string) "percentile table identical"
    (Sched.percentile_table exact)
    (Sched.percentile_table bounded);
  Alcotest.(check int) "submitted exact" exact.Sched.rep_submitted
    bounded.Sched.rep_submitted;
  Alcotest.(check int) "completed exact" exact.Sched.rep_completed
    bounded.Sched.rep_completed;
  Alcotest.(check (float 0.0)) "makespan exact" exact.Sched.rep_makespan_ns
    bounded.Sched.rep_makespan_ns;
  List.iter2
    (fun (t1, (s1 : Sched.tenant_stats)) (t2, (s2 : Sched.tenant_stats)) ->
      Alcotest.(check string) "tenant" t1 t2;
      Alcotest.(check int) "tenant submitted" s1.Sched.t_submitted
        s2.Sched.t_submitted;
      Alcotest.(check int) "tenant completed" s1.Sched.t_completed
        s2.Sched.t_completed)
    exact.Sched.rep_per_tenant bounded.Sched.rep_per_tenant;
  List.iter2
    (fun (n1, u1) (n2, u2) ->
      Alcotest.(check string) "server" n1 n2;
      Alcotest.(check (float 0.0)) ("util " ^ n1) u1 u2)
    exact.Sched.rep_util bounded.Sched.rep_util;
  (* forensics are a strict filter of the exact run's *)
  Alcotest.(check bool) "fewer records" true
    (List.length bounded.Sched.rep_records
    < List.length exact.Sched.rep_records);
  Alcotest.(check bool) "some records sampled" true
    (bounded.Sched.rep_records <> []);
  (* the bounded log is a subsequence of the exact log *)
  let rec subseq small big =
    match (small, big) with
    | [], _ -> true
    | _, [] -> false
    | s :: st, b :: bt -> if s = b then subseq st bt else subseq small bt
  in
  Alcotest.(check bool) "event log is a filtered view" true
    (subseq bounded.Sched.rep_event_log exact.Sched.rep_event_log);
  (* sampled records carry full segment forensics *)
  List.iter
    (fun rc ->
      match rc.Sched.r_outcome with
      | Sched.Completed _ ->
          Alcotest.(check bool) "segments recorded" true
            (rc.Sched.r_segments <> [])
      | _ -> ())
    bounded.Sched.rep_records

(* -- per-session memory budget ------------------------------------------- *)

(* Session-state compaction guard: a bounded-forensics closed-loop run
   at 10^5 sessions must stay within a 1 KiB/session live-heap budget
   (task + clocks + queue node + arrival state). The legacy list-based
   forensics blew past this by an order of magnitude, so a regression
   that reintroduces per-session retention trips the check. *)
let test_memory_budget () =
  let d = Lazy.force deploy in
  let profiles = mix_profiles d Config.Scs in
  let sessions = 100_000 in
  let spec =
    {
      Sched.default_spec with
      Sched.seed = 3;
      arrival = Sched.Closed_loop { sessions; think_ns = 1e6 };
      queries = sessions;
      max_inflight = sessions;
      queue_depth = sessions;
      sample_sessions = 32;
    }
  in
  let before = (Gc.quick_stat ()).Gc.top_heap_words in
  let r = Sched.run d spec profiles in
  Alcotest.(check int) "all sessions completed" sessions
    r.Sched.rep_completed;
  let grew_bytes = (r.Sched.rep_peak_words - before) * 8 in
  let budget = sessions * 1024 in
  if grew_bytes > budget then
    Alcotest.failf "peak heap grew %d bytes (> %d B budget = 1 KiB/session)"
      grew_bytes budget;
  (* forensic channels bounded by the sample, not the session count *)
  Alcotest.(check bool) "records bounded" true
    (List.length r.Sched.rep_records <= 4 * 32);
  Alcotest.(check bool) "event log bounded" true
    (List.length r.Sched.rep_event_log <= 16 * 32);
  Alcotest.(check bool) "events counted" true
    (r.Sched.rep_events > sessions);
  Alcotest.(check bool) "wall time measured" true (r.Sched.rep_wall_ns > 0.0)

(* -- tail-based retention ------------------------------------------------ *)

(* Retention acceptance at scale: a hostile 10^5-session bounded run —
   a tenant gate denying every 4th query, admission pressure shedding
   at the queue bound, and an armed tail SLO — must keep 100% of the
   anomalous lanes in [rep_records] (every shed, denial, and tail
   breach accounted, not sampled) while live heap stays within 2x the
   1 KiB/session budget the bounded-forensics guard above enforces for
   recorder-off runs. *)
let test_tail_retention_acceptance () =
  let d = Lazy.force deploy in
  let profiles = mix_profiles d Config.Scs in
  let sessions = 100_000 in
  let spec =
    {
      Sched.default_spec with
      Sched.seed = 11;
      arrival = Sched.Closed_loop { sessions; think_ns = 1e6 };
      queries = sessions;
      max_inflight = 256;
      queue_depth = 4096;
      sample_sessions = 32;
      tail_slo_ns = 50e6;
    }
  in
  let calls = ref 0 in
  let gate ~tenant:_ ~sql:_ =
    incr calls;
    if !calls mod 4 = 0 then Error "quota: synthetic hostile denial"
    else Ok ()
  in
  let before = (Gc.quick_stat ()).Gc.top_heap_words in
  let r = Sched.run ~gate d spec profiles in
  (* the hostile mix exercised every anomaly class *)
  Alcotest.(check bool) "denials occurred" true (r.Sched.rep_denied > 0);
  Alcotest.(check bool) "sheds occurred" true (r.Sched.rep_shed > 0);
  Alcotest.(check bool) "tail breaches occurred" true
    (r.Sched.rep_tail_breaches > 0);
  (* 100% retention: the retained records account for every anomaly
     exactly — reservoir exemplars are normal lanes and add none *)
  let shed, denied, breached =
    List.fold_left
      (fun (s, dn, b) rc ->
        match rc.Sched.r_outcome with
        | Sched.Shed _ -> (s + 1, dn, b)
        | Sched.Denied _ -> (s, dn + 1, b)
        | Sched.Completed { latency_ns } ->
            if latency_ns > spec.Sched.tail_slo_ns then (s, dn, b + 1)
            else (s, dn, b))
      (0, 0, 0) r.Sched.rep_records
  in
  Alcotest.(check int) "every shed retained" r.Sched.rep_shed shed;
  Alcotest.(check int) "every denial retained" r.Sched.rep_denied denied;
  Alcotest.(check int) "every tail breach retained" r.Sched.rep_tail_breaches
    breached;
  Alcotest.(check int) "anomalous lane count consistent"
    (shed + denied + breached) r.Sched.rep_anomalous;
  (* armed tail SLO also ran the burn-rate watchdog *)
  Alcotest.(check bool) "slo summaries present" true (r.Sched.rep_slo <> []);
  let grew_bytes = (r.Sched.rep_peak_words - before) * 8 in
  let budget = 2 * sessions * 1024 in
  if grew_bytes > budget then
    Alcotest.failf
      "peak heap grew %d bytes (> %d B budget = 2 KiB/session): retention \
       must stay within 2x the recorder-off footprint"
      grew_bytes budget

(* The default retention ([sample_sessions = -1]) keeps every lane and
   still classifies each one: with the tail SLO armed, the anomalous
   count is exactly sheds + denials + tail breaches, as in a sampled
   run. *)
let test_default_retention_counts_anomalies () =
  let d = Lazy.force deploy in
  let profiles = mix_profiles d Config.Scs in
  let spec =
    {
      Sched.default_spec with
      Sched.seed = 19;
      arrival = Sched.Open_loop { qps = 500.0 };
      queries = 120;
      tenants = [ "a"; "b" ];
      max_inflight = 4;
      queue_depth = 4;
      tail_slo_ns = 12e6;
    }
  in
  let calls = ref 0 in
  let gate ~tenant:_ ~sql:_ =
    incr calls;
    if !calls mod 5 = 0 then Error "quota: synthetic denial" else Ok ()
  in
  let r = Sched.run ~gate d spec profiles in
  Alcotest.(check bool) "sheds occurred" true (r.Sched.rep_shed > 0);
  Alcotest.(check bool) "denials occurred" true (r.Sched.rep_denied > 0);
  Alcotest.(check bool) "tail breaches occurred" true
    (r.Sched.rep_tail_breaches > 0);
  Alcotest.(check int) "anomalous = shed + denied + tail breaches"
    (r.Sched.rep_shed + r.Sched.rep_denied + r.Sched.rep_tail_breaches)
    r.Sched.rep_anomalous;
  Alcotest.(check bool) "normal lanes too" true
    (r.Sched.rep_anomalous < r.Sched.rep_submitted);
  Alcotest.(check int) "every lane retained" r.Sched.rep_submitted
    (List.length r.Sched.rep_records)

(* -- analytic capacity ---------------------------------------------------- *)

(* Two synthetic profiles with known charges on a 10-core host and a
   16-core storage node: A charges host 6 ms, storage cores 8 ms, IO
   3 ms and a 1 ms sync transfer; B charges host 2 ms. Mean per-query
   demand is host 4 ms, cores 4 ms, IO 1.5 ms, transfer 0.5 ms. *)
let test_capacity_qps () =
  let d =
    Deployment.create ~seed:"capacity" ~host_cores:10 ~storage_cores:16
      ~populate:ignore ()
  in
  let host = d.Deployment.host and storage = d.Deployment.storage in
  let metrics () =
    {
      Runner.config = Config.Scs;
      end_to_end_ns = 0.0;
      host_breakdown = [];
      storage_breakdown = [];
      bytes_shipped = 0;
      pages_scanned = 0;
      page_hits = 0;
      host_rows = 0;
      storage_rows = 0;
      affected = 0;
      result = { Ironsafe_sql.Exec.columns = []; rows = [] };
      profile = None;
    }
  in
  let a =
    (* synthetic tapes: no enclave residency *)
    Sched.profile_run ~working_set:(fun () -> 0) ~label:"a" ~sql:"a" Config.Scs
      (fun () ->
        Sim.Node.charge host ~category:"cpu" 6e6;
        Sim.Node.charge storage ~category:"cpu" 8e6;
        Sim.Node.charge storage ~category:"io" 3e6;
        Sim.Clock.sync (Sim.Node.clock host) (Sim.Node.clock storage) 1e6;
        metrics ())
  in
  let b =
    Sched.profile_run ~working_set:(fun () -> 0) ~label:"b" ~sql:"b" Config.Scs
      (fun () ->
        Sim.Node.charge host ~category:"cpu" 2e6;
        metrics ())
  in
  let cap spec = Sched.capacity_qps d spec [ a; b ] in
  let feq = Alcotest.float 1e-6 in
  (* default spec (device QD 8, 2 streams): host 4 ms / 10 cores =
     0.4 ms beats cores 4 ms / 16 = 0.25 ms, IO 1.5 ms / 8 and
     transfer 0.5 ms / 2 *)
  Alcotest.check feq "host-bound" 2500.0 (cap Sched.default_spec);
  (* one NVMe slot: IO 1.5 ms / 1 is the bottleneck *)
  Alcotest.check feq "device-bound" (1e9 /. 1.5e6)
    (cap { Sched.default_spec with Sched.device_queue_depth = 1 });
  (* a single profile: host 0.6 ms vs cores 0.5 ms per query; with one
     stream the 1 ms transfer dominates *)
  Alcotest.check feq "single profile, host-bound" (1e9 /. 6e5)
    (Sched.capacity_qps d Sched.default_spec [ a ]);
  Alcotest.check feq "single profile, channel-bound" 1000.0
    (Sched.capacity_qps d
       { Sched.default_spec with Sched.channel_streams = 1 }
       [ a ]);
  Alcotest.check_raises "empty mix rejected"
    (Invalid_argument "Sched.capacity_qps: empty query mix") (fun () ->
      ignore (Sched.capacity_qps d Sched.default_spec []))

(* -- rendering ----------------------------------------------------------- *)

let test_rendering () =
  let d = Lazy.force deploy in
  let profiles = mix_profiles d Config.Hos in
  let spec =
    {
      Sched.default_spec with
      Sched.seed = 4;
      arrival = Sched.Closed_loop { sessions = 3; think_ns = 1e6 };
      queries = 9;
      max_inflight = 3;
    }
  in
  let r = Sched.run d spec profiles in
  Alcotest.(check bool) "report JSON parses" true
    (Obs.Chrome_trace.is_valid_json (Sched.json_of_report r));
  Alcotest.(check bool) "chrome trace parses" true
    (Obs.Chrome_trace.is_valid_json (Sched.trace_json r));
  (* one lane per concurrent session *)
  let lanes =
    List.sort_uniq compare
      (List.filter_map
         (fun s ->
           if s.Obs.Span.kind = Obs.Span.Complete then Some s.Obs.Span.scope
           else None)
         (Sched.to_spans r))
  in
  Alcotest.(check (list string))
    "one lane per session"
    [ "session-0"; "session-1"; "session-2" ]
    lanes

(* A sharded profile records the host enclave's residency as a
   single-node one does: over one shard the cluster runs the plain
   runner, so the two profiles are the same tape, latency and working
   set; over two shards the host enclave still holds the query's state. *)
let test_sharded_profile_working_set () =
  let module Cluster = Ironsafe_cluster.Cluster in
  let d = Lazy.force deploy in
  let q = Tpch.Queries.by_id 6 in
  let sql = q.Tpch.Queries.sql in
  let sharded n =
    let cl = Cluster.create ~shards:n ~scheme:Partitioner.Hash d in
    (match Cluster.attest_reliable cl with
    | Ok () -> ()
    | Error e -> Alcotest.failf "cluster attestation failed: %s" e);
    let stmt = Ironsafe_sql.Parser.parse sql in
    Sched.profile_run
      ~working_set:(Sched.host_working_set (Cluster.base cl))
      ~label:"q6" ~sql Config.Scs
      (fun () -> Cluster.run_stmt cl Config.Scs stmt)
  in
  let single = Sched.profile d Config.Scs ~label:"q6" ~sql in
  let one = sharded 1 in
  Alcotest.(check bool) "single-node working set is non-zero" true
    (single.Sched.qp_working_set > 0);
  Alcotest.(check int) "1 shard: same working set" single.Sched.qp_working_set
    one.Sched.qp_working_set;
  Alcotest.(check (float 0.0)) "1 shard: same latency"
    single.Sched.qp_end_to_end_ns one.Sched.qp_end_to_end_ns;
  Alcotest.(check bool) "1 shard: same tape" true
    (single.Sched.qp_tape = one.Sched.qp_tape);
  Alcotest.(check bool) "2 shards: working set recorded" true
    ((sharded 2).Sched.qp_working_set > 0)

(* A 2-shard tape charges shard0 and shard1; replayed without their
   nodes, it has no server to route to and the replay refuses it. *)
let test_unrouted_tape_node () =
  let module Cluster = Ironsafe_cluster.Cluster in
  let d = Lazy.force deploy in
  let cl = Cluster.create ~shards:2 ~scheme:Partitioner.Hash d in
  (match Cluster.attest_reliable cl with
  | Ok () -> ()
  | Error e -> Alcotest.failf "cluster attestation failed: %s" e);
  let q = Tpch.Queries.by_id 6 in
  let stmt = Ironsafe_sql.Parser.parse q.Tpch.Queries.sql in
  let p =
    Sched.profile_run ~working_set:(Sched.host_working_set d) ~label:"q6"
      ~sql:q.Tpch.Queries.sql Config.Scs
      (fun () -> Cluster.run_stmt cl Config.Scs stmt)
  in
  let spec = { Sched.default_spec with Sched.queries = 4 } in
  (match Sched.run d spec [ p ] with
  | _ -> Alcotest.fail "replay routed shard charges to the storage node"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the profile" true
        (String.starts_with ~prefix:"Sched.run: profile q6 charges node shard"
           msg));
  let r = Sched.run ~storage_nodes:(Cluster.storage_nodes cl) d spec [ p ] in
  Alcotest.(check int) "routed replay completes" 4 r.Sched.rep_completed

let suite =
  [
    ("prng", `Quick, test_prng);
    ("fifo server", `Quick, test_server);
    ("determinism across configs", `Quick, test_determinism);
    ("sequential equivalence", `Quick, test_sequential_equivalence);
    ("contention is monotone", `Quick, test_contention_monotone);
    ("admission control sheds", `Quick, test_admission_shed);
    ("byte identity vs pre-refactor golden", `Quick, test_byte_identity_golden);
    ("golden trace and report digests", `Quick, test_golden_digests);
    ("event queue pop order", `Quick, test_event_queue_order);
    ("prng split and jump", `Quick, test_prng_split_jump);
    ("lane assignment order", `Quick, test_lane_order);
    ("sharded profile keeps the working set", `Quick,
     test_sharded_profile_working_set);
    ("replay rejects unrouted tape nodes", `Quick, test_unrouted_tape_node);
    ("bounded forensics stay exact", `Quick, test_bounded_forensics);
    ("per-session memory budget", `Quick, test_memory_budget);
    ("tail retention acceptance", `Quick, test_tail_retention_acceptance);
    ("default retention counts anomalies", `Quick,
      test_default_retention_counts_anomalies);
    ("tenant gate denies", `Quick, test_tenant_gate);
    ("analytic capacity", `Quick, test_capacity_qps);
    ("rendering", `Quick, test_rendering);
  ]
