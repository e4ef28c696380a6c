(* Observability layer tests: span nesting and timestamp monotonicity
   on a fake virtual clock, metrics arithmetic and snapshot diffs, the
   epoch offset across clock resets, and well-formedness of the Chrome
   trace_event export (balanced B/E per track, sorted timestamps,
   parseable JSON) — the last also as a qcheck property over random
   span trees. *)

module Obs = Ironsafe_obs.Obs
module Span = Ironsafe_obs.Span
module Metrics = Ironsafe_obs.Metrics
module Chrome = Ironsafe_obs.Chrome_trace

(* The collector is global: every test runs against a clean, enabled
   collector and restores the disabled default afterwards, so the
   other suites in this binary are unaffected. *)
let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let fake_clock () =
  let t = ref 0.0 in
  ((fun () -> !t), fun ns -> t := !t +. ns)

(* -- spans ------------------------------------------------------------- *)

let test_span_nesting () =
  with_obs (fun () ->
      let clock, tick = fake_clock () in
      Span.with_ ~name:"root" ~scope:"host" ~clock (fun () ->
          tick 10.0;
          Span.with_ ~name:"child1" ~scope:"host" ~clock (fun () -> tick 5.0);
          Span.with_ ~name:"child2" ~scope:"storage" ~clock (fun () ->
              tick 7.0;
              Span.with_ ~name:"grandchild" ~scope:"storage" ~clock (fun () ->
                  tick 1.0)));
      match Obs.spans () with
      | [ root ] ->
          Alcotest.(check string) "root name" "root" root.Span.name;
          Alcotest.(check (float 1e-9)) "root begin" 0.0 root.Span.begin_ns;
          Alcotest.(check (float 1e-9)) "root end" 23.0 root.Span.end_ns;
          let kids = Span.children root in
          Alcotest.(check (list string))
            "children in order" [ "child1"; "child2" ]
            (List.map (fun s -> s.Span.name) kids);
          let c2 = List.nth kids 1 in
          Alcotest.(check (float 1e-9)) "child2 begin" 15.0 c2.Span.begin_ns;
          Alcotest.(check int) "grandchild nested" 1
            (List.length (Span.children c2));
          (* parent covers each child *)
          List.iter
            (fun c ->
              Alcotest.(check bool) "child within parent" true
                (c.Span.begin_ns >= root.Span.begin_ns
                && c.Span.end_ns <= root.Span.end_ns))
            kids
      | l -> Alcotest.failf "expected one root, got %d" (List.length l))

let test_span_monotonic_timestamps () =
  with_obs (fun () ->
      let clock, tick = fake_clock () in
      for _ = 1 to 5 do
        Span.with_ ~name:"op" ~scope:"host" ~clock (fun () -> tick 3.0)
      done;
      let roots = Obs.spans () in
      Alcotest.(check int) "five roots" 5 (List.length roots);
      let rec monotonic = function
        | a :: (b :: _ as rest) ->
            a.Span.end_ns <= b.Span.begin_ns && monotonic rest
        | _ -> true
      in
      Alcotest.(check bool) "siblings ordered" true (monotonic roots);
      List.iter
        (fun s ->
          Alcotest.(check bool) "end >= begin" true
            (s.Span.end_ns >= s.Span.begin_ns))
        roots)

let test_span_exception_recovery () =
  with_obs (fun () ->
      let clock, tick = fake_clock () in
      (try
         Span.with_ ~name:"outer" ~scope:"host" ~clock (fun () ->
             tick 1.0;
             Span.with_ ~name:"failing" ~scope:"host" ~clock (fun () ->
                 tick 1.0;
                 failwith "boom"))
       with Failure _ -> ());
      Alcotest.(check int) "stack unwound" 0 (Span.open_depth ());
      match Obs.spans () with
      | [ outer ] ->
          Alcotest.(check string) "outer recorded" "outer" outer.Span.name;
          Alcotest.(check (list string))
            "failing child recorded" [ "failing" ]
            (List.map (fun s -> s.Span.name) (Span.children outer))
      | l -> Alcotest.failf "expected one root, got %d" (List.length l))

let test_span_charges_attributed () =
  with_obs (fun () ->
      let clock, tick = fake_clock () in
      Span.with_ ~name:"root" ~scope:"host" ~clock (fun () ->
          Span.add_charge ~category:"io" 100.0;
          Span.with_ ~name:"inner" ~scope:"host" ~clock (fun () ->
              tick 1.0;
              Span.add_charge ~category:"io" 40.0;
              Span.add_charge ~category:"ndp" 2.0));
      match Obs.spans () with
      | [ root ] ->
          Alcotest.(check (float 1e-9)) "outer io charge" 100.0
            (List.assoc "io" root.Span.charges);
          let inner = List.hd (Span.children root) in
          Alcotest.(check (float 1e-9)) "inner io charge" 40.0
            (List.assoc "io" inner.Span.charges);
          Alcotest.(check (float 1e-9)) "subtree total" 142.0
            (Span.total_charged root)
      | _ -> Alcotest.fail "expected one root")

let test_epoch_keeps_timeline_monotonic () =
  with_obs (fun () ->
      let clock, tick = fake_clock () in
      Span.with_ ~name:"q1" ~scope:"host" ~clock (fun () -> tick 100.0);
      (* the virtual clock resets to zero between queries *)
      Obs.new_epoch ();
      let clock2, tick2 = fake_clock () in
      Span.with_ ~name:"q2" ~scope:"host" ~clock:clock2 (fun () -> tick2 50.0);
      match Obs.spans () with
      | [ q1; q2 ] ->
          Alcotest.(check (float 1e-9)) "q1 spans [0,100]" 100.0 q1.Span.end_ns;
          Alcotest.(check bool) "q2 shifted past q1" true
            (q2.Span.begin_ns >= q1.Span.end_ns);
          Alcotest.(check (float 1e-9)) "q2 duration preserved" 50.0
            (Span.duration_ns q2)
      | l -> Alcotest.failf "expected two roots, got %d" (List.length l))

let test_disabled_is_noop () =
  Obs.reset ();
  Obs.disable ();
  let clock, tick = fake_clock () in
  Span.with_ ~name:"ghost" ~scope:"host" ~clock (fun () -> tick 1.0);
  Obs.count ~scope:"host" "ghost_counter";
  Alcotest.(check int) "no spans collected" 0 (List.length (Obs.spans ()));
  Alcotest.(check int) "no metrics collected" 0
    (List.length (Metrics.to_list (Obs.metrics ())))

(* -- metrics ----------------------------------------------------------- *)

let test_counter_arithmetic () =
  let m = Metrics.create () in
  Metrics.incr m ~scope:"host" "pages_read";
  Metrics.incr ~by:4 m ~scope:"host" "pages_read";
  Metrics.incr m ~scope:"storage" "pages_read";
  let snap = Metrics.snapshot m in
  Alcotest.(check int) "scoped counter" 5
    (Metrics.counter_value snap ~scope:"host" "pages_read");
  Alcotest.(check int) "other scope independent" 1
    (Metrics.counter_value snap ~scope:"storage" "pages_read");
  Alcotest.(check int) "missing counter is zero" 0
    (Metrics.counter_value snap ~scope:"net" "pages_read")

let test_histogram_arithmetic () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m ~scope:"host" "charge_ns.io") [ 3.0; 5.0; 2.0 ];
  let snap = Metrics.snapshot m in
  Alcotest.(check int) "count" 3 (Metrics.hist_count snap ~scope:"host" "charge_ns.io");
  Alcotest.(check (float 1e-9)) "sum" 10.0
    (Metrics.hist_sum snap ~scope:"host" "charge_ns.io");
  match Metrics.value snap ~scope:"host" "charge_ns.io" with
  | Some (Metrics.VHist { Ironsafe_obs.Histogram.v_min; v_max; _ }) ->
      Alcotest.(check (float 1e-9)) "min" 2.0 v_min;
      Alcotest.(check (float 1e-9)) "max" 5.0 v_max
  | _ -> Alcotest.fail "expected histogram"

let test_kind_mismatch_rejected () =
  let m = Metrics.create () in
  Metrics.incr m ~scope:"host" "x";
  match Metrics.observe m ~scope:"host" "x" 1.0 with
  | () -> Alcotest.fail "observe on a counter should be rejected"
  | exception Invalid_argument _ -> ()

let test_snapshot_diff () =
  let m = Metrics.create () in
  Metrics.incr ~by:10 m ~scope:"store" "pages_read";
  Metrics.observe m ~scope:"host" "charge_ns.io" 5.0;
  Metrics.set m ~scope:"host" "epc_used" 100.0;
  let before = Metrics.snapshot m in
  Metrics.incr ~by:7 m ~scope:"store" "pages_read";
  Metrics.incr ~by:2 m ~scope:"store" "merkle_verifies";
  Metrics.observe m ~scope:"host" "charge_ns.io" 3.0;
  Metrics.set m ~scope:"host" "epc_used" 50.0;
  let after = Metrics.snapshot m in
  let d = Metrics.diff ~before ~after in
  Alcotest.(check int) "counter delta" 7
    (Metrics.counter_value d ~scope:"store" "pages_read");
  Alcotest.(check int) "new counter appears" 2
    (Metrics.counter_value d ~scope:"store" "merkle_verifies");
  Alcotest.(check int) "hist delta count" 1
    (Metrics.hist_count d ~scope:"host" "charge_ns.io");
  Alcotest.(check (float 1e-9)) "hist delta sum" 3.0
    (Metrics.hist_sum d ~scope:"host" "charge_ns.io");
  (match Metrics.value d ~scope:"host" "epc_used" with
  | Some (Metrics.VGauge g) -> Alcotest.(check (float 1e-9)) "gauge keeps later" 50.0 g
  | _ -> Alcotest.fail "gauge missing from diff");
  (* diff of a snapshot with itself is empty apart from gauges *)
  let self = Metrics.diff ~before:after ~after in
  Alcotest.(check bool) "self diff has no counters/hists" true
    (List.for_all
       (fun (_, v) -> match v with Metrics.VGauge _ -> true | _ -> false)
       (Metrics.to_list self))

(* -- bucketed histograms ------------------------------------------------ *)

module Hist = Ironsafe_obs.Histogram

let test_histogram_percentiles_within_bucket () =
  let h = Hist.create () in
  for i = 1 to 1000 do
    Hist.observe h (float_of_int i)
  done;
  let v = Hist.view h in
  Alcotest.(check int) "count" 1000 v.Hist.v_count;
  Alcotest.(check (float 1e-6)) "sum exact" 500500.0 v.Hist.v_sum;
  Alcotest.(check (float 1e-9)) "min exact" 1.0 v.Hist.v_min;
  Alcotest.(check (float 1e-9)) "max exact" 1000.0 v.Hist.v_max;
  (* a percentile is the upper bound of the rank's bucket, so it sits
     within one bucket width (ratio 2^(1/n_sub)) above the exact rank
     value, and never above the recorded max *)
  let width = 2.0 ** (1.0 /. float_of_int Hist.n_sub) in
  List.iter
    (fun q ->
      let exact = Float.ceil (q *. 1000.0) in
      let est = Hist.percentile_of_view v q in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within one bucket" (q *. 100.0))
        true
        (est >= exact && est <= exact *. width && est <= v.Hist.v_max))
    [ 0.5; 0.9; 0.99; 0.999 ]

let test_histogram_bucket_math () =
  (* every value lands in a bucket whose bounds bracket it *)
  List.iter
    (fun x ->
      let b = Hist.bucket_of x in
      Alcotest.(check bool)
        (Printf.sprintf "bounds bracket %g" x)
        true
        (Hist.bucket_lower b <= x && x <= Hist.bucket_bound b))
    [ 0.0; 0.5; 1.0; 1.5; 2.0; 3.14; 1e3; 1e9; 1e12; 4.2e18 ];
  Alcotest.(check int) "underflow bucket" 0 (Hist.bucket_of 0.25);
  Alcotest.(check int) "overflow bucket" (Hist.n_buckets - 1)
    (Hist.bucket_of 1e300)

let test_histogram_interval_sub () =
  let h = Hist.create () in
  List.iter (Hist.observe h) [ 10.0; 20.0 ];
  let before = Hist.view h in
  List.iter (Hist.observe h) [ 40.0; 80.0; 160.0 ];
  let after = Hist.view h in
  let d = Hist.sub ~before ~after in
  Alcotest.(check int) "interval count" 3 d.Hist.v_count;
  Alcotest.(check (float 1e-6)) "interval sum" 280.0 d.Hist.v_sum;
  (* interval min/max are bucket-resolution: bracket the true values *)
  Alcotest.(check bool) "interval min near 40" true
    (d.Hist.v_min <= 40.0 && d.Hist.v_min >= 40.0 /. 2.0);
  Alcotest.(check bool) "interval max near 160" true
    (d.Hist.v_max >= 160.0 && d.Hist.v_max <= 160.0 *. 2.0);
  (* cumulative le-series is monotone and ends at the interval count *)
  let cum = Hist.cumulative_buckets d in
  let counts = List.map snd cum in
  Alcotest.(check bool) "le-series monotone" true
    (List.sort compare counts = counts);
  Alcotest.(check int) "le-series total" 3
    (match List.rev counts with c :: _ -> c | [] -> 0)

(* Exact bucket-wise merge: folding two histograms' views must equal
   the view of one histogram that observed both streams — counts, sum,
   extremes, every percentile, the whole cumulative le-series. *)
let test_histogram_merge () =
  let a = Hist.create () and b = Hist.create () and both = Hist.create () in
  for i = 1 to 500 do
    let v = float_of_int ((i * 7919 mod 100_000) + 1) in
    Hist.observe a v;
    Hist.observe both v
  done;
  for i = 1 to 300 do
    let v = float_of_int ((i * 104729 mod 1_000_000) + 1) /. 3.0 in
    Hist.observe b v;
    Hist.observe both v
  done;
  let m = Hist.merge (Hist.view a) (Hist.view b) in
  let r = Hist.view both in
  Alcotest.(check int) "merged count" r.Hist.v_count m.Hist.v_count;
  Alcotest.(check (float 1e-6)) "merged sum" r.Hist.v_sum m.Hist.v_sum;
  Alcotest.(check (float 0.0)) "merged min" r.Hist.v_min m.Hist.v_min;
  Alcotest.(check (float 0.0)) "merged max" r.Hist.v_max m.Hist.v_max;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "merged p%g" p)
        (Hist.percentile_of_view r p)
        (Hist.percentile_of_view m p))
    [ 1.0; 25.0; 50.0; 90.0; 95.0; 99.0; 99.9 ];
  List.iter2
    (fun (le_r, c_r) (le_m, c_m) ->
      Alcotest.(check (float 0.0)) "merged bucket bound" le_r le_m;
      Alcotest.(check int) "merged bucket count" c_r c_m)
    (Hist.cumulative_buckets r)
    (Hist.cumulative_buckets m);
  (* the empty view is the identity on both sides *)
  let va = Hist.view a in
  List.iter
    (fun m ->
      Alcotest.(check int) "identity count" va.Hist.v_count m.Hist.v_count;
      Alcotest.(check (float 0.0)) "identity sum" va.Hist.v_sum m.Hist.v_sum;
      Alcotest.(check (float 0.0)) "identity p99"
        (Hist.percentile_of_view va 99.0)
        (Hist.percentile_of_view m 99.0))
    [ Hist.merge va Hist.empty_view; Hist.merge Hist.empty_view va ];
  (* merging commutes *)
  let m' = Hist.merge (Hist.view b) (Hist.view a) in
  Alcotest.(check int) "commutes: count" m.Hist.v_count m'.Hist.v_count;
  Alcotest.(check (float 0.0)) "commutes: p99"
    (Hist.percentile_of_view m 99.0)
    (Hist.percentile_of_view m' 99.0)

(* -- event sink durability ---------------------------------------------- *)

module Ev = Ironsafe_obs.Event_log

(* The streaming sink must make the event log durable the moment a
   query ends abnormally: terminal kinds (query.crashed/rejected, WAL
   crash, enclave abort) force a flush, so the JSONL on disk already
   holds every event even if the process dies before the exporter
   runs. *)
let test_event_sink_flushes_on_terminal () =
  let path = Filename.temp_file "ironsafe-sink" ".jsonl" in
  with_obs (fun () ->
      Fun.protect
        ~finally:(fun () ->
          Ev.close_sink ();
          Sys.remove path)
        (fun () ->
          Ev.open_sink path;
          Obs.event ~ts_ns:1.0 ~scope:"core" ~kind:"query.start" [];
          Obs.event ~ts_ns:2.0 ~scope:"wal" ~kind:"wal.append" [];
          (* a terminal outcome: both buffered events and the terminal
             line itself must be on disk *now*, before any close *)
          Obs.event ~ts_ns:3.0 ~scope:"core" ~kind:"query.crashed"
            [ ("site", Ev.S "wal.before_append") ];
          let ic = open_in path in
          let n = in_channel_length ic in
          let contents = really_input_string ic n in
          close_in ic;
          let lines =
            List.filter
              (fun l -> String.trim l <> "")
              (String.split_on_char '\n' contents)
          in
          Alcotest.(check int) "all three events durable" 3
            (List.length lines);
          Alcotest.(check bool) "terminal line present" true
            (List.exists
               (fun l ->
                 let rec has i =
                   i + 13 <= String.length l
                   && (String.sub l i 13 = "query.crashed" || has (i + 1))
                 in
                 has 0)
               lines);
          (* the sink stream matches the in-memory exporter *)
          Ev.close_sink ();
          let ic = open_in path in
          let n = in_channel_length ic in
          let disk = really_input_string ic n in
          close_in ic;
          Alcotest.(check string) "sink equals to_jsonl" (Obs.to_jsonl ())
            disk))

(* -- trace context ------------------------------------------------------ *)

module Tc = Ironsafe_obs.Trace_context

let test_trace_context_roundtrip () =
  Tc.reset ();
  let a = Tc.fresh ~span_id:1 ~sampled:true in
  let b = Tc.fresh ~span_id:2 ~sampled:false in
  Alcotest.(check bool) "distinct trace ids" true
    (a.Tc.trace_id <> b.Tc.trace_id);
  List.iter
    (fun c ->
      let s = Tc.encode c in
      Alcotest.(check int) "wire width" Tc.encoded_length (String.length s);
      match Tc.decode s 0 with
      | Some c' -> Alcotest.(check bool) "roundtrip" true (c = c')
      | None -> Alcotest.fail "decode failed")
    [ a; b ];
  (* unknown flag bits and truncation are rejected *)
  let bad = Bytes.of_string (Tc.encode a) in
  Bytes.set bad 12 '\x83';
  Alcotest.(check bool) "unknown flag bits rejected" true
    (Tc.decode (Bytes.to_string bad) 0 = None);
  Alcotest.(check bool) "truncated rejected" true (Tc.decode "short" 0 = None);
  (* reset rewinds the deterministic id stream *)
  Tc.reset ();
  let a' = Tc.fresh ~span_id:1 ~sampled:true in
  Alcotest.(check bool) "ids deterministic after reset" true (a = a')

(* -- flows, sampling, interval capture ---------------------------------- *)

let test_flow_events_link_lanes () =
  with_obs (fun () ->
      let clock, tick = fake_clock () in
      let fid = ref 0 in
      Span.with_ ~name:"query" ~scope:"host" ~clock (fun () ->
          tick 5.0;
          fid := Span.flow_out ~clock ~name:"offload" ~scope:"host" ();
          Span.with_ ~name:"exec" ~scope:"storage" ~clock (fun () ->
              Span.flow_in ~clock ~name:"offload" ~scope:"storage" !fid;
              tick 7.0));
      Alcotest.(check bool) "flow id allocated" true (!fid > 0);
      let events = Chrome.events_of_spans (Obs.spans ()) in
      let starts = List.filter (fun e -> e.Chrome.ph = 's') events in
      let finishes = List.filter (fun e -> e.Chrome.ph = 'f') events in
      Alcotest.(check int) "one flow start" 1 (List.length starts);
      Alcotest.(check int) "one flow finish" 1 (List.length finishes);
      let s = List.hd starts and f = List.hd finishes in
      Alcotest.(check bool) "flow ids match" true
        (s.Chrome.flow = f.Chrome.flow && s.Chrome.flow = Some !fid);
      Alcotest.(check string) "start on host lane" "host" s.Chrome.pid;
      Alcotest.(check string) "finish on storage lane" "storage" f.Chrome.pid;
      Alcotest.(check bool) "trace json valid" true
        (Chrome.is_valid_json (Obs.to_chrome_json ())))

(* The span tree prints each instant and flow marker with its
   timestamp on one line, however narrow the formatter. *)
let test_tree_markers_on_one_line () =
  with_obs (fun () ->
      let clock, tick = fake_clock () in
      Span.with_ ~name:"query" ~scope:"host" ~clock (fun () ->
          tick 5.0;
          Span.instant ~clock ~attrs:[ ("site", "channel") ] ~name:"retry"
            ~scope:"host" ();
          let fid = Span.flow_out ~clock ~name:"offload" ~scope:"host" () in
          Span.with_ ~name:"exec" ~scope:"storage" ~clock (fun () ->
              Span.flow_in ~clock ~name:"offload" ~scope:"storage" fid;
              tick 7.0));
      let root = List.hd (Obs.spans ()) in
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      Format.pp_set_margin ppf 40;
      Span.pp_tree ppf root;
      Format.pp_print_flush ppf ();
      let lines = String.split_on_char '\n' (Buffer.contents buf) in
      List.iter
        (fun marker ->
          match
            List.find_opt
              (fun l -> String.starts_with ~prefix:marker (String.trim l))
              lines
          with
          | None -> Alcotest.failf "no %s line in:\n%s" marker (Buffer.contents buf)
          | Some l ->
              let has_stamp =
                match String.index_opt l '@' with
                | Some i when i + 2 < String.length l ->
                    l.[i + 1] = ' ' && l.[i + 2] >= '0' && l.[i + 2] <= '9'
                | _ -> false
              in
              if not has_stamp then Alcotest.failf "%s line without its timestamp: %S" marker l)
        [ "*retry"; ">offload"; "<offload" ])

let test_sampling_gates_spans_not_metrics () =
  Fun.protect
    ~finally:(fun () -> Obs.set_sample_every 1)
    (fun () ->
      with_obs (fun () ->
          Obs.set_sample_every 2;
          let clock, tick = fake_clock () in
          let run () =
            let tok = Obs.begin_query () in
            Span.with_ ~name:"query" ~scope:"host" ~clock (fun () ->
                tick 5.0;
                Obs.count ~scope:"host" "queries");
            Obs.finish_query tok
          in
          let p1 = run () in
          let p2 = run () in
          let p3 = run () in
          Alcotest.(check bool) "1st query sampled" true (Option.is_some p1);
          Alcotest.(check bool) "2nd query suppressed" true (p2 = None);
          Alcotest.(check bool) "3rd query sampled" true (Option.is_some p3);
          Alcotest.(check int) "only sampled roots kept" 2
            (List.length (Obs.spans ()));
          Alcotest.(check int) "metrics always accumulate" 3
            (Metrics.counter_value (Obs.metrics ()) ~scope:"host" "queries")))

let test_capture_last_is_interval () =
  with_obs (fun () ->
      let clock, tick = fake_clock () in
      (* pre-existing cumulative state from an earlier query *)
      Obs.count ~scope:"host" ~n:100 "pages";
      let tok = Obs.begin_query () in
      Span.with_ ~name:"query" ~scope:"host" ~clock (fun () ->
          tick 1.0;
          Obs.count ~scope:"host" ~n:7 "pages");
      ignore (Obs.finish_query tok);
      match Obs.capture_last () with
      | Some p ->
          Alcotest.(check int) "interval, not cumulative" 7
            (Metrics.counter_value p.Obs.p_metrics ~scope:"host" "pages")
      | None -> Alcotest.fail "no profile captured")

(* -- Chrome trace export ----------------------------------------------- *)

let check_events_well_formed events =
  (* timestamps sorted *)
  let ts = List.map (fun e -> e.Chrome.ts_us) events in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  (* B/E balanced (never negative, zero at the end) per pid/tid track *)
  let depths = Hashtbl.create 8 in
  let balanced =
    List.for_all
      (fun e ->
        let key = (e.Chrome.pid, e.Chrome.tid) in
        let d = Option.value ~default:0 (Hashtbl.find_opt depths key) in
        match e.Chrome.ph with
        | 'B' ->
            Hashtbl.replace depths key (d + 1);
            true
        | 'E' ->
            Hashtbl.replace depths key (d - 1);
            d - 1 >= 0
        | _ -> true)
      events
    && Hashtbl.fold (fun _ d acc -> acc && d = 0) depths true
  in
  (sorted ts, balanced)

let test_chrome_export_deterministic () =
  with_obs (fun () ->
      let clock, tick = fake_clock () in
      Span.with_ ~name:"query" ~scope:"host"
        ~attrs:[ ("config", "scs"); ("sql", "select \"x\"\n") ]
        ~clock
        (fun () ->
          tick 10.0;
          Span.add_charge ~category:"io" 10.0;
          Span.with_ ~name:"crypto" ~scope:"storage" ~clock (fun () -> tick 4.0);
          Span.instant ~name:"policy.ok" ~scope:"monitor" ~clock ());
      Obs.count ~scope:"securestore" ~n:42 "pages_read";
      let events = Chrome.events_of_spans (Obs.spans ()) in
      let sorted, balanced = check_events_well_formed events in
      Alcotest.(check bool) "timestamps sorted" true sorted;
      Alcotest.(check bool) "B/E balanced per track" true balanced;
      Alcotest.(check int) "B count" 2
        (List.length (List.filter (fun e -> e.Chrome.ph = 'B') events));
      Alcotest.(check int) "instants" 1
        (List.length (List.filter (fun e -> e.Chrome.ph = 'i') events));
      let json = Obs.to_chrome_json () in
      Alcotest.(check bool) "json parses (incl. escapes + counters)" true
        (Chrome.is_valid_json json))

let test_json_validator_rejects_garbage () =
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "rejects %S" bad) false
        (Chrome.is_valid_json bad))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "{\"a\" 1}"; "[1 2]"; "\"unterminated"; "nul" ];
  List.iter
    (fun good ->
      Alcotest.(check bool) (Printf.sprintf "accepts %S" good) true
        (Chrome.is_valid_json good))
    [ "{}"; "[]"; "[1,2.5,-3e2]"; "{\"a\":[true,false,null],\"b\":\"c\\\"d\"}" ]

(* qcheck: random span trees export to balanced, sorted, parseable
   Chrome traces. *)
type tree = Node of int * tree list (* per-step virtual-ns advance *)

let tree_gen =
  let open QCheck.Gen in
  sized_size (int_bound 3)
    (fix (fun self n ->
         if n = 0 then map (fun t -> Node (t, [])) (1 -- 9)
         else
           map2
             (fun t kids -> Node (t, kids))
             (1 -- 9)
             (list_size (1 -- 3) (self (n - 1)))))

let forest_gen = QCheck.Gen.(list_size (1 -- 3) tree_gen)

let replay forest =
  let clock, tick = fake_clock () in
  let scope_of depth = if depth mod 2 = 0 then "host" else "storage" in
  let rec walk depth i (Node (dt, kids)) =
    Span.with_
      ~name:(Printf.sprintf "s%d_%d" depth i)
      ~scope:(scope_of depth) ~clock
      (fun () ->
        tick (float_of_int dt);
        List.iteri (walk (depth + 1)) kids;
        tick 1.0)
  in
  List.iteri (walk 0) forest

let qcheck_chrome_trace_well_formed =
  QCheck.Test.make ~name:"random span forests export well-formed traces"
    ~count:60
    (QCheck.make ~print:(fun f ->
         Printf.sprintf "%d roots" (List.length f))
       forest_gen)
    (fun forest ->
      with_obs (fun () ->
          replay forest;
          let events = Chrome.events_of_spans (Obs.spans ()) in
          let sorted, balanced = check_events_well_formed events in
          let rec count_nodes (Node (_, kids)) =
            1 + List.fold_left (fun a k -> a + count_nodes k) 0 kids
          in
          let n = List.fold_left (fun a t -> a + count_nodes t) 0 forest in
          sorted && balanced
          && List.length (List.filter (fun e -> e.Chrome.ph = 'B') events) = n
          && Chrome.is_valid_json (Chrome.to_json (Obs.spans ()))))

let suite =
  [
    ("span nesting", `Quick, test_span_nesting);
    ("span monotonic timestamps", `Quick, test_span_monotonic_timestamps);
    ("span exception recovery", `Quick, test_span_exception_recovery);
    ("span charge attribution", `Quick, test_span_charges_attributed);
    ("epoch keeps timeline monotonic", `Quick, test_epoch_keeps_timeline_monotonic);
    ("disabled collection is a no-op", `Quick, test_disabled_is_noop);
    ("counter arithmetic", `Quick, test_counter_arithmetic);
    ("histogram arithmetic", `Quick, test_histogram_arithmetic);
    ("metric kind mismatch rejected", `Quick, test_kind_mismatch_rejected);
    ("snapshot diff", `Quick, test_snapshot_diff);
    ("histogram percentiles within bucket", `Quick, test_histogram_percentiles_within_bucket);
    ("histogram bucket math", `Quick, test_histogram_bucket_math);
    ("histogram interval sub", `Quick, test_histogram_interval_sub);
    ("histogram merge", `Quick, test_histogram_merge);
    ("event sink flushes on terminal", `Quick, test_event_sink_flushes_on_terminal);
    ("trace context roundtrip", `Quick, test_trace_context_roundtrip);
    ("flow events link lanes", `Quick, test_flow_events_link_lanes);
    ("tree markers on one line", `Quick, test_tree_markers_on_one_line);
    ("sampling gates spans not metrics", `Quick, test_sampling_gates_spans_not_metrics);
    ("capture_last is an interval", `Quick, test_capture_last_is_interval);
    ("chrome export deterministic", `Quick, test_chrome_export_deterministic);
    ("json validator", `Quick, test_json_validator_rejects_garbage);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [ qcheck_chrome_trace_well_formed ]
