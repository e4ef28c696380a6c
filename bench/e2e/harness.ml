(* What every workload receives from the command line, what it hands
   back, and the helpers the workloads share. *)

module Obs = Ironsafe_obs.Obs

(* The one client every workload runs as, with read and write access. *)
let client = "bench"
let database = "ironsafe"
let policy = "read ::= sessionKeyIs(bench)\nwrite ::= sessionKeyIs(bench)"

type ctx = {
  seed : int;
  seconds : float;
      (** nominal measured seconds; each workload turns it into a fixed
          amount of work (rounds, ops, sweeps), so two builds compared
          on the same settings do identical work. 0 = the smallest run. *)
  scale : float;  (** TPC-H scale factor *)
  smoke : bool;
  tracer : Tracer.t option;  (** [Some _] in the traced run *)
  goldens : (int * string) list;  (** TPC-H qid -> result digest *)
}

type outcome = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** end-of-run correctness checks *)
  metrics : (string * float) list;
  notes : string list;  (** human-readable lines for the log *)
}

(* Units of work for a run: [seconds / unit_s] whole units, at least
   [min]; [smoke] units in the smoke run. *)
let units ctx ~unit_s ~min ~smoke =
  if ctx.smoke then smoke else max min (int_of_float (ctx.seconds /. unit_s))

let time f = Tracer.span None ~op:0 ~parent:(-1) "" (fun _ -> f ())

(* setup_s: build the workload's state [reps] times (3; 1 in the smoke
   run) and report the median, keeping only the last build. The heap
   is compacted before each build so the previous one is gone and
   [peak_heap_mb] sees one deployment at a time. *)
let repeated_setup ctx f =
  let reps = if ctx.smoke then 1 else 3 in
  let times = Array.make reps 0.0 in
  let last = ref None in
  for i = 0 to reps - 1 do
    last := None;
    Gc.compact ();
    let x, ms = time f in
    times.(i) <- ms /. 1e3;
    last := Some x
  done;
  (Stats.median times, Option.get !last)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* The end-to-end metrics, from the op latency samples the workload
   reports (README.md says which they are). *)
let op_metrics ~setup_s lat_ms =
  [
    ("setup_s", setup_s);
    ("op_p50_ms", Stats.percentile lat_ms 0.50);
    ("op_p90_ms", Stats.percentile lat_ms 0.90);
    ( "ops_per_s",
      Stats.ratio (float_of_int (Array.length lat_ms)) (Stats.sum lat_ms /. 1e3) );
    ("peak_heap_mb", peak_heap_mb ());
  ]

(* The runner's virtual-clock cost categories, one [virt.<category>_ms]
   metric each; any other category folds into "other". *)
let virt_categories =
  [
    "ndp"; "io"; "decryption"; "freshness"; "network"; "epc"; "enclave";
    "spill"; "policy"; "wal"; "other";
  ]

let virt_category c = if List.mem c virt_categories then c else "other"

(* Allocation and collection work done inside timed ops only (not in
   the benchmark's own checks or the traced run's probes). *)
type gc_acc = {
  mutable minor : float;
  mutable promoted : float;
  mutable majors : int;
}

let gc_acc () = { minor = 0.0; promoted = 0.0; majors = 0 }

let with_gc acc f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  acc.minor <- acc.minor +. (b.Gc.minor_words -. a.Gc.minor_words);
  acc.promoted <- acc.promoted +. (b.Gc.promoted_words -. a.Gc.promoted_words);
  acc.majors <- acc.majors + (b.Gc.major_collections - a.Gc.major_collections);
  r

let gc_metrics acc ~ops =
  let per x = Stats.ratio x (float_of_int ops) in
  [
    ("gc.minor_mwords_per_op", per (acc.minor /. 1e6));
    ("gc.promoted_mwords_per_op", per (acc.promoted /. 1e6));
    ("gc.major_collections_per_op", per (float_of_int acc.majors));
  ]

(* obs.on_overhead_pct: one op run alternately with the observability
   layer off and on; the median with it on against the median off. *)
let obs_overhead_pct ~pairs f =
  let off = Array.make pairs 0.0 and on = Array.make pairs 0.0 in
  for i = 0 to pairs - 1 do
    off.(i) <- snd (time f);
    Obs.enable ();
    on.(i) <- snd (time f);
    Obs.disable ()
  done;
  Obs.reset ();
  100.0 *. Stats.ratio (Stats.median on -. Stats.median off) (Stats.median off)

(* trace.overhead_pct: wall time of the traced phase against the time
   its ops took, i.e. what recording and probing added per op. *)
let trace_overhead_pct ~phase_ms ~op_ms =
  100.0 *. Stats.ratio (phase_ms -. op_ms) op_ms
