(* sched-saturation: the discrete-event scheduler at scale. Q1 and Q6
   are profiled once under scs (set-up work), then [Sched.run] replays
   them open loop, in virtual time, at 0.5x, 1.0x and 2.0x the analytic
   capacity the saturation experiment derives, with 10^5 session lanes
   and 5 * 10^5 queries per point. Only the scheduler, the interned
   tapes and the GC work here; every other layer is idle, so a
   scheduler change should move this workload and no other. *)

open Ironsafe
open Harness
module Sim = Ironsafe_sim
module Sched = Ironsafe_sched.Sched
module Tpch = Ironsafe_tpch

(* Nominal wall seconds of one three-point sweep at 10^5 lanes on a
   2-core x86 container; a run does [--seconds / sweep_s] sweeps. *)
let sweep_s = 16.0

(* load points as multiples of the analytic capacity, with the suffix
   of their per-layer metric names *)
let multipliers = [ ("m0.5", 0.5); ("m1.0", 1.0); ("m2.0", 2.0) ]

(* Analytic capacity (queries/s) from the interned tapes: the mean
   per-query occupancy of each server class over the mix, divided by
   the class's parallel slots; the bottleneck class sets the rate.
   A copy of the derivation in bench/main.ml's saturation sweep, which
   is not a library function yet (see README.md, known gaps). *)
let capacity d profiles =
  let spec = Sched.default_spec in
  let host_name = Sim.Node.name d.Deployment.host in
  let slots node = float_of_int (Sim.Cpu.cores (Sim.Node.cpu node)) in
  let h = ref 0.0 and c = ref 0.0 and io = ref 0.0 and ch = ref 0.0 in
  List.iter
    (fun p ->
      let it = p.Sched.qp_itape in
      let names = Sim.Tape.interned_nodes it in
      for i = 0 to Sim.Tape.interned_length it - 1 do
        let cls = Sim.Tape.cls it i and ns = Sim.Tape.ns it i in
        if cls = Sim.Tape.cls_sync then ch := !ch +. ns
        else if names.(Sim.Tape.node_id it i) = host_name then h := !h +. ns
        else if cls = Sim.Tape.cls_io then io := !io +. ns
        else c := !c +. ns
      done)
    profiles;
  let n = float_of_int (List.length profiles) in
  let bottleneck_ns =
    List.fold_left Float.max 0.0
      [
        !h /. n /. slots d.Deployment.host;
        !c /. n /. slots d.Deployment.storage;
        !io /. n /. float_of_int spec.Sched.device_queue_depth;
        !ch /. n /. float_of_int spec.Sched.channel_streams;
      ]
  in
  1e9 /. bottleneck_ns

let setup ctx =
  let d =
    Deployment.create ~seed:"e2e-sched"
      ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:ctx.scale))
      ()
  in
  (match Deployment.attest d with
  | Ok () -> ()
  | Error m -> failwith ("attestation failed: " ^ m));
  let profiles =
    List.map
      (fun qid ->
        Sched.profile d Config.Scs
          ~label:(Printf.sprintf "q%d" qid)
          ~sql:(Tpch.Queries.by_id qid).Tpch.Queries.sql)
      [ 1; 6 ]
  in
  (d, profiles, capacity d profiles)

let run ctx =
  let tr = ctx.tracer in
  let setup_s, (d, profiles, cap) = repeated_setup ctx (fun () -> setup ctx) in
  let lanes = if ctx.smoke then 1_000 else 100_000 in
  let sweeps = units ctx ~unit_s:sweep_s ~min:1 ~smoke:1 in
  let points = Array.of_list multipliers in
  let n = sweeps * Array.length points in
  let lat = Array.make n 0.0 in
  let events = Array.make n 0 in
  let failed = ref 0 and failures = ref [] in
  let gc = gc_acc () in
  let shed_2x = ref 0 and sim_p99_ms = ref 0.0 in
  let (), phase_ms =
    time (fun () ->
        for s = 0 to sweeps - 1 do
          Array.iteri
            (fun i (label, mult) ->
              let id = (s * Array.length points) + i in
              let queries = 5 * lanes in
              let spec =
                {
                  Sched.default_spec with
                  Sched.seed = ctx.seed;
                  arrival = Sched.Open_loop { qps = mult *. cap };
                  queries;
                  max_inflight = lanes;
                  queue_depth = lanes;
                  sample_sessions = 64;
                }
              in
              let r, ms =
                with_gc gc (fun () ->
                    Tracer.span tr ~op:id ~parent:(-1) "op" (fun root ->
                        fst
                          (Tracer.span tr ~op:id ~parent:root "sched.run" (fun _ ->
                               Sched.run d spec profiles))))
              in
              lat.(id) <- ms;
              events.(id) <- r.Sched.rep_events;
              if label = "m2.0" then shed_2x := r.Sched.rep_shed;
              if label = "m1.0" then sim_p99_ms := r.Sched.rep_latency.Sched.p99_ns /. 1e6;
              (* every submitted query is accounted for, none is denied
                 (no gate), and the under-loaded point sheds nothing *)
              let ok =
                r.Sched.rep_submitted = queries
                && r.Sched.rep_completed + r.Sched.rep_shed + r.Sched.rep_denied = queries
                && r.Sched.rep_denied = 0
                && r.Sched.rep_completed > 0
                && (label <> "m0.5" || r.Sched.rep_shed = 0)
              in
              if not ok then begin
                incr failed;
                failures :=
                  Printf.sprintf "%s: %d submitted, %d completed, %d shed, %d denied" label
                    r.Sched.rep_submitted r.Sched.rep_completed r.Sched.rep_shed
                    r.Sched.rep_denied
                  :: !failures
              end)
            points
        done)
  in
  let per_point f =
    List.mapi
      (fun i (label, _) ->
        let xs = List.init sweeps (fun s -> f ((s * Array.length points) + i)) in
        (label, List.fold_left ( +. ) 0.0 xs /. float_of_int sweeps))
      multipliers
  in
  let total_events = Array.fold_left ( + ) 0 events in
  let counters =
    List.map (fun (l, v) -> ("sched.run_s." ^ l, v)) (per_point (fun i -> lat.(i) /. 1e3))
    @ List.map
        (fun (l, v) -> ("sched.events." ^ l, v))
        (per_point (fun i -> float_of_int events.(i)))
    @ [
        ("sched.shed.m2.0", float_of_int !shed_2x);
        ("sched.sim_p99_ms", !sim_p99_ms);
        ( "sched.events_per_s",
          Stats.ratio (float_of_int total_events) (Stats.sum lat /. 1e3) );
      ]
    @ gc_metrics gc ~ops:n
  in
  let traced =
    match tr with
    | None -> []
    | Some t ->
        let op_ms = Tracer.total_ms t "op" in
        [
          ( "trace.unattributed_pct",
            100.0 *. Stats.ratio (op_ms -. Tracer.total_ms t "sched.run") op_ms );
          ("trace.overhead_pct", trace_overhead_pct ~phase_ms ~op_ms);
        ]
  in
  {
    attempted = n;
    failed = !failed;
    checks = [];
    metrics = op_metrics ~setup_s lat @ counters @ traced;
    notes =
      Printf.sprintf
        "%d sweep(s) x %d points, %d lanes, %d queries/point, capacity %.1f q/s"
        sweeps (Array.length points) lanes (5 * lanes) cap
      :: List.rev !failures;
  }
