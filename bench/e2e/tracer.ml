(* Wall-clock timing of the calls the benchmark makes into each layer.

   Every timed call goes through [span]. Without a recorder it only
   reads the monotonic clock twice; with one (the traced run) it also
   keeps a span — op id, span id, parent, name, start, end — in memory.
   The spans are written as JSONL when the run ends, and the per-layer
   metrics are derived from their per-name totals. Spans are recorded
   from outside the program, around public calls; the probe calls that
   split a query into layers re-execute the work that [Engine.submit]
   does internally (see tpch_load.ml). *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

type span = {
  op : int;
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  start_ns : float;
  end_ns : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  totals : (string, float ref * int ref) Hashtbl.t;  (** name -> ns, calls *)
}

let create () = { spans = []; next_id = 0; totals = Hashtbl.create 32 }

(* [span tr ~op ~parent name f] runs [f id] and returns its result and
   its wall time in ms; [id] is the new span's id (-1 when not
   recording), to be passed as [~parent] to nested calls. *)
let span tr ~op ~parent name f =
  match tr with
  | None ->
      let t0 = now_ns () in
      let r = f (-1) in
      (r, (now_ns () -. t0) /. 1e6)
  | Some t ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let t0 = now_ns () in
      let r = f id in
      let t1 = now_ns () in
      t.spans <- { op; id; parent; name; start_ns = t0; end_ns = t1 } :: t.spans;
      let ns, calls =
        match Hashtbl.find_opt t.totals name with
        | Some c -> c
        | None ->
            let c = (ref 0.0, ref 0) in
            Hashtbl.replace t.totals name c;
            c
      in
      ns := !ns +. (t1 -. t0);
      incr calls;
      (r, (t1 -. t0) /. 1e6)

(* Total wall ms recorded under [name]. *)
let total_ms t name =
  match Hashtbl.find_opt t.totals name with
  | Some (ns, _) -> !ns /. 1e6
  | None -> 0.0

let calls t name =
  match Hashtbl.find_opt t.totals name with Some (_, c) -> !c | None -> 0

let span_count t = t.next_id

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%.0f,\
             \"end_ns\":%.0f}\n"
            s.op s.id s.parent s.name s.start_ns s.end_ns)
        (List.rev t.spans))
