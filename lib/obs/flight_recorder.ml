(* Flight recorder: constant-memory per-scope ring buffers of the most
   recent observability activity (lifecycle events, virtual-time
   charges, finished query spans), dumped on trigger.

   Every frame is stamped with the virtual clock and carries only
   virtual-time data, so dumps are byte-deterministic for a fixed seed
   with zero wall-clock input. Appends stay cheap — one record and a
   ring write — because JSONL rendering is deferred to dump time.
   The recorder rides the {!Event_log.tap}: it sees every emitted event
   while installed, keeps only the last [frames] per scope, and when a
   trigger kind arrives (fault injection, policy denial, an abnormal
   query outcome, WAL crash/recovery, attestation failure, SLO breach,
   tail-latency breach) writes the merged rings as JSONL plus a Chrome
   trace into the dump directory.

   Everything is a no-op while disabled: a recorder-off run neither
   buffers frames nor writes dumps. *)

type frame = {
  fr_seq : int;  (* global append order — the merge key across rings *)
  fr_ts_ns : float;
  fr_scope : string;
  fr_kind : string;
  fr_line : string;  (* fully rendered JSONL line *)
}

(* Ring slots hold the raw event (cheap to append); rendering to the
   public [frame] happens at dump time. *)
type slot = { sl_seq : int; sl_event : Event_log.event }

type ring = { mutable buf : slot array; mutable start : int; mutable len : int }

type dump = {
  d_seq : int;
  d_reason : string;
  d_scope : string;
  d_ts_ns : float;
  d_frames : int;
  d_path : string option;  (* JSONL file, when a dump dir is set *)
  d_lines : string list;  (* header line + frame lines, dump order *)
}

let enabled = ref false
let frames_per_scope = ref 256
let dump_dir : string option ref = ref None
let dump_cap = ref 64

let rings : (string, ring) Hashtbl.t = Hashtbl.create 17
let seq = ref 0
let dump_seq = ref 0
let dropped_dumps = ref 0
let dumps_rev : dump list ref = ref []

let no_slot =
  {
    sl_seq = -1;
    sl_event =
      {
        Event_log.e_ts_ns = 0.0;
        e_scope = "";
        e_kind = "";
        e_trace = None;
        e_fields = [];
      };
  }

let reset () =
  Hashtbl.reset rings;
  seq := 0;
  dump_seq := 0;
  dropped_dumps := 0;
  dumps_rev := []

let configure ?frames ?dir ?cap () =
  (match frames with
  | Some n -> frames_per_scope := max 1 n
  | None -> ());
  (match dir with Some d -> dump_dir := Some d | None -> ());
  (match cap with Some n -> dump_cap := max 1 n | None -> ());
  reset ()

let is_enabled () = !enabled
let frame_capacity () = !frames_per_scope
let dump_count () = !dump_seq
let dropped () = !dropped_dumps
let dumps () = List.rev !dumps_rev

(* -- Appending --------------------------------------------------------- *)

let ring_for scope =
  match Hashtbl.find_opt rings scope with
  | Some r -> r
  | None ->
      let r =
        { buf = Array.make !frames_per_scope no_slot; start = 0; len = 0 }
      in
      Hashtbl.add rings scope r;
      r

let push_slot sl =
  let r = ring_for sl.sl_event.Event_log.e_scope in
  let cap = Array.length r.buf in
  if r.len < cap then begin
    r.buf.((r.start + r.len) mod cap) <- sl;
    r.len <- r.len + 1
  end
  else begin
    r.buf.(r.start) <- sl;
    r.start <- (r.start + 1) mod cap
  end

(* Render a frame line: the event-log JSON object with a leading
   ["seq"] field, so dumped frames order totally and the schema stays a
   superset of the event log's. *)
let line_of_event n (e : Event_log.event) =
  let body = Event_log.event_line e in
  Printf.sprintf "{\"seq\":%d,%s" n
    (String.sub body 1 (String.length body - 1))

let note_event (e : Event_log.event) =
  if !enabled then begin
    let n = !seq in
    incr seq;
    push_slot { sl_seq = n; sl_event = e }
  end

let append ~ts_ns ~scope ~kind fields =
  if !enabled then
    note_event
      {
        Event_log.e_ts_ns = ts_ns;
        e_scope = scope;
        e_kind = kind;
        e_trace = None;
        e_fields = fields;
      }

let total_frames () =
  Hashtbl.fold (fun _ r acc -> acc + r.len) rings 0

(* -- Dumping ----------------------------------------------------------- *)

let frames_in_order () =
  let all = ref [] in
  Hashtbl.iter
    (fun _ r ->
      for i = 0 to r.len - 1 do
        all := r.buf.((r.start + i) mod Array.length r.buf) :: !all
      done)
    rings;
  List.sort (fun a b -> compare a.sl_seq b.sl_seq) !all
  |> List.map (fun sl ->
         {
           fr_seq = sl.sl_seq;
           fr_ts_ns = sl.sl_event.Event_log.e_ts_ns;
           fr_scope = sl.sl_event.Event_log.e_scope;
           fr_kind = sl.sl_event.Event_log.e_kind;
           fr_line = line_of_event sl.sl_seq sl.sl_event;
         })

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '-')
    s

(* Frames as Chrome trace_event instants, one lane per scope, so a dump
   opens directly in a trace viewer next to the full-run trace. *)
let chrome_json frames =
  Chrome_trace.json_of_events
    (List.map
       (fun fr ->
         {
           Chrome_trace.ph = 'i';
           ev_name = fr.fr_kind;
           ts_us = fr.fr_ts_ns /. 1e3;
           pid = fr.fr_scope;
           tid = fr.fr_scope;
           flow = None;
           args = [ ("seq", string_of_int fr.fr_seq) ];
         })
       frames)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let dump ~reason ~scope ~ts_ns () =
  if not !enabled then None
  else if !dump_seq >= !dump_cap then begin
    incr dropped_dumps;
    None
  end
  else begin
    let n = !dump_seq in
    incr dump_seq;
    let frames = frames_in_order () in
    let header =
      Printf.sprintf
        "{\"dump\":%d,\"reason\":\"%s\",\"scope\":\"%s\",\"ts_ns\":%s,\"frames\":%d}"
        n (Event_log.escape reason) (Event_log.escape scope)
        (Event_log.json_float ts_ns) (List.length frames)
    in
    let lines = header :: List.map (fun fr -> fr.fr_line) frames in
    let path =
      match !dump_dir with
      | None -> None
      | Some dir ->
          let base = Printf.sprintf "dump-%04d-%s" n (sanitize reason) in
          let jsonl = Filename.concat dir (base ^ ".jsonl") in
          write_file jsonl (String.concat "\n" lines ^ "\n");
          write_file
            (Filename.concat dir (base ^ ".trace.json"))
            (chrome_json frames);
          Some jsonl
    in
    let d =
      {
        d_seq = n;
        d_reason = reason;
        d_scope = scope;
        d_ts_ns = ts_ns;
        d_frames = List.length frames;
        d_path = path;
        d_lines = lines;
      }
    in
    dumps_rev := d :: !dumps_rev;
    Some d
  end

(* -- Triggers ---------------------------------------------------------- *)

let trigger_kinds =
  [
    "fault.injected";
    "policy.deny";
    "sched.shed";
    "sched.denied";
    "sched.tail_breach";
    "query.tail_breach";
    "wal.recover";
    "wal.crash";
    "slo.breach";
    "query.crashed";
    "query.rejected";
    "query.degraded";
    "enclave.abort";
  ]

let trigger_set =
  let h = Hashtbl.create 17 in
  List.iter (fun k -> Hashtbl.replace h k ()) trigger_kinds;
  h

(* Attestation events carry an [ok] flag rather than a failure kind. *)
let attest_failure (e : Event_log.event) =
  (e.Event_log.e_kind = "attest.storage" || e.Event_log.e_kind = "attest.host")
  && List.exists
       (fun (k, v) -> k = "ok" && v = Event_log.B false)
       e.Event_log.e_fields

let trigger_reason (e : Event_log.event) =
  if Hashtbl.mem trigger_set e.Event_log.e_kind then Some e.Event_log.e_kind
  else if attest_failure e then Some (e.Event_log.e_kind ^ ".fail")
  else None

let on_event (e : Event_log.event) =
  if !enabled then begin
    note_event e;
    match trigger_reason e with
    | None -> ()
    | Some reason ->
        ignore
          (dump ~reason ~scope:e.Event_log.e_scope
             ~ts_ns:e.Event_log.e_ts_ns ())
  end

let enable () =
  enabled := true;
  Event_log.tap := on_event

let disable () =
  enabled := false;
  Event_log.tap := (fun _ -> ())
