(** Flight recorder: constant-memory per-scope ring buffers of recent
    observability activity (events, virtual-time charges, finished
    query spans), dumped as JSONL + Chrome trace when an anomaly
    triggers — fault injection, policy denial, abnormal query outcome,
    WAL crash/recovery, attestation failure, SLO breach, tail-latency
    breach.

    Frames are virtual-clock-stamped and carry only virtual-time data
    (JSONL rendering is deferred to dump time to keep appends cheap),
    so dumps are byte-deterministic for a fixed seed. While disabled every
    entry point is a no-op (one boolean load): nothing is buffered and
    nothing is written. *)

type frame = {
  fr_seq : int;  (** global append order — total order across rings *)
  fr_ts_ns : float;
  fr_scope : string;
  fr_kind : string;
  fr_line : string;  (** fully rendered JSONL line *)
}

type dump = {
  d_seq : int;
  d_reason : string;  (** triggering event kind, e.g. ["fault.injected"] *)
  d_scope : string;
  d_ts_ns : float;
  d_frames : int;
  d_path : string option;  (** JSONL file, when a dump dir is set *)
  d_lines : string list;  (** header line + frame lines, dump order *)
}

val configure : ?frames:int -> ?dir:string -> ?cap:int -> unit -> unit
(** Set ring capacity per scope (default 256), dump directory (default
    none: dumps stay in memory only), and max dumps per run (default
    64; later triggers are counted but dropped). Clears all recorder
    state. *)

val enable : unit -> unit
(** Start recording: installs the recorder on {!Event_log.tap}, so
    every emitted event becomes a frame and trigger kinds dump.
    Requires observability ([Obs.enable]) for events to flow. *)

val disable : unit -> unit
val is_enabled : unit -> bool
val reset : unit -> unit
(** Drop rings, dump metadata, and sequence counters (config kept). *)

val append :
  ts_ns:float ->
  scope:string -> kind:string -> (string * Event_log.field) list -> unit
(** Record one frame directly (bypassing the event log) — used for
    metric deltas and span completions, and by the microbench kernel. *)

val note_event : Event_log.event -> unit
(** Record an already-built event as a frame (no trigger check). *)

val dump : reason:string -> scope:string -> ts_ns:float -> unit -> dump option
(** Force a dump of current ring contents. [None] while disabled or
    once the dump cap is reached. *)

val trigger_reason : Event_log.event -> string option
(** The dump reason an event would trigger, if any: its kind for
    trigger kinds, ["<kind>.fail"] for attestation events carrying
    [ok=false]. *)

val trigger_kinds : string list

val frame_capacity : unit -> int
val total_frames : unit -> int
(** Frames currently held across all rings (bounded by
    scopes * capacity). *)

val dump_count : unit -> int
val dropped : unit -> int
(** Triggers suppressed by the dump cap. *)

val dumps : unit -> dump list
(** Metadata (and lines) of every dump this run, oldest first. *)
