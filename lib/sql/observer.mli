(** Execution observer: the engine reports abstract work through these
    hooks; the IronSafe runner maps them onto the cost model. The
    engine itself stays simulator-independent. *)

type t = {
  on_rows : int -> unit;  (** row-operator steps *)
  on_page_read : cached:bool -> unit;
  on_page_write : unit -> unit;
  on_alloc : int -> unit;  (** bytes of intermediate state *)
  on_release : int -> unit;
}

val null : t

type counters = {
  mutable rows : int;
  mutable page_reads : int;  (** physical (uncached) page reads *)
  mutable page_hits : int;  (** buffer-pool hits (served without I/O) *)
  mutable page_writes : int;
  mutable bytes_allocated : int;
}

val counting : unit -> t * counters
(** A fresh counting observer and its live counters. *)
