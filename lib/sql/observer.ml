(* Execution observer: the query engine reports abstract work (rows
   processed, pages touched, bytes materialized) through these hooks;
   the IronSafe runner maps them onto the simulated nodes' cost model.
   The engine itself stays independent of the simulator. *)

type t = {
  on_rows : int -> unit;  (** operator steps over n rows *)
  on_page_read : cached:bool -> unit;
  on_page_write : unit -> unit;
  on_alloc : int -> unit;  (** bytes of intermediate state materialized *)
  on_release : int -> unit;
}

let null =
  {
    on_rows = ignore;
    on_page_read = (fun ~cached:_ -> ());
    on_page_write = ignore;
    on_alloc = ignore;
    on_release = ignore;
  }

(* A counting observer, handy in tests. [page_reads] counts physical
   (uncached) reads so existing I/O-cost consumers keep their meaning
   when a buffer pool sits in front of the pager; pool hits land in
   [page_hits]. *)
type counters = {
  mutable rows : int;
  mutable page_reads : int;
  mutable page_hits : int;
  mutable page_writes : int;
  mutable bytes_allocated : int;
}

let counting () =
  let c =
    {
      rows = 0;
      page_reads = 0;
      page_hits = 0;
      page_writes = 0;
      bytes_allocated = 0;
    }
  in
  let obs =
    {
      on_rows = (fun n -> c.rows <- c.rows + n);
      on_page_read =
        (fun ~cached ->
          if cached then c.page_hits <- c.page_hits + 1
          else c.page_reads <- c.page_reads + 1);
      on_page_write = (fun () -> c.page_writes <- c.page_writes + 1);
      on_alloc = (fun n -> c.bytes_allocated <- c.bytes_allocated + n);
      on_release = ignore;
    }
  in
  (obs, c)
