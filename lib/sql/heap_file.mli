(** Heap files: rows packed into pager pages in insertion order, or
    held resident in memory. *)

type t

val create : pager:Pager.t -> schema:Schema.t -> t

val resident : schema:Schema.t -> Row.t list -> t
(** An immutable in-memory table over [rows], with no pager behind it:
    scans ({!iter}, {!to_list}) return the rows themselves, in order.
    Writes and page-level access raise [Invalid_argument]; it has no
    stored pages.
    @raise Invalid_argument if a row's arity differs from the schema's. *)

val schema : t -> Schema.t
val row_count : t -> int
val page_count : t -> int

val append : t -> Row.t -> unit

val append_page : t -> Row.t -> int
(** Append and return the page the row landed on (index maintenance). *)

val append_all : t -> Row.t list -> unit

val flush : t -> unit
(** Persist any buffered rows. *)

val iter : t -> f:(Row.t -> unit) -> unit
(** Full scan in storage order (flushes first). *)

val iter_pages : t -> int list -> f:(page:int -> Row.t -> unit) -> unit
(** Scan only the given pages (index-driven access path). *)

val to_list : t -> Row.t list

val rewrite : t -> f:(Row.t -> [ `Keep | `Replace of Row.t | `Delete ]) -> int
(** In-place rewrite for UPDATE/DELETE; returns affected row count. *)

val stored_pages : t -> int list
(** Page ids backing this file, in scan order. *)

val reload : t -> unit
(** Rebuild the volatile write cursor and row count from the
    on-storage image, discarding buffered rows and any trailing page
    the pager can no longer serve. Used after the backing store has
    been crash-recovered underneath the file: the storage image (only
    durably committed rows) becomes the truth again. Only decode /
    out-of-range failures are treated as the rolled-back tail; a
    {!Pager.Integrity_failure} (tampered page) propagates. *)
