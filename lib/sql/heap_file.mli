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

val is_resident : t -> bool
(** Whether the file was made by {!resident}: it reads no pages. *)

val schema : t -> Schema.t
val row_count : t -> int
val page_count : t -> int

val append : t -> Row.t -> unit

val append_page : t -> Row.t -> int
(** Append and return the page the row landed on (index maintenance). *)

val append_all : t -> Row.t list -> unit

val flush : t -> unit
(** Persist any buffered rows. *)

val scan : ?mask:bool array -> t -> f:(Row.t -> int -> unit) -> unit
(** Full scan in storage order (flushes first). [f row heap] gets each
    row with [heap], the {!Row.heap_size} of the whole row as stored.
    A paged file builds value [i] of each row only when [mask.(i)]
    holds (default: every value) and leaves the other slots [Null];
    every value is still checked ({!Row.decode_into}). A resident file
    hands over its own rows, whole, and the mask does not apply.
    @raise Invalid_argument if the mask's length is not the arity. *)

val iter : t -> f:(Row.t -> unit) -> unit
(** {!scan} with every value built. *)

val iter_pages :
  ?mask:bool array ->
  t ->
  int list ->
  f:(page:int -> Row.t -> int -> unit) ->
  unit
(** {!scan} of the given pages only (index-driven access path, index
    rebuilds); [f] also gets the page the row is stored on.
    @raise Invalid_argument on a resident file. *)

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
