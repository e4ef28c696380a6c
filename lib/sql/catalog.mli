(** Database catalog: named heap files over a shared pager, plus their
    secondary indexes. *)

type t

exception Unknown_table of string
exception Duplicate_table of string
exception Unknown_index of string
exception Duplicate_index of string

val create : pager:Pager.t -> t

val create_resident : unit -> t
(** A catalog with no pager: it holds only tables added with
    {!add_resident}, and {!create_table} raises [Invalid_argument]. *)

val pager : t -> Pager.t option
val create_table : t -> Schema.t -> Heap_file.t

val add_resident : t -> Schema.t -> Row.t list -> unit
(** Register [rows] as a resident table ({!Heap_file.resident}). *)

val find : t -> string -> Heap_file.t
val find_opt : t -> string -> Heap_file.t option
val drop_table : t -> string -> unit
val table_names : t -> string list
val total_pages : t -> int
val total_rows : t -> int

(** {2 Secondary indexes} *)

val create_index : t -> index_name:string -> table:string -> column:string -> Index.t
val drop_index : t -> string -> unit
val indexes_for : t -> string -> Index.t list
val index_on : t -> table:string -> column:string -> Index.t option

val rebuild_indexes : t -> string -> unit
(** Repopulate every index of [table] (after UPDATE/DELETE rewrites). *)

val reload_tables : t -> unit
(** Rebuild every heap file's volatile state from the on-storage image
    and repopulate all indexes — the SQL layer's part of crash
    recovery, after the backing store has been recovered underneath
    the shared pager (see {!Heap_file.reload}). *)

val note_insert : t -> table:string -> page:int -> Row.t -> unit
(** Index-maintenance hook for freshly appended rows. *)
