(** Engine facade: parse, plan and execute SQL statements against a
    catalog over a pluggable pager. *)

type t

type outcome =
  | Result of Exec.result
  | Affected of int
  | Created of string
  | Dropped of string

val create : pager:Pager.t -> t

val create_resident : unit -> t
(** A database with no pager, holding only resident tables
    ({!add_resident_table}); it can run queries but not DDL/DML. *)

val catalog : t -> Catalog.t

val reload_storage : t -> unit
(** Re-anchor every table on the pager's current storage image and
    rebuild all indexes ({!Catalog.reload_tables}). Call after the
    backing store has been crash-recovered underneath the pager. *)

val set_observer : t -> Observer.t -> unit
(** Install the execution observer (also wired into the pager). *)

val create_table : t -> Schema.t -> unit

val insert_rows : t -> string -> Row.t list -> unit
(** Bulk load pre-built rows (bypasses the SQL layer). *)

val add_resident_table : t -> Schema.t -> Row.t list -> unit
(** Register [rows] as a resident table ({!Heap_file.resident}). The
    observer is charged exactly as {!insert_rows} charges it. *)

val exec_ast : t -> Ast.stmt -> outcome
val exec : t -> string -> outcome

val query : t -> string -> Exec.result
(** Like {!exec} but expects a row-producing statement.
    @raise Exec.Sql_error otherwise. *)

(**/**)

val state : t -> Exec.state
