(** Which columns of which base tables a SELECT references.

    One walk over the statement, subqueries and derived tables included,
    with the executor's scoping rules. The partitioner ships the
    columns it finds to the host ({!columns}); the executor decodes only
    them out of pages ({!mask}). *)

type binding = {
  name : string;  (** the alias, else the table name; lowercase *)
  table : string;  (** lowercase *)
  schema : Schema.t;
}
(** A base table as one FROM clause names it. *)

type t

val of_select :
  ?on_select:
    (scopes:binding list list -> local:binding list -> Ast.select -> unit) ->
  Catalog.t ->
  Ast.select ->
  t
(** Walk a SELECT. [on_select] runs once per query level (the
    statement, each subquery, each derived table), after every level
    nested in it, with the level's base tables ([local]) and its scope
    stack ([scopes], innermost first, [local] at its head). Tables the
    catalog does not know are ignored. *)

val resolve : binding list list -> string option -> string -> binding option
(** [resolve scopes qualifier name]: the base table a column reference
    resolves to, searching the innermost scope first; [None] when no
    base table in scope has it. *)

val tables : t -> string list
(** Every known base table named in a FROM clause, even when the
    statement reads none of its columns (count-star); sorted. *)

val columns : t -> Schema.t -> string list
(** The columns of the schema's table that the statement reads, in
    schema order. *)

val mask : t -> Schema.t -> bool array
(** Per schema column: whether a scan of the table must decode it.
    That is {!columns}, except that it is all-true for a table the
    statement does not name. *)
