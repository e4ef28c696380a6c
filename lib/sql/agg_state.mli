(** Incremental aggregate accumulators with SQL NULL semantics. *)

type t

val create : Ast.agg_func -> distinct:bool -> t

val update_value : t -> Value.t -> unit
(** Feed one argument value; NULL is ignored. *)

val update_star : t -> unit
(** Feed one row to [count( * )].
    @raise Invalid_argument for any other aggregate. *)

val finish : t -> Value.t
