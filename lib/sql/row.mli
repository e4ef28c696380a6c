(** Rows and their binary encoding. *)

type t = Value.t array

val encode : t -> string
(** u16 body length + encoded values. *)

val encoded_size : t -> int
(** [String.length (encode r)], computed without encoding. *)

val decode : arity:int -> Value.cursor -> t
(** Decode the row at the cursor and advance past it.
    @raise Failure on a length mismatch (see {!Value.decode}). *)

val heap_size : t -> int
val pp : Format.formatter -> t -> unit
