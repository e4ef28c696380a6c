(** Rows and their binary encoding. *)

type t = Value.t array

val encode : t -> string
(** u16 body length + encoded values. *)

val encoded_size : t -> int
(** [String.length (encode r)], computed without encoding. *)

val decode_into : mask:bool array -> Value.cursor -> t -> int
(** [decode_into ~mask c row] decodes the row at the cursor and
    advances past it. The row has [Array.length mask] values; value [i]
    is stored in [row.(i)] when [mask.(i)] holds, and is otherwise
    checked and skipped without being built, leaving [row.(i)] as it
    was. Returns {!heap_size} of the whole row as stored, whatever the
    mask. This is the one row decoder: {!decode} is the all-true mask.
    @raise Failure on a length mismatch, and what {!Value.decode}
    raises on a bad tag or a truncated value. *)

val decode : arity:int -> Value.cursor -> t
(** Decode every value of the row at the cursor and advance past it.
    @raise Failure on a length mismatch (see {!Value.decode}). *)

val heap_size : t -> int
val pp : Format.formatter -> t -> unit
