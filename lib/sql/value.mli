(** Runtime values with SQL semantics (three-valued comparisons, LIKE,
    date arithmetic) and a compact binary serialization used for both
    page storage and the wire format. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Date of Date.t

type ty = TBool | TInt | TFloat | TStr | TDate

exception Type_error of string

val ty_name : ty -> string
val ty_of_string : string -> ty option
val type_of : t -> ty option

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val as_float : t -> float
val as_int : t -> int
val as_bool : t -> bool

val compare_opt : t -> t -> int option
(** SQL comparison; [None] when either side is NULL. *)

val null_cmp : int
(** What {!compare_sql} returns when either side is NULL ([min_int]). *)

val compare_sql : t -> t -> int
(** {!compare_opt} without the option: [Some c] is [c], [None] is
    {!null_cmp}. Raises the same [Type_error]s. *)

val of_bool : bool -> t
(** [Bool b], shared: allocates nothing. *)

val compare_total : t -> t -> int
(** Total order (NULL first) for sorting and keying. *)

val equal : t -> t -> bool

val arith : [ `Add | `Sub | `Mul | `Div ] -> t -> t -> t
(** Numeric and date arithmetic; NULL-propagating; division by zero
    yields NULL. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** [arith `Add] etc., with the numeric pairs matched without boxing
    an operand; equal to {!arith} on every input. *)

val like : pattern:string -> string -> bool
(** SQL LIKE with [%] and [_]. *)

val encode : Buffer.t -> t -> unit

type cursor = { src : string; mutable pos : int }
(** A read position in an encoded buffer. *)

val cursor : string -> int -> cursor

val decode : cursor -> t
(** Decode the value at the cursor and advance past it.
    @raise Type_error on an unknown tag, [Invalid_argument] when the
    buffer ends early. *)

val skip : cursor -> int
(** Advance past the value at the cursor without allocating it, and
    return the {!heap_size} the decoded value would have (8, 16, or 24
    plus the length of a string), read from its tag and length. Checks
    what {!decode} checks and raises the same exceptions. *)

val encoded_size : t -> int
(** [String.length] of what {!encode} writes, without encoding. *)

val key_equal : t -> t -> bool
(** Hash-key equality: {!equal}, except that NULL equals NULL and
    values of incomparable kinds are unequal rather than an error. *)

val hash : t -> int
(** Consistent with {!key_equal}: [Int n], [Date n] and [Float f] with
    [f = float_of_int n] hash alike. *)

val heap_size : t -> int
(** Approximate in-memory footprint in bytes (for the memory meter). *)
