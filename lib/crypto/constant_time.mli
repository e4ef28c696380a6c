(** Timing-safe operations on secrets. *)

val equal : string -> string -> bool
(** [equal a b] compares without early exit; time depends only on the
    lengths. Returns [false] immediately when lengths differ (lengths
    of MACs and digests are public). *)

val equal_sub : string -> string -> int -> bool
(** [equal_sub a b off] is [equal a (String.sub b off (String.length a))]
    without the copy, and [false] when that range is not within [b]. *)
