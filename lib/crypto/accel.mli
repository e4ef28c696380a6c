(** Hardware selection for the crypto primitives.

    {!Aes}, {!Modes}, {!Sha256} and {!Hmac} run on the CPU's AES-NI and
    SHA-NI instructions when it has them (with SSE4.1), and on their
    OCaml code otherwise. The choice is made once, from CPUID, when the
    library is loaded; there is no switch. Both paths produce the same
    bytes: the OCaml code is the reference the instructions are tested
    against (each module's hidden [Reference]). *)

val aes : bool
(** [Aes] and [Modes] use AES-NI. *)

val sha256 : bool
(** [Sha256] (and so [Hmac]) compresses with SHA-NI. *)

val path : string
(** The selection as one word: ["aes-ni+sha-ni"], ["aes-ni+ocaml-sha256"],
    ["ocaml-aes+sha-ni"] or ["ocaml"]. *)
