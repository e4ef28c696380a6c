(* Which implementation the block cipher and the hash run on, read from
   CPUID once, when the library is loaded (see accel_stubs.c). *)

external cpu_features : unit -> int = "ironsafe_crypto_cpu_features"

let features = cpu_features ()
let aes = features land 1 <> 0
let sha256 = features land 2 <> 0

let path =
  match (aes, sha256) with
  | true, true -> "aes-ni+sha-ni"
  | true, false -> "aes-ni+ocaml-sha256"
  | false, true -> "ocaml-aes+sha-ni"
  | false, false -> "ocaml"
