(* Shared splitmix64 stream.

   One seeded implementation serves every subsystem that needs
   reproducible randomness on the virtual timeline: fault plans
   (lib/fault) and workload arrival processes (lib/sched) draw from
   instances of this generator, so "same seed, same schedule" holds
   across the whole stack instead of per-copy.

   The state advances by the golden gamma; the output is the mixed
   state. Small, fast, and plenty for schedule generation. *)

type t = { mutable state : int64 }

(* The state is the seed itself, not pre-mixed: seed [n] yields the
   splitmix64 stream that starts from state [n]. *)
let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let next_u64 t =
  let open Int64 in
  let s = add t.state 0x9E3779B97F4A7C15L in
  t.state <- s;
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let uniform t =
  (* top 53 bits -> [0,1) *)
  Int64.to_float (Int64.shift_right_logical (next_u64 t) 11) /. 9007199254740992.0

let rand_int t bound =
  if bound <= 0 then 0
  else
    Int64.to_int
      (Int64.rem (Int64.shift_right_logical (next_u64 t) 1) (Int64.of_int bound))

(* Inverse-CDF exponential draw; [uniform] is in [0,1) so the argument
   of [log] is in (0,1] and the result is finite and non-negative.
   [mean = 0] degenerates to a zero delay (still consumes one draw, so
   schedules stay aligned across parameterizations). *)
let exponential t ~mean_ns =
  if mean_ns < 0.0 then invalid_arg "Prng.exponential: negative mean";
  if mean_ns = 0.0 then begin
    ignore (uniform t);
    0.0
  end
  else -.mean_ns *. log (1.0 -. uniform t)

(* An independent child stream: seeded from the parent's next output,
   so forks are reproducible but decorrelated from the parent's
   subsequent draws. *)
let fork t = { state = next_u64 t }

(* The splitmix64 output finalizer on its own: a bijective avalanche
   mix, used to derive decorrelated child states from (state, index)
   pairs without consuming any parent draws. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* [split] derives the [index]-th child stream of the parent's
   *current* state without advancing the parent: the pair
   (state, index) is folded through the finalizer, so adjacent indices
   land on unrelated trajectories. Unlike [fork], splitting is a pure
   read — per-session streams can be derived on demand (session id as
   index) while the parent keeps generating, and the same
   (seed, index) always yields the same stream. *)
let split t ~index =
  if index < 0 then invalid_arg "Prng.split: negative index";
  let open Int64 in
  {
    state =
      mix64
        (add (mix64 t.state)
           (mul 0x9E3779B97F4A7C15L (of_int (index + 1))));
  }

(* O(1) jump: the state advances by the golden gamma once per
   [next_u64], so skipping [n] draws is one multiply-add. *)
let jump t n =
  if n < 0 then invalid_arg "Prng.jump: negative count";
  t.state <- Int64.add t.state (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int n))
