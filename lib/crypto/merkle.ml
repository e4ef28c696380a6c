(* Keyed Merkle tree over page authentication tags (the paper builds a
   "streamlined Merkle tree" of per-page HMACs; internal nodes are also
   HMACs — §4.1). Implemented as a flat binary heap over a power-of-two
   capacity so leaf updates touch exactly one root path.

   The tree lives in trusted memory, so a reader checks a page's tag
   against its stored leaf and never re-walks the path: path hashing
   happens only when a leaf is set (a write, or a rebuild from
   untrusted tags whose root is then checked against the anchor).

   [hash_ops] counts HMAC evaluations since the last [reset_hash_ops];
   the simulator charges freshness-verification time from it. *)

type t = {
  prekey : Hmac.prekey; (* ipad/opad midstates, absorbed once *)
  cap : int; (* power of two >= requested leaf count *)
  leaves : int; (* requested leaf count *)
  nodes : string array; (* 1-indexed heap: nodes.(1) = root *)
  mutable hash_ops : int;
}

let empty_leaf_tag = "\x00merkle-empty-leaf"

let rec next_pow2 n = if n <= 1 then 1 else 2 * next_pow2 ((n + 1) / 2)

let hash_node t payload =
  t.hash_ops <- t.hash_ops + 1;
  Hmac.mac_pre t.prekey payload

(* Internal node: HMAC of the two children, fed as parts so the
   64-byte concatenation is never materialized. *)
let hash_children t left right =
  t.hash_ops <- t.hash_ops + 1;
  Hmac.mac_pre_list t.prekey [ left; right ]

let create ~key ~leaves =
  if leaves <= 0 then invalid_arg "Merkle.create: leaves must be positive";
  let cap = next_pow2 leaves in
  let t =
    {
      prekey = Hmac.precompute ~key;
      cap;
      leaves;
      nodes = Array.make (2 * cap) "";
      hash_ops = 0;
    }
  in
  let empty = hash_node t empty_leaf_tag in
  for i = cap to (2 * cap) - 1 do
    t.nodes.(i) <- empty
  done;
  for i = cap - 1 downto 1 do
    t.nodes.(i) <- hash_children t t.nodes.(2 * i) t.nodes.((2 * i) + 1)
  done;
  t

let leaf_count t = t.leaves
let root t = t.nodes.(1)
let hash_ops t = t.hash_ops
let reset_hash_ops t = t.hash_ops <- 0

let check_index t i =
  if i < 0 || i >= t.leaves then invalid_arg "Merkle: leaf index out of range"

let leaf_tag_of_data t data = hash_node t data

let set_leaf t i tag =
  check_index t i;
  let pos = ref (t.cap + i) in
  t.nodes.(!pos) <- tag;
  pos := !pos / 2;
  while !pos >= 1 do
    t.nodes.(!pos) <-
      hash_children t t.nodes.(2 * !pos) t.nodes.((2 * !pos) + 1);
    pos := !pos / 2
  done

let update t i data = set_leaf t i (leaf_tag_of_data t data)

let leaf t i =
  check_index t i;
  t.nodes.(t.cap + i)

let depth t =
  let rec go cap acc = if cap <= 1 then acc else go (cap / 2) (acc + 1) in
  go t.cap 0
