(* Runtime values of the query engine. SQL three-valued logic is
   represented by [Null] flowing through comparisons and arithmetic;
   boolean contexts treat Null as false (sufficient for the supported
   dialect, which has no IS NULL-sensitive aggregates beyond count). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Date of Date.t

type ty = TBool | TInt | TFloat | TStr | TDate

let ty_name = function
  | TBool -> "boolean"
  | TInt -> "integer"
  | TFloat -> "double"
  | TStr -> "varchar"
  | TDate -> "date"

let ty_of_string s =
  match String.lowercase_ascii s with
  | "boolean" | "bool" -> Some TBool
  | "integer" | "int" | "bigint" -> Some TInt
  | "double" | "float" | "real" | "decimal" | "numeric" -> Some TFloat
  | "varchar" | "char" | "text" | "string" -> Some TStr
  | "date" -> Some TDate
  | _ -> None

let type_of = function
  | Null -> None
  | Bool _ -> Some TBool
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | Str _ -> Some TStr
  | Date _ -> Some TDate

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let to_string = function
  | Null -> "NULL"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.2f" f
  | Str s -> s
  | Date d -> Date.to_string d

let pp ppf v = Fmt.string ppf (to_string v)

let as_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> type_error "expected numeric, got %s" (to_string v)

let as_int = function
  | Int i -> i
  | Float f -> int_of_float f
  | v -> type_error "expected integer, got %s" (to_string v)

let as_bool = function
  | Bool b -> b
  | Null -> false
  | v -> type_error "expected boolean, got %s" (to_string v)

(* SQL comparison; Null compares as unknown -> None. *)
let compare_opt a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Bool x, Bool y -> Some (Bool.compare x y)
  | Int x, Int y -> Some (Int.compare x y)
  | Float x, Float y -> Some (Float.compare x y)
  | Int x, Float y -> Some (Float.compare (float_of_int x) y)
  | Float x, Int y -> Some (Float.compare x (float_of_int y))
  | Str x, Str y -> Some (String.compare x y)
  | Date x, Date y -> Some (Date.compare x y)
  (* dates and their day-number representation interoperate *)
  | Date x, Int y -> Some (Int.compare x y)
  | Int x, Date y -> Some (Int.compare x y)
  | x, y ->
      type_error "cannot compare %s with %s" (to_string x) (to_string y)

(* [compare_opt] without the option: the comparison as an int, or
   [null_cmp] when either side is NULL. Same-kind pairs are matched
   first; every other pair, mixed kinds included, goes through
   [compare_opt], so its results and [Type_error]s are the same. *)
let null_cmp = min_int

let compare_sql a b =
  match (a, b) with
  | Int x, Int y | Date x, Date y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Null, _ | _, Null -> null_cmp
  | _ -> ( match compare_opt a b with Some c -> c | None -> null_cmp)

let equal a b = compare_sql a b = 0

(* Shared truth values: [of_bool] allocates nothing. *)
let vtrue = Bool true
let vfalse = Bool false
let of_bool b = if b then vtrue else vfalse

(* Total order for sorting and group keys: Null sorts first. *)
let compare_total a b =
  match (a, b) with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | _ -> compare_sql a b


let arith op a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> (
      match op with
      | `Add -> Int (x + y)
      | `Sub -> Int (x - y)
      | `Mul -> Int (x * y)
      | `Div -> if y = 0 then Null else Float (float_of_int x /. float_of_int y))
  | (Int _ | Float _), (Int _ | Float _) -> (
      let x = as_float a and y = as_float b in
      match op with
      | `Add -> Float (x +. y)
      | `Sub -> Float (x -. y)
      | `Mul -> Float (x *. y)
      | `Div -> if y = 0.0 then Null else Float (x /. y))
  | Date d, Int n -> (
      match op with
      | `Add -> Date (Date.add_days d n)
      | `Sub -> Date (Date.add_days d (-n))
      | `Mul | `Div -> type_error "invalid date arithmetic")
  | Date x, Date y -> (
      match op with
      | `Sub -> Int (x - y)
      | `Add | `Mul | `Div -> type_error "invalid date arithmetic")
  | x, y ->
      type_error "invalid arithmetic on %s and %s" (to_string x) (to_string y)

(* [arith] per operator, with the numeric pairs matched in front so a
   float operand is never boxed on its own; every other pair falls
   through to [arith]. The results are [arith]'s: [Int] x [Int] stays
   [Int] except under [/], which yields [Float], and division by zero
   yields NULL. *)
let add a b =
  match (a, b) with
  | Float x, Float y -> Float (x +. y)
  | Int x, Int y -> Int (x + y)
  | Int x, Float y -> Float (float_of_int x +. y)
  | Float x, Int y -> Float (x +. float_of_int y)
  | _ -> arith `Add a b

let sub a b =
  match (a, b) with
  | Float x, Float y -> Float (x -. y)
  | Int x, Int y -> Int (x - y)
  | Int x, Float y -> Float (float_of_int x -. y)
  | Float x, Int y -> Float (x -. float_of_int y)
  | _ -> arith `Sub a b

let mul a b =
  match (a, b) with
  | Float x, Float y -> Float (x *. y)
  | Int x, Int y -> Int (x * y)
  | Int x, Float y -> Float (float_of_int x *. y)
  | Float x, Int y -> Float (x *. float_of_int y)
  | _ -> arith `Mul a b

let div a b =
  match (a, b) with
  | Float x, Float y -> if y = 0.0 then Null else Float (x /. y)
  | Int x, Float y -> if y = 0.0 then Null else Float (float_of_int x /. y)
  | Float x, Int y ->
      if y = 0 then Null else Float (x /. float_of_int y)
  | _ -> arith `Div a b

(* SQL LIKE with % and _ wildcards: two pointers with backtracking to
   the last %. Top-level recursions, so a match allocates no closure. *)
let rec only_pct pattern pi =
  pi = String.length pattern || (pattern.[pi] = '%' && only_pct pattern (pi + 1))

let rec like_from pattern s si pi star_si star_pi =
  let n = String.length s and m = String.length pattern in
  if si = n then
    (* consume trailing %s *)
    if only_pct pattern pi then true
    else if star_pi >= 0 && star_si < n then
      like_from pattern s (star_si + 1) (star_pi + 1) (star_si + 1) star_pi
    else false
  else if pi < m && (pattern.[pi] = '_' || pattern.[pi] = s.[si]) then
    like_from pattern s (si + 1) (pi + 1) star_si star_pi
  else if pi < m && pattern.[pi] = '%' then like_from pattern s si (pi + 1) si pi
  else if star_pi >= 0 then
    like_from pattern s (star_si + 1) (star_pi + 1) (star_si + 1) star_pi
  else false

let like ~pattern s = like_from pattern s 0 0 (-1) (-1)

(* -- Serialization (page storage and wire format) ------------------- *)

let encode buf v =
  let add_u16 n =
    Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr (n land 0xff))
  in
  let add_i64 n =
    for i = 7 downto 0 do
      Buffer.add_char buf (Char.chr ((n asr (8 * i)) land 0xff))
    done
  in
  match v with
  | Null -> Buffer.add_char buf 'N'
  | Bool b -> Buffer.add_char buf (if b then 'T' else 'F')
  | Int i ->
      Buffer.add_char buf 'I';
      add_i64 i
  | Float f ->
      Buffer.add_char buf 'D';
      let bits = Int64.bits_of_float f in
      for i = 7 downto 0 do
        Buffer.add_char buf
          (Char.chr
             (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff))
      done
  | Str s ->
      Buffer.add_char buf 'S';
      add_u16 (String.length s);
      Buffer.add_string buf s
  | Date d ->
      Buffer.add_char buf 'A';
      add_i64 d

(* A read position in an encoded buffer; [decode] advances it past the
   value it returns. *)
type cursor = { src : string; mutable pos : int }

let cursor src pos = { src; pos }

(* The big-endian 64-bit integer at [off], taken modulo 2^63: values
   fit OCaml's 63-bit int, as [encode] wrote them. *)
let get_i64 s off = Int64.to_int (String.get_int64_be s off)

(* Decoded dates from 1970-01-01 to 2059-09-17 share one box per day,
   made on first use: a TPC-H lineitem row holds three dates, and a
   scan would otherwise box each of them again. Values are immutable,
   so sharing one is unobservable. *)
let shared_days = 1 lsl 15
let shared_dates = Array.make shared_days Null

let shared_date d =
  if d < 0 || d >= shared_days then Date d
  else
    match Array.unsafe_get shared_dates d with
    | Null ->
        let v = Date d in
        shared_dates.(d) <- v;
        v
    | v -> v

let decode c =
  let s = c.src and off = c.pos in
  match s.[off] with
  | 'N' ->
      c.pos <- off + 1;
      Null
  | 'T' ->
      c.pos <- off + 1;
      Bool true
  | 'F' ->
      c.pos <- off + 1;
      Bool false
  | 'I' ->
      let v = get_i64 s (off + 1) in
      c.pos <- off + 9;
      Int v
  | 'D' ->
      let v = Int64.float_of_bits (String.get_int64_be s (off + 1)) in
      c.pos <- off + 9;
      Float v
  | 'S' ->
      let len = (Char.code s.[off + 1] lsl 8) lor Char.code s.[off + 2] in
      let v = Str (String.sub s (off + 3) len) in
      c.pos <- off + 3 + len;
      v
  | 'A' ->
      let v = get_i64 s (off + 1) in
      c.pos <- off + 9;
      shared_date v
  | ch -> type_error "corrupt value tag %C" ch

(* Encoded width of each fixed-width tag; 0 for 'S' (the width is in
   its length prefix) and for bytes that are not tags. *)
let fixed_width =
  Array.init 256 (fun i ->
      match Char.chr i with
      | 'N' | 'T' | 'F' -> 1
      | 'I' | 'D' | 'A' -> 9
      | _ -> 0)

(* Advance past the value at the cursor without building it, checking
   what [decode] checks, and return its [heap_size] from the tag and
   the string length. *)
let skip c =
  let s = c.src and off = c.pos in
  let tag = s.[off] in
  let width =
    if tag = 'S' then
      3 + ((Char.code s.[off + 1] lsl 8) lor Char.code s.[off + 2])
    else Array.unsafe_get fixed_width (Char.code tag)
  in
  if width = 0 then type_error "corrupt value tag %C" tag;
  if off + width > String.length s then
    invalid_arg "Value.skip: truncated value";
  c.pos <- off + width;
  (* Null and booleans 8, other fixed-width values 16, strings 24 + len *)
  if width = 1 then 8 else if tag = 'S' then 21 + width else 16

let encoded_size = function
  | Null | Bool _ -> 1
  | Int _ | Float _ | Date _ -> 9
  | Str s -> 3 + String.length s

(* -- Hash keys ------------------------------------------------------- *)

(* Key equality: [equal], except that NULL equals NULL (GROUP BY keeps
   NULLs in one group; probes skip NULL keys before they get here) and
   values of incomparable kinds are simply unequal. *)
let key_equal a b =
  match (a, b) with
  | Int x, Int y | Date x, Date y -> x = y
  | Str x, Str y -> String.equal x y
  | Float x, Float y -> Float.compare x y = 0
  | Null, Null -> true
  | Null, _ | _, Null -> false
  | _ -> (
      match compare_opt a b with
      | Some c -> c = 0
      | None -> false
      | exception Type_error _ -> false)

(* An int's hash, mixed in OCaml rather than by the runtime's generic
   [Hashtbl.hash]: a multiply by an odd constant, then the high bits
   folded onto the low ones that hash tables index by. *)
let hash_int n =
  let h = n * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

(* A string's hash: FNV-1a over the bytes of a short string, the
   runtime's [Hashtbl.hash] for a long one (which reads a prefix). *)
let rec fnv_from s i h =
  if i = String.length s then h
  else fnv_from s (i + 1) ((h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3)

let hash_string s =
  if String.length s <= 16 then hash_int (fnv_from s 0 0x0bf29ce484222325)
  else Hashtbl.hash s

(* Consistent with [key_equal]: an [Int], a [Date] and an integral
   [Float] that compare equal hash alike. Below 2^53 the conversion
   between int and float is exact, so such numbers hash as ints; above
   it both sides hash as floats. *)
let exact = 1 lsl 53

let hash = function
  | Null -> 0
  | Bool b -> Bool.to_int b + 1
  | Int n | Date n ->
      if n > -exact && n < exact then hash_int n
      else Hashtbl.hash (float_of_int n)
  | Float f ->
      if Float.is_integer f && Float.abs f < float_of_int exact then
        hash_int (int_of_float f)
      else Hashtbl.hash f
  | Str s -> hash_string s

(* Approximate in-memory footprint, for the memory meter. [skip]
   returns the same figure for a value it does not build. *)
let heap_size = function
  | Null | Bool _ -> 8
  | Int _ | Float _ | Date _ -> 16
  | Str s -> 24 + String.length s
