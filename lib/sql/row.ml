(* Rows: value arrays plus (de)serialization against a page layout.
   Each encoded row is u16 length + concatenated encoded values. *)

type t = Value.t array

let encode row =
  let buf = Buffer.create 64 in
  Array.iter (Value.encode buf) row;
  let body = Buffer.contents buf in
  let n = String.length body in
  if n > 0xffff then invalid_arg "Row.encode: row too large";
  let out = Bytes.create (n + 2) in
  Bytes.set out 0 (Char.chr (n lsr 8));
  Bytes.set out 1 (Char.chr (n land 0xff));
  Bytes.blit_string body 0 out 2 n;
  Bytes.to_string out

let encoded_size row =
  let n = ref 2 in
  for i = 0 to Array.length row - 1 do
    n := !n + Value.encoded_size (Array.unsafe_get row i)
  done;
  !n

(* Decode the row at the cursor into [row], leaving the cursor past
   it: slot [i] is built when [mask.(i)], and the other values are only
   skipped over, so their slots keep what [row] held. Every value is
   checked either way, and the result is [heap_size] of the whole row
   as stored. *)
let decode_into ~mask (c : Value.cursor) row =
  let s = c.src and off = c.pos in
  let len = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1] in
  c.pos <- off + 2;
  let heap = ref 16 in
  for i = 0 to Array.length mask - 1 do
    if mask.(i) then begin
      let v = Value.decode c in
      row.(i) <- v;
      heap := !heap + Value.heap_size v
    end
    else heap := !heap + Value.skip c
  done;
  if c.pos <> off + 2 + len then failwith "Row.decode: length mismatch";
  !heap

let decode ~arity c =
  let row = Array.make arity Value.Null in
  ignore (decode_into ~mask:(Array.make arity true) c row);
  row

let heap_size row =
  let n = ref 16 in
  for i = 0 to Array.length row - 1 do
    n := !n + Value.heap_size (Array.unsafe_get row i)
  done;
  !n

let pp ppf row =
  Fmt.pf ppf "(%s)"
    (String.concat ", " (Array.to_list (Array.map Value.to_string row)))
