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
  Array.fold_left (fun acc v -> acc + Value.encoded_size v) 2 row

(* Decode one row of [arity] values at the cursor, leaving the cursor
   past the row. *)
let decode ~arity (c : Value.cursor) =
  let s = c.src and off = c.pos in
  let len = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1] in
  c.pos <- off + 2;
  let row = Array.make arity Value.Null in
  for i = 0 to arity - 1 do
    row.(i) <- Value.decode c
  done;
  if c.pos <> off + 2 + len then failwith "Row.decode: length mismatch";
  row

let heap_size row =
  Array.fold_left (fun acc v -> acc + Value.heap_size v) 16 row

let pp ppf row =
  Fmt.pf ppf "(%s)"
    (String.concat ", " (Array.to_list (Array.map Value.to_string row)))
