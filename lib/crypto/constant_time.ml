(* Data-independent comparison: the loop always visits every byte so
   the running time leaks only the lengths, never the mismatch index. *)

let equal_sub a b off =
  let n = String.length a in
  if off < 0 || off > String.length b - n then false
  else begin
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc lor (Char.code a.[i] lxor Char.code b.[off + i])
    done;
    !acc = 0
  end

let equal a b = String.length a = String.length b && equal_sub a b 0
