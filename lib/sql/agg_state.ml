(* Incremental aggregate accumulators. SQL semantics: NULLs are ignored
   by all aggregates except count-star; aggregating an empty set yields
   NULL except count, which yields 0.

   Float running sums live in an all-float record, which OCaml stores
   flat, so adding to one allocates nothing; a mutable float field of a
   mixed record would box a fresh float on every update. *)

type floats = { mutable total : float; mutable n : float }

(* While [floating], the sum is [Float f.total] and [sum] is unused:
   once [Value.arith] has made a running sum a [Float], every later
   addition keeps it one. *)
type sum = { mutable sum : Value.t; mutable floating : bool; f : floats }

type acc =
  | Count_acc of { mutable count : int }
  | Sum_acc of sum
  | Avg_acc of floats
  | Min_acc of { mutable v : Value.t }
  | Max_acc of { mutable v : Value.t }

(* DISTINCT keeps the values it has seen under the same equality as
   GROUP BY and the join keys: 1 and 1.0 are one value. *)
module Seen = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.key_equal
  let hash = Value.hash
end)

type t = { acc : acc; distinct : unit Seen.t option }

let create func ~distinct =
  let acc =
    match func with
    | Ast.Count -> Count_acc { count = 0 }
    | Ast.Sum ->
        Sum_acc { sum = Value.Null; floating = false; f = { total = 0.0; n = 0.0 } }
    | Ast.Avg -> Avg_acc { total = 0.0; n = 0.0 }
    | Ast.Min -> Min_acc { v = Value.Null }
    | Ast.Max -> Max_acc { v = Value.Null }
  in
  { acc; distinct = (if distinct then Some (Seen.create 16) else None) }

let seen_before t v =
  match t.distinct with
  | None -> false
  | Some table ->
      Seen.mem table v
      || begin
           Seen.add table v ();
           false
         end

let update_star t =
  match t.acc with
  | Count_acc c -> c.count <- c.count + 1
  | Sum_acc _ | Avg_acc _ | Min_acc _ | Max_acc _ ->
      invalid_arg "Agg_state.update_star: only count accepts *"

(* [cur + v] as [Value.arith `Add] computes it, with a [Float] sum kept
   unboxed in [f.total]. *)
let set_sum s = function
  | Value.Float x ->
      s.f.total <- x;
      s.floating <- true
  | v -> s.sum <- v

let add_to_sum s v =
  if s.floating then
    match v with
    | Value.Float y -> s.f.total <- s.f.total +. y
    | Value.Int y -> s.f.total <- s.f.total +. float_of_int y
    | v -> set_sum s (Value.arith `Add (Value.Float s.f.total) v)
  else
    match s.sum with
    | Value.Null -> set_sum s v
    | cur -> set_sum s (Value.add cur v)

let update_value t v =
  match (t.acc, v) with
  | _, Value.Null -> ()
  | Count_acc c, v -> if not (seen_before t v) then c.count <- c.count + 1
  | Sum_acc s, v -> if not (seen_before t v) then add_to_sum s v
  | Avg_acc a, v ->
      if not (seen_before t v) then begin
        (match v with
        | Value.Float x -> a.total <- a.total +. x
        | Value.Int x -> a.total <- a.total +. float_of_int x
        | v -> a.total <- a.total +. Value.as_float v);
        a.n <- a.n +. 1.0
      end
  | Min_acc m, v ->
      (* [null_cmp]: the current minimum is NULL *)
      let c = Value.compare_sql v m.v in
      if c < 0 then m.v <- v
  | Max_acc m, v ->
      let c = Value.compare_sql v m.v in
      if c > 0 || c = Value.null_cmp then m.v <- v

let finish t =
  match t.acc with
  | Count_acc c -> Value.Int c.count
  | Sum_acc s -> if s.floating then Value.Float s.f.total else s.sum
  | Avg_acc a -> if a.n = 0.0 then Value.Null else Value.Float (a.total /. a.n)
  | Min_acc m -> m.v
  | Max_acc m -> m.v
