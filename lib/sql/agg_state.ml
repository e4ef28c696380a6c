(* Incremental aggregate accumulators. SQL semantics: NULLs are ignored
   by all aggregates except count-star; aggregating an empty set yields
   NULL except count, which yields 0. *)

type acc =
  | Count_acc of { mutable n : int }
  | Sum_acc of { mutable sum : Value.t }
  | Avg_acc of { mutable sum : float; mutable n : int }
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
    | Ast.Count -> Count_acc { n = 0 }
    | Ast.Sum -> Sum_acc { sum = Value.Null }
    | Ast.Avg -> Avg_acc { sum = 0.0; n = 0 }
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

let update t input =
  match (t.acc, input) with
  | Count_acc c, `Star -> c.n <- c.n + 1
  | Count_acc _, `Value Value.Null -> ()
  | Count_acc c, `Value v -> if not (seen_before t v) then c.n <- c.n + 1
  | _, `Value Value.Null -> ()
  | Sum_acc s, `Value v ->
      if not (seen_before t v) then
        s.sum <-
          (match s.sum with
          | Value.Null -> v
          | cur -> Value.arith `Add cur v)
  | Avg_acc a, `Value v ->
      if not (seen_before t v) then begin
        a.sum <- a.sum +. Value.as_float v;
        a.n <- a.n + 1
      end
  | Min_acc m, `Value v ->
      (match Value.compare_opt v m.v with
      | Some c when c < 0 -> m.v <- v
      | Some _ -> ()
      | None -> m.v <- v (* current is Null *))
  | Max_acc m, `Value v ->
      (match Value.compare_opt v m.v with
      | Some c when c > 0 -> m.v <- v
      | Some _ -> ()
      | None -> m.v <- v)
  | (Sum_acc _ | Avg_acc _ | Min_acc _ | Max_acc _), `Star ->
      invalid_arg "Agg_state.update: only count accepts *"

let finish t =
  match t.acc with
  | Count_acc c -> Value.Int c.n
  | Sum_acc s -> s.sum
  | Avg_acc a -> if a.n = 0 then Value.Null else Value.Float (a.sum /. float_of_int a.n)
  | Min_acc m -> m.v
  | Max_acc m -> m.v
