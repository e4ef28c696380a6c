(* Query partitioning for computational storage (§5, "CSA database
   engine"): the storage side runs per-table scan+filter+project
   queries near the data; the host side runs the rest of the query
   (joins, group-bys, aggregations) over the shipped, already-filtered
   rows.

   The split is computed from the AST:
   - every base-table occurrence anywhere in the statement (including
     subqueries and derived tables) contributes the columns it
     references to that table's shipped projection; the walk that
     decides this is [Column_refs], which the executor's projected
     scans share;
   - a WHERE conjunct whose columns all belong to one occurrence and
     that contains no subquery is offloadable; a table referenced by
     several occurrences ships rows satisfying the OR of the
     occurrences' filters (or everything, if any occurrence is
     unfiltered) so each occurrence still sees all the rows it needs;
   - the host statement is the original query, re-run over the shipped
     tables (re-evaluating pushed-down filters on the host is sound:
     they are true on every shipped row).

   The paper notes its partitioning is deliberately simple (adapted
   MySQL partitioner with heuristics, §8 Limitations); this module
   mirrors that scope. *)

module Sql = Ironsafe_sql
open Sql.Ast

type shipped_table = {
  table : string;
  columns : string list;  (** subset of the schema, in schema order *)
  predicate : expr option;  (** offloaded filter, if every use has one *)
}

type plan = {
  shipped : shipped_table list;
  host_stmt : stmt;
  offload_sql : (string * string) list;  (** table -> storage-side SQL *)
}

(* Record one query level's offloadable filters: per local base-table
   binding, the conjunction of its WHERE conjuncts that read that
   binding alone and contain no subquery, or [None] when it has none.
   [filters] maps a table to one entry per occurrence. *)
let classify_filters filters ~scopes ~local (q : select) =
  let conjs = Option.fold ~none:[] ~some:conjuncts q.where in
  let single_of conj =
    if contains_subquery conj then None
    else begin
      let cols = columns_of_expr [] conj in
      if cols = [] then None
      else begin
        let owners =
          List.map (fun (q, n) -> Sql.Column_refs.resolve scopes q n) cols
        in
        if List.exists Option.is_none owners then None
        else begin
          match List.sort_uniq compare (List.filter_map Fun.id owners) with
          | [ (b : Sql.Column_refs.binding) ]
            when List.exists
                   (fun (x : Sql.Column_refs.binding) ->
                     x.name = b.name && x.table = b.table)
                   local ->
              Some b
          | _ -> None
        end
      end
    end
  in
  (* group per local binding *)
  let per_binding = Hashtbl.create 8 in
  List.iter
    (fun conj ->
      match single_of conj with
      | Some (b : Sql.Column_refs.binding) ->
          let l =
            Option.value ~default:[] (Hashtbl.find_opt per_binding b.name)
          in
          Hashtbl.replace per_binding b.name (conj :: l)
      | None -> ())
    conjs;
  List.iter
    (fun (b : Sql.Column_refs.binding) ->
      let fl =
        match Hashtbl.find_opt filters b.table with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace filters b.table l;
            l
      in
      match Hashtbl.find_opt per_binding b.name with
      | Some (_ :: _ as cs) -> fl := conjoin cs :: !fl
      | Some [] | None -> fl := None :: !fl)
    local

(* strip alias qualifiers: the offloaded per-table query scans a single
   table, where qualified references (l1.l_quantity) are meaningless *)
let rec strip_qualifiers e =
  match e with
  | Col { name; _ } -> Col { qualifier = None; name }
  | Lit _ | Interval _ -> e
  | Unary (op, x) -> Unary (op, strip_qualifiers x)
  | Binop (op, a, b) -> Binop (op, strip_qualifiers a, strip_qualifiers b)
  | Like l -> Like { l with subject = strip_qualifiers l.subject }
  | Between b ->
      Between
        {
          b with
          subject = strip_qualifiers b.subject;
          low = strip_qualifiers b.low;
          high = strip_qualifiers b.high;
        }
  | In_list i ->
      In_list
        {
          i with
          subject = strip_qualifiers i.subject;
          items = List.map strip_qualifiers i.items;
        }
  | Case { branches; else_ } ->
      Case
        {
          branches =
            List.map (fun (c, v) -> (strip_qualifiers c, strip_qualifiers v)) branches;
          else_ = Option.map strip_qualifiers else_;
        }
  | Extract x -> Extract { x with arg = strip_qualifiers x.arg }
  | Is_null i -> Is_null { i with subject = strip_qualifiers i.subject }
  | Substring x ->
      Substring
        {
          subject = strip_qualifiers x.subject;
          start = strip_qualifiers x.start;
          len = Option.map strip_qualifiers x.len;
        }
  | In_select _ | Exists _ | Scalar_select _ | Agg _ -> e

(* render an expression back to storage-side SQL *)
let rec sql_of_expr e =
  let bin op a b = Printf.sprintf "(%s %s %s)" (sql_of_expr a) op (sql_of_expr b) in
  match e with
  | Lit (Sql.Value.Str s) ->
      "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  | Lit (Sql.Value.Date d) -> Printf.sprintf "date '%s'" (Sql.Date.to_string d)
  | Lit (Sql.Value.Int i) -> string_of_int i
  | Lit (Sql.Value.Float f) -> Printf.sprintf "%.17g" f
  | Lit (Sql.Value.Bool b) -> string_of_bool b
  | Lit Sql.Value.Null -> "null"
  | Col { qualifier; name } ->
      (match qualifier with Some q -> q ^ "." | None -> "") ^ name
  | Unary (`Not, x) -> Printf.sprintf "(not %s)" (sql_of_expr x)
  | Unary (`Neg, x) -> Printf.sprintf "(- %s)" (sql_of_expr x)
  | Binop (Add, a, b) -> bin "+" a b
  | Binop (Sub, a, b) -> bin "-" a b
  | Binop (Mul, a, b) -> bin "*" a b
  | Binop (Div, a, b) -> bin "/" a b
  | Binop (Eq, a, b) -> bin "=" a b
  | Binop (Neq, a, b) -> bin "<>" a b
  | Binop (Lt, a, b) -> bin "<" a b
  | Binop (Le, a, b) -> bin "<=" a b
  | Binop (Gt, a, b) -> bin ">" a b
  | Binop (Ge, a, b) -> bin ">=" a b
  | Binop (And, a, b) -> bin "and" a b
  | Binop (Or, a, b) -> bin "or" a b
  | Like { negated; subject; pattern } ->
      Printf.sprintf "(%s %slike '%s')" (sql_of_expr subject)
        (if negated then "not " else "")
        pattern
  | Between { negated; subject; low; high } ->
      Printf.sprintf "(%s %sbetween %s and %s)" (sql_of_expr subject)
        (if negated then "not " else "")
        (sql_of_expr low) (sql_of_expr high)
  | In_list { negated; subject; items } ->
      Printf.sprintf "(%s %sin (%s))" (sql_of_expr subject)
        (if negated then "not " else "")
        (String.concat ", " (List.map sql_of_expr items))
  | Case { branches; else_ } ->
      Printf.sprintf "case %s%s end"
        (String.concat " "
           (List.map
              (fun (c, v) ->
                Printf.sprintf "when %s then %s" (sql_of_expr c) (sql_of_expr v))
              branches))
        (match else_ with
        | Some e -> " else " ^ sql_of_expr e
        | None -> "")
  | Extract { field; arg } ->
      Printf.sprintf "extract(%s from %s)"
        (match field with Year -> "year" | Month -> "month" | Day -> "day")
        (sql_of_expr arg)
  | Interval { n; unit_ } ->
      Printf.sprintf "interval '%d' %s" n
        (match unit_ with Day -> "day" | Month -> "month" | Year -> "year")
  | Is_null { negated; subject } ->
      Printf.sprintf "(%s is %snull)" (sql_of_expr subject)
        (if negated then "not " else "")
  | Substring { subject; start; len } ->
      Printf.sprintf "substring(%s from %s%s)" (sql_of_expr subject)
        (sql_of_expr start)
        (match len with
        | Some l -> " for " ^ sql_of_expr l
        | None -> "")
  | In_select _ | Exists _ | Scalar_select _ | Agg _ ->
      invalid_arg "Partitioner.sql_of_expr: not offloadable"

let split ?(project = true) catalog stmt : plan =
  let filters = Hashtbl.create 8 in
  let tables, columns =
    match stmt with
    | Select q ->
        let refs =
          Sql.Column_refs.of_select ~on_select:(classify_filters filters)
            catalog q
        in
        (Sql.Column_refs.tables refs, Sql.Column_refs.columns refs)
    | Insert _ | Update _ | Delete _ | Create_table _ | Drop_table _
    | Create_index _ | Drop_index _ ->
        ([], fun _ -> [])
  in
  let shipped =
    List.map
      (fun table ->
        let schema = Sql.Heap_file.schema (Sql.Catalog.find catalog table) in
        let columns =
          if project then columns schema else Sql.Schema.column_names schema
        in
        let occurrence_filters =
          Option.fold ~none:[] ~some:( ! ) (Hashtbl.find_opt filters table)
        in
        let predicate =
          (* OR of the per-occurrence filters; any unfiltered
             occurrence means the whole table must ship *)
          if
            occurrence_filters = []
            || List.exists Option.is_none occurrence_filters
          then None
          else begin
            match
              List.map strip_qualifiers
                (List.filter_map Fun.id occurrence_filters)
            with
            | [] -> None
            | f :: rest ->
                Some (List.fold_left (fun acc x -> Binop (Or, acc, x)) f rest)
          end
        in
        { table; columns; predicate })
      tables
  in
  let offload_sql =
    List.map
      (fun st ->
        let proj =
          match st.columns with [] -> "1" | cols -> String.concat ", " cols
        in
        let where =
          match st.predicate with
          | None -> ""
          | Some p -> " where " ^ sql_of_expr p
        in
        (st.table, Printf.sprintf "select %s from %s%s" proj st.table where))
      shipped
  in
  Ironsafe_obs.Obs.count ~scope:"partitioner" "plans";
  Ironsafe_obs.Obs.count ~scope:"partitioner"
    ~n:(List.length offload_sql)
    "offloaded_subqueries";
  Ironsafe_obs.Obs.count ~scope:"partitioner"
    ~n:(List.length (List.filter (fun s -> s.predicate <> None) shipped))
    "pushed_down_filters";
  { shipped; host_stmt = stmt; offload_sql }

(* -- Partition schemes (cluster sharding) ---------------------------- *)

(* Deterministic row -> shard assignment for the multi-node cluster
   (lib/cluster). A table's partition key is its first integer column
   (TPC-H tables all lead with an integer primary key); tables without
   one fall back to the row's insertion index, which is equally
   deterministic. [Hash] spreads keys with the shared splitmix64 mixer
   (same function family as the seeded fault/workload streams), so
   co-keyed rows land together while consecutive keys spread. [Range]
   cuts the observed key span into [shards] contiguous buckets. *)

type scheme = Hash | Range

let scheme_name = function Hash -> "hash" | Range -> "range"

let scheme_of_string s =
  match String.lowercase_ascii s with
  | "hash" -> Some Hash
  | "range" -> Some Range
  | _ -> None

let partition_key_index schema =
  let cols = Sql.Schema.columns schema in
  let rec go i =
    if i >= Array.length cols then None
    else if cols.(i).Sql.Schema.col_ty = Sql.Value.TInt then Some i
    else go (i + 1)
  in
  go 0

let row_key ~key_index ~ord (row : Sql.Row.t) =
  match key_index with
  | Some i when i < Array.length row -> (
      match row.(i) with Sql.Value.Int k -> k | _ -> ord)
  | _ -> ord

let shard_of_key scheme ~shards ~lo ~hi key =
  if shards <= 1 then 0
  else
    match scheme with
    | Hash ->
        (* one splitmix64 step seeded by the key: a pure, stateless
           finalizer — the same key always lands on the same shard *)
        (* drop the top two bits so the value fits OCaml's 63-bit
           native int and the bucket index is always non-negative *)
        let h =
          Int64.to_int
            (Int64.shift_right_logical
               (Ironsafe_sim.Prng.next_u64
                  (Ironsafe_sim.Prng.create ~seed:key))
               2)
        in
        h mod shards
    | Range ->
        if hi <= lo then 0
        else begin
          let span = hi - lo + 1 in
          let k = max lo (min hi key) in
          min (shards - 1) ((k - lo) * shards / span)
        end

(* Human-readable description of a split plan (EXPLAIN). *)
let describe plan =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "split plan:\n";
  List.iter
    (fun st ->
      Buffer.add_string buf
        (Printf.sprintf "  storage: %s  [%d column%s%s]\n"
           (List.assoc st.table plan.offload_sql)
           (List.length st.columns)
           (if List.length st.columns = 1 then "" else "s")
           (match st.predicate with
           | Some _ -> ", filtered near data"
           | None -> ", full table ships")))
    plan.shipped;
  Buffer.add_string buf "  host: original statement over the shipped tables\n";
  Buffer.contents buf
