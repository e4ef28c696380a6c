(* Query planning and execution.

   Plans are compiled closures with all column references resolved to
   array indices up front. Execution is push-based: a row source (a
   base-table scan, a derived table's result, a join) hands each row to
   a sink, and the stages of a SELECT — pushdown filter, join probes,
   post-join filters, correlated narrowing — are sinks stacked over
   the source, ending in the projection or the group table. Each row
   is decoded once and passes through without per-stage row lists.

   Scans are projected: a base-table scan decodes only the columns the
   statement reads anywhere ([Column_refs], walked once per statement
   in [run_select]) and leaves the others [Null], so column indices,
   plans and compiled closures do not depend on it. Memory charges are
   made from footprints, the [Row.heap_size] a row would have with
   every column decoded: a projected row carries its own, which the
   decoder reads off the encoded sizes, and a joined row's is the sum
   of its inputs'.

   Rows are materialized only where the algorithm or the page-read
   order needs them:
   - join build sides (a hash index, or a row list for a nested loop);
   - the leftmost FROM unit of a join, because the build sides are
     scanned after it and probing must wait for them;
   - the ORDER BY input, and the group table of an aggregate;
   - the stage-A memo (and the semijoin index over it) of a plan that
     can run more than once: a subquery or a derived table under an
     outer scope;
   - a live scan whose downstream stage evaluates a subquery: the scan
     completes before the subquery first runs, so the secure medium
     sees the same page-read sequence as a stage-at-a-time executor
     (fault plans and buffer-pool hits depend on it).
   Every observer charge (row steps, bytes materialized) is made as if
   each stage materialized its output and every scan decoded whole
   rows, so the cost model does not depend on how the rows flow.

   Join strategy: left-deep over the FROM list with a greedy reorder —
   at each step prefer a table connected to the accumulated result by
   an equi-predicate (hash join); otherwise fall back to a filtered
   nested loop. Explicit JOIN ... ON (including LEFT OUTER) is planned
   structurally. Hash keys are value arrays compared with SQL equality
   ([Value.key_equal]): a join, IN or semijoin key holding NULL matches
   nothing, while GROUP BY keeps NULLs in one group.

   Hot-path allocation: a row allocates what SQL keeps (its array, its
   decoded values, one copy when it is materialised) and little else.
   Comparisons return shared truth values through [Value.compare_sql];
   arithmetic matches numeric pairs before [Value.arith]; a date
   literal shifted by an interval is folded at plan time; aggregates
   keep float sums unboxed ([Agg_state]); one- and two-column keys are
   array literals; a row's filters share one env; an unordered SELECT
   conses its output directly. Scan rows are fresh per row on purpose:
   a reused scratch row moves minor collections into phases that hold
   shipped rows and promotes them, and a mutable env pays a
   [caml_modify] per row.

   Subqueries (EXISTS / IN / scalar) are planned in two stages:
   stage A — everything independent of the outer row — runs and is
   memoized once; correlated equi-predicates become a hash semi-join
   index over stage-A rows, so correlated evaluation is a bucket probe
   plus residual filters instead of a rescan per outer row. A
   post-filter whose subquery reads the outer row is such a residual:
   it runs per outer row in stage B. *)

open Ast

exception Sql_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Sql_error s)) fmt

(* Kept only for the benchmark loader that still passes
   [Deployment.exec_mode] to [Host_engine.run_host]. *)
type exec_mode = Row_at_a_time

type state = {
  catalog : Catalog.t;
  obs : Observer.t;
  refs : Column_refs.t option;
      (* the columns the statement reads; when known, a base-table scan
         decodes only those *)
}

(* -- Environments --------------------------------------------------- *)

type env = { row : Row.t; aggs : Value.t array; up : env option }

let no_aggs : Value.t array = [||]
let mk_env ?(aggs = no_aggs) ?up row = { row; aggs; up }

let rec climb env depth =
  if depth = 0 then env
  else
    match env.up with
    | Some up -> climb up (depth - 1)
    | None -> fail "internal: missing outer environment"

type comp_ctx = {
  cols : (string option * string) array;
  agg_slots : (Ast.expr * int) list;
  parent : comp_ctx option;
  outer_reads : (int * int) list ref;
      (* the outer columns the query level reads, itself or through a
         nested subquery, each as (depth, index) in the level's outer
         environment: [(climb outer depth).row.(index)]. Shared by
         every context of one level. *)
  state : state;
}

let mk_ctx ?(agg_slots = []) ?parent ~state cols =
  { cols; agg_slots; parent; outer_reads = ref []; state }

let resolve_local cols qualifier name =
  let name = String.lowercase_ascii name in
  let qualifier = Option.map String.lowercase_ascii qualifier in
  let hits = ref [] in
  Array.iteri
    (fun i (q, n) ->
      let qual_ok =
        match qualifier with None -> true | Some want -> q = Some want
      in
      if qual_ok && n = name then hits := i :: !hits)
    cols;
  !hits

let rec resolve ctx qualifier name depth =
  match resolve_local ctx.cols qualifier name with
  | [ i ] -> Some (depth, i)
  | [] -> (
      match ctx.parent with
      | Some p -> resolve p qualifier name (depth + 1)
      | None -> None)
  | _ :: _ :: _ ->
      fail "ambiguous column reference %s%s"
        (match qualifier with Some q -> q ^ "." | None -> "")
        name

(* -- Expression compilation ----------------------------------------- *)

type compiled = env -> Value.t

(* One closure per binary operator. A comparison is [Value.compare_sql]
   and a shared truth value, so it allocates nothing; arithmetic is the
   operator's [Value] fast path. *)
let binop_closure op (ca : compiled) (cb : compiled) : compiled =
  let open Value in
  match op with
  | Eq ->
      fun env ->
        let c = compare_sql (ca env) (cb env) in
        if c = null_cmp then Null else of_bool (c = 0)
  | Neq ->
      fun env ->
        let c = compare_sql (ca env) (cb env) in
        if c = null_cmp then Null else of_bool (c <> 0)
  | Lt ->
      fun env ->
        let c = compare_sql (ca env) (cb env) in
        if c = null_cmp then Null else of_bool (c < 0)
  | Le ->
      fun env ->
        let c = compare_sql (ca env) (cb env) in
        if c = null_cmp then Null else of_bool (c <= 0)
  | Gt ->
      fun env ->
        let c = compare_sql (ca env) (cb env) in
        if c = null_cmp then Null else of_bool (c > 0)
  | Ge ->
      fun env ->
        let c = compare_sql (ca env) (cb env) in
        if c = null_cmp then Null else of_bool (c >= 0)
  | Add -> fun env -> add (ca env) (cb env)
  | Sub -> fun env -> sub (ca env) (cb env)
  | Mul -> fun env -> mul (ca env) (cb env)
  | Div -> fun env -> div (ca env) (cb env)
  | And | Or -> assert false

(* Hash keys: a value per key expression. [equal] is a top-level
   recursion, so a lookup allocates no closure. *)
let rec keys_equal a b i n =
  i = n
  || Value.key_equal (Array.unsafe_get a i) (Array.unsafe_get b i)
     && keys_equal a b (i + 1) n

module Key_tbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal a b =
    let n = Array.length a in
    n = Array.length b && keys_equal a b 0 n

  let hash k = Array.fold_left (fun h v -> (h * 31) + Value.hash v) 0 k
end)

(* The values of [cs] on [env], in order: a hash key or a projected
   row. One and two values are built as array literals. *)
let eval_all cs env =
  match cs with
  | [| c |] -> [| c env |]
  | [| c0; c1 |] ->
      let v0 = c0 env in
      [| v0; c1 env |]
  | _ ->
      let out = Array.make (Array.length cs) Value.Null in
      for i = 0 to Array.length cs - 1 do
        Array.unsafe_set out i ((Array.unsafe_get cs i) env)
      done;
      out

let has_null key = Array.exists (function Value.Null -> true | _ -> false) key

let limit_rows limit rows =
  match limit with
  | None -> rows
  | Some n -> List.filteri (fun i _ -> i < n) rows

(* The first CASE branch whose condition holds on [env], else [celse]. *)
let rec case_from env celse = function
  | [] -> ( match celse with Some c -> c env | None -> Value.Null)
  | (cc, cv) :: rest ->
      if Value.as_bool (cc env) then cv env else case_from env celse rest

(* Whether every predicate holds on [env]; one env serves them all. *)
let rec all_true env = function
  | [] -> true
  | f :: rest -> Value.as_bool (f env) && all_true env rest

(* Set of values for IN-subquery probing. *)
type value_set = { mutable has_null : bool; table : unit Key_tbl.t }

(* Subquery runtime: a function from the (optional) outer env to the
   result rows of the subquery, which depend on the outer env only
   through [sub_outer_reads] (sorted, without duplicates; empty for an
   uncorrelated subquery). *)
type subplan = {
  sub_cols : string list;
  sub_outer_reads : (int * int) list;
  sub_run : env option -> Row.t list;
}

(* A row's footprint is the [Row.heap_size] it would have with every
   column decoded. A projected scan leaves the columns the statement
   never reads [Null], so its rows carry their footprint beside them;
   every other row holds all its columns and carries [whole] instead,
   its footprint being [Row.heap_size] of the row itself. *)
let whole = -1

let footprint (r : Row.t) h = if h = whole then Row.heap_size r else h

(* A row source pushes its rows, in order, into a sink, each with its
   footprint (or [whole]). [live]: the source reads pages while it
   pushes (a scan of a paged table), so a sink that reads pages itself
   — one that evaluates a subquery — must wait for it to finish.
   [resident]: the source reads no pages at all (a scan of a resident
   table), so it need not finish before anything else reads. *)
type sink = Row.t -> int -> unit

type source = {
  live : bool;
  resident : bool;
  iter : env option -> sink -> unit;
}

(* Materialized rows, in order; only a projected row takes the extra
   word for its footprint. *)
type rows = Nil | Cons of Row.t * rows | Sized of Row.t * int * rows

let cons r h rest = if h = whole then Cons (r, rest) else Sized (r, h, rest)

let rec iter_rows (k : sink) = function
  | Nil -> ()
  | Cons (r, rest) ->
      k r whole;
      iter_rows k rest
  | Sized (r, h, rest) ->
      k r h;
      iter_rows k rest

let rec rev_rows acc = function
  | Nil -> acc
  | Cons (r, rest) -> rev_rows (Cons (r, acc)) rest
  | Sized (r, h, rest) -> rev_rows (Sized (r, h, acc)) rest

(* A hash-join bucket: its rows, newest first while it is built. *)
type bucket = { mutable rows : rows }

let find_bucket index key =
  match Key_tbl.find index key with b -> b.rows | exception Not_found -> Nil

let collect src outer_env =
  let acc = ref Nil in
  src.iter outer_env (fun r h -> acc := cons r h !acc);
  rev_rows Nil !acc

(* A source over computed rows (a derived table's result). *)
let of_rows run =
  {
    live = false;
    resident = false;
    iter = (fun o k -> List.iter (fun r -> k r whole) (run o));
  }

(* Push [src] into [sink]. [reads]: the sink may read pages; a live
   source then completes into a list first. *)
let drain src ~reads outer_env sink =
  if src.live && reads then iter_rows sink (collect src outer_env)
  else src.iter outer_env sink

(* [src] with [stage] stacked on it; a stage maps the downstream sink
   to the sink it offers upstream. *)
let pipe src ~reads stage =
  {
    live = src.live || reads;
    resident = src.resident && not reads;
    iter = (fun o k -> drain src ~reads o (stage o k));
  }

(* Row filter stage, charging one row step per input row. *)
let filter_stage (state : state) ~env_of preds =
  fun outer_env (k : sink) (r : Row.t) h ->
    state.obs.Observer.on_rows 1;
    if all_true (env_of outer_env r) preds then k r h

(* A reference to column [i] [depth] scopes up is an outer read of
   every scope it crosses, not only of the innermost one. *)
let rec mark_outer ctx depth i =
  if depth > 0 then begin
    ctx.outer_reads := (depth - 1, i) :: !(ctx.outer_reads);
    Option.iter (fun p -> mark_outer p (depth - 1) i) ctx.parent
  end

let rec compile ctx expr : compiled =
  match expr with
  | Lit v -> fun _ -> v
  | Col { qualifier; name } -> (
      (* aggregate slot references take priority in post-agg contexts *)
      match resolve ctx qualifier name 0 with
      | Some (0, i) -> fun env -> env.row.(i)
      | Some (depth, i) ->
          mark_outer ctx depth i;
          fun env -> (climb env depth).row.(i)
      | None ->
          fail "unknown column %s%s"
            (match qualifier with Some q -> q ^ "." | None -> "")
            name)
  | Agg _ -> (
      match List.find_opt (fun (e, _) -> e = expr) ctx.agg_slots with
      | Some (_, slot) -> fun env -> env.aggs.(slot)
      | None -> fail "aggregate used outside of an aggregation context")
  | Unary (`Not, e) -> (
      let ce = compile ctx e in
      fun env ->
        match ce env with
        | Value.Null -> Value.Null
        | v -> Value.of_bool (not (Value.as_bool v)))
  | Unary (`Neg, e) -> (
      let ce = compile ctx e in
      fun env ->
        match ce env with
        | Value.Int i -> Value.Int (-i)
        | Value.Float f -> Value.Float (-.f)
        | Value.Null -> Value.Null
        | v -> fail "cannot negate %s" (Value.to_string v))
  | Binop (((And | Or) as op), a, b) -> (
      (* Kleene logic: the dominant value (FALSE for AND, TRUE for OR)
         decides alone; otherwise a NULL operand makes the result NULL *)
      let dom = op = Or in
      let ca = compile ctx a and cb = compile ctx b in
      let truth = function
        | (Value.Null | Value.Bool _) as v -> v
        | v -> Value.of_bool (Value.as_bool v)
      in
      fun env ->
        match truth (ca env) with
        | Value.Bool d as va when d = dom -> va
        | va -> (
            match truth (cb env) with
            | Value.Bool d as vb when d = dom -> vb
            | vb -> ( match va with Value.Null -> va | _ -> vb)))
  | Binop (op, a, Interval { n; unit_ }) -> (
      let shift =
        match op with
        | Add -> n
        | Sub -> -n
        | _ -> fail "intervals only support + and -"
      in
      let shifted d =
        match unit_ with
        | Day -> Date.add_days d shift
        | Month -> Date.add_months d shift
        | Year -> Date.add_years d shift
      in
      match a with
      | Lit (Value.Date d) ->
          (* a date literal shifts once, here; any other operand is
             checked per row, as it always was *)
          let v = Value.Date (shifted d) in
          fun _ -> v
      | _ -> (
          let ca = compile ctx a in
          fun env ->
            match ca env with
            | Value.Date d -> Value.Date (shifted d)
            | Value.Null -> Value.Null
            | v -> fail "interval arithmetic on non-date %s" (Value.to_string v)))
  | Binop (op, a, b) -> binop_closure op (compile ctx a) (compile ctx b)
  | Like { negated; subject; pattern } -> (
      let cs = compile ctx subject in
      fun env ->
        match cs env with
        | Value.Str s ->
            let m = Value.like ~pattern s in
            Value.of_bool (m <> negated)
        | Value.Null -> Value.Null
        | v -> fail "LIKE on non-string %s" (Value.to_string v))
  | Between { negated; subject; low; high } -> (
      let cs = compile ctx subject
      and cl = compile ctx low
      and ch = compile ctx high in
      fun env ->
        let v = cs env in
        let b = Value.compare_sql v (ch env) in
        let a = Value.compare_sql v (cl env) in
        if a = Value.null_cmp || b = Value.null_cmp then Value.Null
        else Value.of_bool ((a >= 0 && b <= 0) <> negated))
  | In_list { negated; subject; items } -> (
      let cs = compile ctx subject in
      let citems = List.map (compile ctx) items in
      (* no match is FALSE, or NULL when the subject or an item is NULL *)
      let rec scan v saw_null env = function
        | [] -> if saw_null then Value.Null else Value.of_bool negated
        | ci :: rest -> (
            match ci env with
            | Value.Null -> scan v true env rest
            | w ->
                if Value.equal v w then Value.of_bool (not negated)
                else scan v saw_null env rest)
      in
      fun env ->
        match cs env with
        | Value.Null -> Value.Null
        | v -> scan v false env citems)
  | In_select { negated; subject; select } ->
      let cs = compile ctx subject in
      let sub = plan_select ctx.state ~outer:(Some ctx) select in
      let memo : (string, value_set) Hashtbl.t = Hashtbl.create 4 in
      let reads = sub.sub_outer_reads in
      let correlated = reads <> [] in
      fun env ->
        let key = if correlated then corr_key reads env else "" in
        let set =
          match Hashtbl.find_opt memo key with
          | Some s -> s
          | None ->
              Ironsafe_obs.Obs.count ~scope:"sql" "in_subquery_runs";
              let rows = sub.sub_run (Some env) in
              let s = { has_null = false; table = Key_tbl.create 64 } in
              List.iter
                (fun (r : Row.t) ->
                  match r.(0) with
                  | Value.Null -> s.has_null <- true
                  | v -> Key_tbl.replace s.table [| v |] ())
                rows;
              if not correlated then Hashtbl.reset memo;
              Hashtbl.replace memo key s;
              s
        in
        (match cs env with
        | Value.Null ->
            if set.has_null || Key_tbl.length set.table > 0 then Value.Null
            else Value.of_bool negated
        | v ->
            if Key_tbl.mem set.table [| v |] then Value.of_bool (not negated)
            else if set.has_null then Value.Null
            else Value.of_bool negated)
  | Exists { negated; select } ->
      let sub = plan_select ctx.state ~outer:(Some ctx) select in
      fun env ->
        let rows = sub.sub_run (Some env) in
        let e = rows <> [] in
        Value.of_bool (e <> negated)
  | Scalar_select select -> (
      let sub = plan_select ctx.state ~outer:(Some ctx) select in
      fun env ->
        match sub.sub_run (Some env) with
        | [] -> Value.Null
        | [ r ] -> r.(0)
        | _ :: _ :: _ -> fail "scalar subquery returned more than one row")
  | Case { branches; else_ } ->
      let cbranches =
        List.map (fun (c, v) -> (compile ctx c, compile ctx v)) branches
      in
      let celse = Option.map (compile ctx) else_ in
      fun env -> case_from env celse cbranches
  | Extract { field; arg } -> (
      let ca = compile ctx arg in
      fun env ->
        match ca env with
        | Value.Date d ->
            let y, m, dd = Date.to_ymd d in
            Value.Int (match field with Year -> y | Month -> m | Day -> dd)
        | Value.Null -> Value.Null
        | v -> fail "EXTRACT from non-date %s" (Value.to_string v))
  | Substring { subject; start; len } -> (
      let cs = compile ctx subject in
      let cstart = compile ctx start in
      let clen = Option.map (compile ctx) len in
      fun env ->
        match cs env with
        | Value.Null -> Value.Null
        | Value.Str s ->
            let n = String.length s in
            (* SQL semantics: 1-based start, clamped to the string *)
            let start = Value.as_int (cstart env) in
            let from = max 0 (start - 1) in
            let upto =
              match clen with
              | None -> n
              | Some c -> min n (max 0 (start - 1 + Value.as_int (c env)))
            in
            if from >= upto then Value.Str ""
            else Value.Str (String.sub s from (upto - from))
        | v -> fail "SUBSTRING on non-string %s" (Value.to_string v))
  | Interval _ -> fail "interval literal outside of date arithmetic"
  | Is_null { negated; subject } ->
      let cs = compile ctx subject in
      fun env ->
        let isn = cs env = Value.Null in
        Value.of_bool (isn <> negated)

(* Correlation memo key: the encoded values of the outer columns the
   subquery reads — outer rows that agree on them give the subquery
   equal inputs. *)
and corr_key reads env =
  let buf = Buffer.create 16 in
  List.iter
    (fun (depth, i) -> Value.encode buf (climb env depth).row.(i))
    reads;
  Buffer.contents buf

(* -- FROM planning --------------------------------------------------- *)

and binding_of_from = function
  | Table { table; alias } -> Option.value ~default:table alias
  | Derived { alias; _ } -> alias
  | Join _ -> fail "internal: binding_of_from on join"

(* Bindings referenced by an expression, resolved against [ctx];
   returns [None] if the expression references the outer scope or
   contains a subquery (not safely classifiable). *)
and local_bindings ctx e =
  if contains_subquery e then None
  else begin
    let cols = columns_of_expr [] e in
    let rec collect acc = function
      | [] -> Some acc
      | (q, n) :: rest -> (
          match resolve ctx q n 0 with
          | Some (0, i) -> (
              match fst ctx.cols.(i) with
              | Some b -> collect (if List.mem b acc then acc else b :: acc) rest
              | None -> None)
          | Some (_, _) -> None (* outer reference *)
          | None -> None)
    in
    collect [] cols
  end

(* Can one of the pushdown [filters] be answered from an index on
   [table]? Returns the page set to scan if so. Matching pages are
   still fully re-filtered, so using an index is always sound. *)
and index_access state table filters =
  let index_for name = Catalog.index_on state.catalog ~table ~column:name in
  let probe = function
    | Binop (Eq, Col { name; _ }, Lit v) | Binop (Eq, Lit v, Col { name; _ })
      ->
        Option.map (fun idx -> Index.pages_equal idx v) (index_for name)
    | Binop (Lt, Col { name; _ }, Lit v) | Binop (Gt, Lit v, Col { name; _ })
      ->
        Option.map (fun idx -> Index.pages_range idx ~hi:(v, false) ()) (index_for name)
    | Binop (Le, Col { name; _ }, Lit v) | Binop (Ge, Lit v, Col { name; _ })
      ->
        Option.map (fun idx -> Index.pages_range idx ~hi:(v, true) ()) (index_for name)
    | Binop (Gt, Col { name; _ }, Lit v) | Binop (Lt, Lit v, Col { name; _ })
      ->
        Option.map (fun idx -> Index.pages_range idx ~lo:(v, false) ()) (index_for name)
    | Binop (Ge, Col { name; _ }, Lit v) | Binop (Le, Lit v, Col { name; _ })
      ->
        Option.map (fun idx -> Index.pages_range idx ~lo:(v, true) ()) (index_for name)
    | Between { negated = false; subject = Col { name; _ }; low = Lit lo; high = Lit hi }
      ->
        Option.map
          (fun idx -> Index.pages_range idx ~lo:(lo, true) ~hi:(hi, true) ())
          (index_for name)
    | _ -> None
  in
  (* intersect the page sets of every indexable conjunct *)
  List.fold_left
    (fun acc f ->
      match (acc, probe f) with
      | None, p -> p
      | Some a, Some b -> Some (Index.IntSet.inter a b)
      | Some a, None -> Some a)
    None filters

(* Base-table scan: resolved output columns and a live source that
   applies the compiled pushdown filters to either the index-selected
   pages or the whole heap file. The scan decodes only the columns the
   statement reads (the mask is fixed here, at plan time); the others
   stay [Null], so column indices do not depend on it, and a row that
   passes is charged its whole stored footprint. *)
and scan_table state ~binding table ~filters ~ctx_parent =
  let hf =
    try Catalog.find state.catalog table
    with Catalog.Unknown_table t -> fail "unknown table %s" t
  in
  let schema = Heap_file.schema hf in
  let cols =
    Array.map
      (fun c -> (Some (String.lowercase_ascii binding), c.Schema.col_name))
      (Schema.columns schema)
  in
  let ctx = mk_ctx ?parent:ctx_parent ~state cols in
  let cfilters = List.map (compile ctx) filters in
  let index_pages = index_access state table filters in
  let mask =
    Option.map (fun refs -> Column_refs.mask refs schema) state.refs
  in
  let projected = Option.fold ~none:false ~some:(Array.exists not) mask in
  let scan f =
    match index_pages with
    | Some pages ->
        Heap_file.iter_pages ?mask hf
          (List.sort compare (Index.IntSet.elements pages))
          ~f:(fun ~page:_ row heap -> f row heap)
    | None -> Heap_file.scan ?mask hf ~f
  in
  let iter _outer_env k =
    scan (fun row heap ->
        state.obs.Observer.on_rows 1;
        if cfilters = [] || all_true (mk_env row) cfilters then begin
          state.obs.Observer.on_alloc heap;
          k row (if projected then heap else whole)
        end)
  in
  let resident = Heap_file.is_resident hf in
  (cols, { live = not resident; resident; iter })

(* Join build sides and probe stages. A build drains its source into
   a hash index (or a row list); the probe stage then joins each
   left row against it and pushes the combined rows that pass the
   residual. *)
and build_index state src outer_env ckeys =
  let index = Key_tbl.create 16 in
  src.iter outer_env (fun (r : Row.t) h ->
      state.obs.Observer.on_rows 1;
      let key = eval_all ckeys (mk_env r) in
      (* a key holding NULL can never match *)
      if not (has_null key) then
        match Key_tbl.find index key with
        | bucket -> bucket.rows <- cons r h bucket.rows
        | exception Not_found -> Key_tbl.add index key { rows = cons r h Nil });
  index

(* Joins [l] (footprint [lh]) with each row of [rights], in order (a
   hash bucket holds the newest build row first), pushing the combined
   rows that pass [residual]; returns whether any did. A combined row
   is whole when both sides are; otherwise its footprint is the values
   of both under one row header. *)
and join_rows state ~residual (l : Row.t) lh rights k =
  join_from state ~residual l lh k false rights

and join_from state ~residual l lh k matched = function
  | Nil -> matched
  | Cons (r, rest) ->
      let m = join_one state ~residual l lh r whole k in
      join_from state ~residual l lh k (m || matched) rest
  | Sized (r, rh, rest) ->
      let m = join_one state ~residual l lh r rh k in
      join_from state ~residual l lh k (m || matched) rest

and join_one state ~residual (l : Row.t) lh (r : Row.t) rh k =
  state.obs.Observer.on_rows 1;
  let joined = Array.append l r in
  all_true (mk_env joined) residual
  && begin
       let h =
         if lh = whole && rh = whole then whole
         else footprint l lh + footprint r rh - 16
       in
       state.obs.Observer.on_alloc (footprint joined h);
       k joined h;
       true
     end

and probe_bucket state index lkeys (l : Row.t) =
  state.obs.Observer.on_rows 1;
  let key = eval_all lkeys (mk_env l) in
  if has_null key then Nil else find_bucket index key

(* A join step: build the right side now (its pages are read here,
   after the left side's), and return the probe stage. *)
and join_step state ~kind ~lkeys ~rkeys ~residual ~left_width ~right_width
    right outer_env =
  match kind with
  | `Inner when Array.length lkeys > 0 ->
      let index = build_index state right outer_env rkeys in
      fun k l lh ->
        ignore
          (join_rows state ~residual l lh (probe_bucket state index lkeys l) k)
  | `Inner ->
      let rights = collect right outer_env in
      fun k l lh ->
        ignore (join_rows state ~residual l lh rights k)
  | `Left ->
      let index = build_index state right outer_env rkeys in
      fun k l lh ->
        let bucket = probe_bucket state index lkeys l in
        if not (join_rows state ~residual l lh bucket k)
        then begin
          (* the right side's values are all NULL *)
          let joined = Array.make (left_width + right_width) Value.Null in
          Array.blit l 0 joined 0 left_width;
          k joined (if lh = whole then whole else lh + (8 * right_width))
        end

(* The left input of a join completes first, then every step builds
   its right side in order, then the left rows stream through the
   probes. A resident left input reads no pages, so it is not
   materialised: it streams once the right sides are built. *)
and join_source left steps =
  {
    live = false;
    resident = false;
    iter =
      (fun outer_env k ->
        let lefts = if left.resident then Nil else collect left outer_env in
        let probes_rev =
          List.fold_left (fun acc step -> step outer_env :: acc) [] steps
        in
        let k = List.fold_left (fun k probe -> probe k) k probes_rev in
        if left.resident then left.iter outer_env k else iter_rows k lefts);
  }

(* -- SELECT planning -------------------------------------------------- *)

and output_name i = function
  | Item (_, Some alias) -> String.lowercase_ascii alias
  | Item (Col { name; _ }, None) -> String.lowercase_ascii name
  | Item (Agg { func; _ }, None) ->
      (match func with
      | Sum -> "sum"
      | Avg -> "avg"
      | Min -> "min"
      | Max -> "max"
      | Count -> "count")
  | Item (_, None) -> Printf.sprintf "col%d" (i + 1)
  | Star -> fail "internal: Star in output_name"

and substitute_aliases items e =
  (* ORDER BY / HAVING may reference projection aliases *)
  match e with
  | Col { qualifier = None; name } -> (
      let name = String.lowercase_ascii name in
      let found =
        List.find_opt
          (function
            | Item (_, Some a) -> String.lowercase_ascii a = name
            | _ -> false)
          items
      in
      match found with Some (Item (inner, _)) -> inner | _ -> e)
  | e -> e

and collect_aggs acc e =
  match e with
  | Agg _ -> if List.mem e acc then acc else acc @ [ e ]
  | Lit _ | Col _ | Interval _ -> acc
  | Unary (_, x) | Extract { arg = x; _ } | Is_null { subject = x; _ } ->
      collect_aggs acc x
  | Substring { subject; start; len } ->
      let acc = collect_aggs (collect_aggs acc subject) start in
      Option.fold ~none:acc ~some:(collect_aggs acc) len
  | Binop (_, a, b) -> collect_aggs (collect_aggs acc a) b
  | Like { subject; _ } -> collect_aggs acc subject
  | Between { subject; low; high; _ } ->
      collect_aggs (collect_aggs (collect_aggs acc subject) low) high
  | In_list { subject; items; _ } ->
      List.fold_left collect_aggs (collect_aggs acc subject) items
  | In_select { subject; _ } -> collect_aggs acc subject
  | Exists _ | Scalar_select _ -> acc
  | Case { branches; else_ } ->
      let acc =
        List.fold_left
          (fun acc (c, v) -> collect_aggs (collect_aggs acc c) v)
          acc branches
      in
      Option.fold ~none:acc ~some:(collect_aggs acc) else_

and plan_select state ~outer (q : select) : subplan =
  (* 1. classify WHERE conjuncts *)
  let where_conjuncts = Option.fold ~none:[] ~some:conjuncts q.where in
  (* 2. plan the FROM clause, threading a growing context *)
  let parent_ctx = outer in
  (* First build contexts for every base relation to know bindings. *)
  let outer_reads = ref [] in
  (* per-binding pushdown filters; assembled below *)
  let plan = plan_from state ~parent_ctx ~outer_reads q where_conjuncts in
  plan

(* The full pipeline: FROM+WHERE -> joined rows -> correlated residuals
   -> grouping -> having -> projection -> sort -> limit. *)
and plan_from state ~parent_ctx ~outer_reads (q : select) where_conjuncts :
    subplan =
  (* -- set up base relations ---------------------------------------- *)
  let rec flatten_from acc = function
    | [] -> List.rev acc
    | fi :: rest -> flatten_from (fi :: acc) rest
  in
  let from_items = flatten_from [] q.from in
  if from_items = [] then fail "FROM clause is required";
  (* Plan each from_item into (cols, runner) where runner is outer-env
     dependent only via correlated pushdowns (which we disallow at scan
     level: correlated preds never push down). *)
  (* Build the combined context first to classify predicates. *)
  let item_cols =
    List.map
      (fun fi ->
        match fi with
        | Table { table; alias } ->
            let binding = Option.value ~default:table alias in
            let hf =
              try Catalog.find state.catalog table
              with Catalog.Unknown_table t -> fail "unknown table %s" t
            in
            `Base
              ( String.lowercase_ascii binding,
                table,
                Array.map
                  (fun c ->
                    ( Some (String.lowercase_ascii binding),
                      c.Schema.col_name ))
                  (Schema.columns (Heap_file.schema hf)) )
        | Derived _ | Join _ -> `Join fi)
      from_items
  in
  (* Expand joins and derived tables: plan them as units with their own
     combined columns. *)
  let units =
    List.map
      (function
        | `Base (binding, table, cols) -> (cols, `Scan (binding, table))
        | `Join fi ->
            let cols, src =
              plan_join_tree state ~parent_ctx ~outer_reads fi
            in
            (cols, `Planned src))
      item_cols
  in
  let combined_cols = Array.concat (List.map fst units) in
  let full_ctx =
    {
      cols = combined_cols;
      agg_slots = [];
      parent = parent_ctx;
      outer_reads;
      state;
    }
  in
  (* -- classify WHERE conjuncts -------------------------------------- *)
  let single_table = Hashtbl.create 8 in
  (* binding -> expr list *)
  let join_preds = ref [] in
  let post_preds = ref [] in
  let correlated = ref [] in
  List.iter
    (fun conj ->
      match local_bindings full_ctx conj with
      | Some [ b ] ->
          Hashtbl.replace single_table b
            (conj :: Option.value ~default:[] (Hashtbl.find_opt single_table b))
      | Some (_ :: _ :: _) -> join_preds := conj :: !join_preds
      | Some [] -> post_preds := conj :: !post_preds (* constant predicate *)
      | None ->
          if contains_subquery conj then post_preds := conj :: !post_preds
          else correlated := conj :: !correlated)
    where_conjuncts;
  let join_preds = List.rev !join_preds in
  let post_preds = List.rev !post_preds in
  let correlated_preds = List.rev !correlated in
  (* -- build runners for each unit with pushdown filters -------------- *)
  let bindings_of_cols cols =
    Array.to_list cols |> List.filter_map fst |> List.sort_uniq compare
  in
  let unit_runners =
    List.map
      (fun (cols, kind) ->
        match kind with
        | `Scan (binding, table) ->
            let filters =
              Option.value ~default:[] (Hashtbl.find_opt single_table binding)
            in
            let _, src =
              scan_table state ~binding table ~filters ~ctx_parent:parent_ctx
            in
            (cols, src)
        | `Planned src ->
            (* single-binding WHERE conjuncts on a derived table or a
               JOIN tree apply as a filter over the unit's output *)
            let filters =
              List.concat_map
                (fun b ->
                  Option.value ~default:[]
                    (Hashtbl.find_opt single_table b))
                (bindings_of_cols cols)
            in
            if filters = [] then (cols, src)
            else begin
              let uctx =
                {
                  cols;
                  agg_slots = [];
                  parent = parent_ctx;
                  outer_reads;
                  state;
                }
              in
              let cfilters = List.map (compile uctx) filters in
              ( cols,
                pipe src ~reads:false
                  (filter_stage state
                     ~env_of:(fun o r -> mk_env ?up:o r)
                     cfilters) )
            end)
      units
  in
  (* -- join order: greedy, preferring equi-connected units ------------ *)
  let expr_bindings e =
    match local_bindings full_ctx e with Some bs -> bs | None -> []
  in
  (* Precompile nothing yet; we order units then emit a runner. *)
  let order_units () =
    match unit_runners with
    | [] -> fail "FROM clause is required"
    | first :: rest ->
        let acc_units = ref [ first ] in
        let acc_bindings = ref (bindings_of_cols (fst first)) in
        let remaining = ref rest in
        let connected (cols, _) =
          let bs = bindings_of_cols cols in
          List.exists
            (fun pred ->
              match pred with
              | Binop (Eq, a, b) ->
                  let ba = expr_bindings a and bb = expr_bindings b in
                  (ba <> [] && bb <> [])
                  && ((List.for_all (fun x -> List.mem x !acc_bindings) ba
                       && List.for_all (fun x -> List.mem x bs) bb)
                     || (List.for_all (fun x -> List.mem x bs) ba
                        && List.for_all (fun x -> List.mem x !acc_bindings) bb))
              | _ -> false)
            join_preds
        in
        let ordered = ref [ first ] in
        while !remaining <> [] do
          let next, rest =
            match List.partition connected !remaining with
            | cand :: others, rest -> (cand, others @ rest)
            | [], x :: rest -> (x, rest)
            | [], [] -> assert false
          in
          ordered := next :: !ordered;
          acc_bindings := !acc_bindings @ bindings_of_cols (fst next);
          acc_units := next :: !acc_units;
          remaining := rest
        done;
        List.rev !ordered
  in
  let ordered_units = order_units () in
  (* -- emit the join pipeline ---------------------------------------- *)
  (* We process units left to right, tracking the accumulated column
     array, consuming join predicates as soon as they become fully
     resolvable. *)
  let consumed = Array.make (List.length join_preds) false in
  let join_pred_arr = Array.of_list join_preds in
  let first = ref None and steps = ref [] in
  let acc_cols = ref [||] in
  List.iteri
    (fun ui (cols, src) ->
      if ui = 0 then begin
        acc_cols := cols;
        first := Some src
      end
      else begin
        let left_cols = !acc_cols in
        let combined = Array.append left_cols cols in
        let left_bindings = bindings_of_cols left_cols in
        let right_bindings = bindings_of_cols cols in
        let usable = ref [] in
        Array.iteri
          (fun pi pred ->
            if not consumed.(pi) then begin
              let bs = expr_bindings pred in
              let all_in =
                bs <> []
                && List.for_all
                     (fun b ->
                       List.mem b left_bindings || List.mem b right_bindings)
                     bs
              in
              if all_in then begin
                consumed.(pi) <- true;
                usable := pred :: !usable
              end
            end)
          join_pred_arr;
        let usable = List.rev !usable in
        (* split into equi keys vs residual *)
        let lkeys = ref [] and rkeys = ref [] and residual = ref [] in
        List.iter
          (fun pred ->
            match pred with
            | Binop (Eq, a, b) -> (
                let ba = expr_bindings a and bb = expr_bindings b in
                let a_left = List.for_all (fun x -> List.mem x left_bindings) ba
                and a_right =
                  List.for_all (fun x -> List.mem x right_bindings) ba
                and b_left = List.for_all (fun x -> List.mem x left_bindings) bb
                and b_right =
                  List.for_all (fun x -> List.mem x right_bindings) bb
                in
                match () with
                | _ when ba <> [] && bb <> [] && a_left && b_right ->
                    lkeys := a :: !lkeys;
                    rkeys := b :: !rkeys
                | _ when ba <> [] && bb <> [] && a_right && b_left ->
                    lkeys := b :: !lkeys;
                    rkeys := a :: !rkeys
                | _ -> residual := pred :: !residual)
            | _ -> residual := pred :: !residual)
          usable;
        let left_ctx_cols = left_cols and right_ctx_cols = cols in
        let lctx =
          {
            cols = left_ctx_cols;
            agg_slots = [];
            parent = parent_ctx;
            outer_reads;
            state;
          }
        and rctx =
          {
            cols = right_ctx_cols;
            agg_slots = [];
            parent = parent_ctx;
            outer_reads;
            state;
          }
        and cctx =
          {
            cols = combined;
            agg_slots = [];
            parent = parent_ctx;
            outer_reads;
            state;
          }
        in
        let compile_keys ctx keys =
          Array.of_list (List.map (compile ctx) (List.rev keys))
        in
        let step =
          join_step state ~kind:`Inner
            ~lkeys:(compile_keys lctx !lkeys)
            ~rkeys:(compile_keys rctx !rkeys)
            ~residual:(List.map (compile cctx) (List.rev !residual))
            ~left_width:(Array.length left_cols) ~right_width:(Array.length cols)
            src
        in
        steps := step :: !steps;
        acc_cols := combined
      end)
    ordered_units;
  let from_source =
    match (!first, !steps) with
    | Some src, [] -> src
    | Some src, steps -> join_source src (List.rev steps)
    | None, _ -> assert false
  in
  let joined_cols = !acc_cols in
  (* join predicates never consumed become post-join filters *)
  let unconsumed = ref [] in
  Array.iteri
    (fun pi c -> if not c then unconsumed := join_pred_arr.(pi) :: !unconsumed)
    consumed;
  let final_post_preds = post_preds @ List.rev !unconsumed in
  (* -- correlated predicate handling: semijoin keys vs residual ------- *)
  let joined_ctx =
    {
      cols = joined_cols;
      agg_slots = [];
      parent = parent_ctx;
      outer_reads;
      state;
    }
  in
  let semi_inner = ref [] and semi_outer = ref [] and corr_residual = ref [] in
  (* an expression is outer-only when every column it mentions resolves
     strictly above this select's scope *)
  let outer_only e =
    let cols = columns_of_expr [] e in
    (not (contains_subquery e))
    && cols <> []
    && List.for_all
         (fun (qual, n) ->
           match resolve joined_ctx qual n 0 with
           | Some (d, _) -> d > 0
           | None -> false)
         cols
  in
  List.iter
    (fun pred ->
      match pred with
      | Binop (Eq, a, b) -> (
          let side e =
            match local_bindings joined_ctx e with
            | Some (_ :: _) -> `Inner
            | Some [] -> `Constant
            | None -> if outer_only e then `Outer else `Mixed
          in
          match (side a, side b) with
          | `Inner, `Outer ->
              semi_inner := a :: !semi_inner;
              semi_outer := b :: !semi_outer
          | `Outer, `Inner ->
              semi_inner := b :: !semi_inner;
              semi_outer := a :: !semi_outer
          | _ -> corr_residual := pred :: !corr_residual)
      | _ -> corr_residual := pred :: !corr_residual)
    correlated_preds;
  let semi_inner = List.rev !semi_inner and semi_outer = List.rev !semi_outer in
  let corr_residual = List.rev !corr_residual in
  (* post-filters that read the outer row (through a subquery) belong
     to stage B: they must see every outer row, not the memoized first *)
  let local_post, outer_post =
    List.partition_map
      (fun pred ->
        let refs_outer = ref [] in
        let c = compile { joined_ctx with outer_reads = refs_outer } pred in
        if !refs_outer <> [] then begin
          outer_reads := !refs_outer @ !outer_reads;
          Right (pred, c)
        end
        else Left (pred, c))
      final_post_preds
  in
  let cpost = List.map snd local_post in
  let csemi_inner = Array.of_list (List.map (compile joined_ctx) semi_inner) in
  let csemi_outer =
    (* outer key exprs compiled against a ctx whose local frame is the
       joined ctx but resolution will land in the parent; evaluated
       with env whose row is a dummy and up = outer env *)
    Array.of_list (List.map (compile joined_ctx) semi_outer)
  in
  let ccorr_residual = List.map (compile joined_ctx) corr_residual in
  let with_outer outer_env r = mk_env ?up:outer_env r in
  (* -- stage A: FROM + WHERE, memoized under an outer scope ----------- *)
  let stage_a =
    if cpost = [] then from_source
    else
      pipe from_source
        ~reads:(List.exists (fun (p, _) -> contains_subquery p) local_post)
        (filter_stage state ~env_of:with_outer cpost)
  in
  let stage_a =
    if Option.is_none parent_ctx then stage_a
    else begin
      let memo = ref None in
      {
        live = false;
        resident = false;
        iter =
          (fun outer_env k ->
            let rows =
              match !memo with
              | Some rows -> rows
              | None ->
                  let rows = collect stage_a outer_env in
                  memo := Some rows;
                  rows
            in
            iter_rows k rows);
      }
    end
  in
  (* -- correlated narrowing: semijoin probe, then residuals ----------- *)
  let narrowed =
    if Array.length csemi_inner = 0 then stage_a
    else begin
      let index = ref None in
      let get_index outer_env =
        match !index with
        | Some idx -> idx
        | None ->
            let idx = build_index state stage_a outer_env csemi_inner in
            (* buckets back into stage-A order *)
            Key_tbl.iter (fun _ b -> b.rows <- rev_rows Nil b.rows) idx;
            index := Some idx;
            idx
      in
      {
        live = false;
        resident = false;
        iter =
          (fun outer_env k ->
            let idx = get_index outer_env in
            match outer_env with
            | None -> fail "correlated subquery evaluated without outer row"
            | Some oenv ->
                let key = eval_all csemi_outer (mk_env ~up:oenv [||]) in
                state.obs.Observer.on_rows 1;
                if not (has_null key) then
                  iter_rows k (find_bucket idx key));
      }
    end
  in
  let stage_b = ccorr_residual @ List.map snd outer_post in
  let narrowed =
    if stage_b = [] then narrowed
    else
      pipe narrowed
        ~reads:(outer_post <> [])
        (filter_stage state ~env_of:with_outer stage_b)
  in
  (* -- aggregation & projection --------------------------------------- *)
  let items =
    List.concat_map
      (function
        | Star ->
            Array.to_list joined_cols
            |> List.map (fun (q, n) ->
                   Item (Col { qualifier = q; name = n }, Some n))
        | Item _ as it -> [ it ])
      q.items
  in
  let out_cols = List.mapi output_name items in
  let item_exprs =
    List.map (function Item (e, _) -> e | Star -> assert false) items
  in
  let having_expr = Option.map (substitute_aliases items) q.having in
  let order_exprs = List.map (fun (e, d) -> (substitute_aliases items e, d)) q.order_by in
  let is_agg_query =
    q.group_by <> []
    || List.exists contains_agg item_exprs
    || Option.fold ~none:false ~some:contains_agg having_expr
  in
  let run =
    if not is_agg_query then begin
      (* compile projection/sort directly over joined ctx *)
      let citems = Array.of_list (List.map (compile joined_ctx) item_exprs) in
      let corder =
        List.map (fun (e, d) -> (compile joined_ctx e, d)) order_exprs
      in
      let rows =
        match having_expr with
        | None -> narrowed
        | Some h ->
            let ch = compile joined_ctx h in
            pipe narrowed ~reads:(contains_subquery h) (fun outer_env k r fp ->
                if Value.as_bool (ch (with_outer outer_env r)) then k r fp)
      in
      let reads =
        List.exists contains_subquery item_exprs
        || List.exists (fun (e, _) -> contains_subquery e) order_exprs
      in
      if corder = [] then fun outer_env ->
        let out = ref [] in
        drain rows ~reads outer_env (fun r _ ->
            state.obs.Observer.on_rows 1;
            out := eval_all citems (with_outer outer_env r) :: !out);
        limit_rows q.limit (List.rev !out)
      else fun outer_env ->
        let projected = ref [] in
        drain rows ~reads outer_env (fun r _ ->
            state.obs.Observer.on_rows 1;
            let env = with_outer outer_env r in
            let keys = List.map (fun (c, d) -> (c env, d)) corder in
            projected := (eval_all citems env, keys) :: !projected);
        sort_and_limit state (List.rev !projected) q.limit
    end
    else begin
      (* aggregate pipeline *)
      let agg_nodes =
        let acc = List.fold_left collect_aggs [] item_exprs in
        let acc =
          Option.fold ~none:acc ~some:(collect_aggs acc) having_expr
        in
        List.fold_left (fun acc (e, _) -> collect_aggs acc e) acc order_exprs
      in
      let agg_slots = List.mapi (fun i e -> (e, i)) agg_nodes in
      let agg_ctx = { joined_ctx with agg_slots } in
      let group_exprs = List.map (substitute_aliases items) q.group_by in
      let cgroup = Array.of_list (List.map (compile joined_ctx) group_exprs) in
      let agg_args =
        List.map
          (function Agg { arg; _ } -> arg | _ -> assert false)
          agg_nodes
      in
      let cagg_args =
        Array.of_list (List.map (Option.map (compile joined_ctx)) agg_args)
      in
      let agg_specs =
        List.map
          (function
            | Agg { func; distinct; _ } -> (func, distinct)
            | _ -> assert false)
          agg_nodes
      in
      let citems = Array.of_list (List.map (compile agg_ctx) item_exprs) in
      let chaving = Option.map (compile agg_ctx) having_expr in
      let corder = List.map (fun (e, d) -> (compile agg_ctx e, d)) order_exprs in
      let agg_cost = 1 + Array.length cagg_args in
      let reads =
        List.exists contains_subquery group_exprs
        || List.exists (Option.fold ~none:false ~some:contains_subquery) agg_args
      in
      let new_group_states () =
        Array.of_list
          (List.map (fun (f, d) -> Agg_state.create f ~distinct:d) agg_specs)
      in
      (* Group accumulation and finalization: group discovery order —
         and with it output order — is scan order. *)
      let agg_add groups order outer_env (r : Row.t) =
        let env = with_outer outer_env r in
        let key = eval_all cgroup env in
        let states =
          match Key_tbl.find groups key with
          | _, states -> states
          | exception Not_found ->
              let states = new_group_states () in
              let entry = (r, states) in
              Key_tbl.add groups key entry;
              order := entry :: !order;
              state.obs.Observer.on_alloc 64;
              states
        in
        for i = 0 to Array.length cagg_args - 1 do
          match Array.unsafe_get cagg_args i with
          | None -> Agg_state.update_star states.(i)
          | Some c -> Agg_state.update_value states.(i) (c env)
        done
      in
      let agg_finish entries outer_env =
        let group_list =
          if Array.length cgroup = 0 && entries = [] then
            (* aggregate over empty input: one group of empties *)
            [ ([||], new_group_states ()) ]
          else entries
        in
        let finished =
          List.filter_map
            (fun (rep, states) ->
              let aggs = Array.map Agg_state.finish states in
              let env = { row = rep; aggs; up = outer_env } in
              match chaving with
              | Some h when not (Value.as_bool (h env)) -> None
              | _ ->
                  state.obs.Observer.on_rows 1;
                  let keys = List.map (fun (c, d) -> (c env, d)) corder in
                  Some (eval_all citems env, keys))
            group_list
        in
        sort_and_limit state finished q.limit
      in
      fun outer_env ->
        let groups = Key_tbl.create 64 in
        let order = ref [] in
        drain narrowed ~reads outer_env (fun r _ ->
            state.obs.Observer.on_rows agg_cost;
            agg_add groups order outer_env r);
        agg_finish (List.rev !order) outer_env
    end
  in
  {
    sub_cols = out_cols;
    sub_outer_reads = List.sort_uniq compare !outer_reads;
    sub_run = run;
  }

and sort_and_limit state projected limit =
  let sorted =
    match projected with
    | [] -> []
    | (_, []) :: _ -> List.map fst projected
    | _ ->
        state.obs.Observer.on_rows (List.length projected);
        List.stable_sort
          (fun (_, ka) (_, kb) ->
            let rec cmp a b =
              match (a, b) with
              | [], [] -> 0
              | (va, d) :: ra, (vb, _) :: rb ->
                  let c = Value.compare_total va vb in
                  let c = match d with `Asc -> c | `Desc -> -c in
                  if c <> 0 then c else cmp ra rb
              | _ -> 0
            in
            cmp ka kb)
          projected
        |> List.map fst
  in
  limit_rows limit sorted

(* Explicit JOIN ... ON trees (inner and left outer). *)
and plan_join_tree state ~parent_ctx ~outer_reads fi :
    (string option * string) array * source =
  match fi with
  | Table { table; alias } ->
      let binding = Option.value ~default:table alias in
      scan_table state ~binding table ~filters:[] ~ctx_parent:parent_ctx
  | Derived { select; alias } ->
      (* run in the scope it stands in: its outer environment is this
         level's *)
      let sub = plan_select state ~outer:parent_ctx select in
      outer_reads := sub.sub_outer_reads @ !outer_reads;
      let alias = String.lowercase_ascii alias in
      let cols =
        Array.of_list (List.map (fun n -> (Some alias, n)) sub.sub_cols)
      in
      (cols, of_rows sub.sub_run)
  | Join { kind; left; right; on } ->
      let lcols, lsrc = plan_join_tree state ~parent_ctx ~outer_reads left in
      let rcols, rsrc = plan_join_tree state ~parent_ctx ~outer_reads right in
      let combined = Array.append lcols rcols in
      let lctx = mk_ctx ~state lcols
      and rctx = mk_ctx ~state rcols
      and cctx = mk_ctx ~state combined in
      let on_conjuncts = conjuncts on in
      let lkeys = ref []
      and rkeys = ref []
      and right_only = ref []
      and residual = ref [] in
      List.iter
        (fun pred ->
          let resolves ctx e =
            match local_bindings ctx e with
            | Some (_ :: _) -> true
            | _ -> false
          in
          match pred with
          | Binop (Eq, a, b) when resolves lctx a && resolves rctx b ->
              lkeys := a :: !lkeys;
              rkeys := b :: !rkeys
          | Binop (Eq, a, b) when resolves rctx a && resolves lctx b ->
              lkeys := b :: !lkeys;
              rkeys := a :: !rkeys
          | pred when resolves rctx pred && not (resolves lctx pred) ->
              right_only := pred :: !right_only
          | pred -> residual := pred :: !residual)
        on_conjuncts;
      let compile_keys ctx keys =
        Array.of_list (List.map (compile ctx) (List.rev keys))
      in
      let clkeys = compile_keys lctx !lkeys in
      let crkeys = compile_keys rctx !rkeys in
      let cright_only = List.map (compile rctx) (List.rev !right_only) in
      let cresidual = List.map (compile cctx) (List.rev !residual) in
      let right =
        pipe rsrc ~reads:false
          (filter_stage state ~env_of:(fun _ r -> mk_env r) cright_only)
      in
      let step =
        join_step state ~kind ~lkeys:clkeys ~rkeys:crkeys ~residual:cresidual
          ~left_width:(Array.length lcols) ~right_width:(Array.length rcols)
          right
      in
      (combined, join_source lsrc [ step ])

(* -- Public entry points --------------------------------------------- *)

type result = { columns : string list; rows : Row.t list }

let run_select state (q : select) : result =
  let state =
    { state with refs = Some (Column_refs.of_select state.catalog q) }
  in
  let plan = plan_select state ~outer:None q in
  { columns = plan.sub_cols; rows = plan.sub_run None }

let pp_result ppf { columns; rows } =
  Fmt.pf ppf "%s@." (String.concat " | " columns);
  List.iter (fun r -> Fmt.pf ppf "%a@." Row.pp r) rows
