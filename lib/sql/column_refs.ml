(* Which columns of which base tables a SELECT references, decided by
   one walk over its AST, subqueries and derived tables included. The
   partitioner ships these columns to the host; the executor decodes
   only these columns out of pages.

   Scoping follows the executor. A column resolves against the base
   tables of its own FROM clause first, then against each enclosing
   query's, innermost first; a qualifier must match the binding name
   (the alias, else the table name). A derived table contributes no
   binding, since its output columns are not base-table columns; its
   own SELECT is walked in the scope it stands in. A JOIN ... ON
   condition resolves against the tables of that join only. A column
   that resolves to no base table is recorded nowhere. [*] needs every
   column of its FROM clause's base tables, except under EXISTS, where
   only the number of rows matters. Every table named in a FROM clause
   is recorded, even when none of its columns is read. *)

module StringSet = Set.Make (String)

type binding = { name : string; table : string; schema : Schema.t }

type t = (string, StringSet.t) Hashtbl.t (* table -> columns read *)

type walk = {
  catalog : Catalog.t;
  on_select :
    scopes:binding list list -> local:binding list -> Ast.select -> unit;
  refs : t;
}

let need_table w table =
  if not (Hashtbl.mem w.refs table) then
    Hashtbl.replace w.refs table StringSet.empty

let columns_of t table =
  Option.value ~default:StringSet.empty (Hashtbl.find_opt t table)

let need_column w b col =
  Hashtbl.replace w.refs b.table (StringSet.add col (columns_of w.refs b.table))

let need_all_columns w b =
  List.iter (need_column w b) (Schema.column_names b.schema)

let resolve scopes qualifier name =
  let name = String.lowercase_ascii name in
  let qualifier = Option.map String.lowercase_ascii qualifier in
  let in_scope bindings =
    List.find_opt
      (fun b ->
        (match qualifier with None -> true | Some q -> q = b.name)
        && Option.is_some (Schema.column_index b.schema name))
      bindings
  in
  List.find_map in_scope scopes

(* bindings of the base tables in one FROM item *)
let rec bindings_of_from_item catalog acc = function
  | Ast.Table { table; alias } -> (
      match Catalog.find_opt catalog table with
      | None -> acc (* unknown table: host-side temp, nothing to read *)
      | Some hf ->
          {
            name = String.lowercase_ascii (Option.value ~default:table alias);
            table = String.lowercase_ascii table;
            schema = Heap_file.schema hf;
          }
          :: acc)
  | Derived _ -> acc
  | Join { left; right; _ } ->
      bindings_of_from_item catalog
        (bindings_of_from_item catalog acc left)
        right

let rec walk_expr w scopes (e : Ast.expr) =
  match e with
  | Lit _ | Interval _ -> ()
  | Col { qualifier; name } ->
      Option.iter
        (fun b -> need_column w b (String.lowercase_ascii name))
        (resolve scopes qualifier name)
  | Unary (_, x) | Extract { arg = x; _ } | Is_null { subject = x; _ } ->
      walk_expr w scopes x
  | Binop (_, a, b) ->
      walk_expr w scopes a;
      walk_expr w scopes b
  | Like { subject; _ } -> walk_expr w scopes subject
  | Between { subject; low; high; _ } ->
      walk_expr w scopes subject;
      walk_expr w scopes low;
      walk_expr w scopes high
  | In_list { subject; items; _ } ->
      walk_expr w scopes subject;
      List.iter (walk_expr w scopes) items
  | In_select { subject; select; _ } ->
      walk_expr w scopes subject;
      walk_select w scopes ~exists_context:false select
  | Exists { select; _ } -> walk_select w scopes ~exists_context:true select
  | Scalar_select select -> walk_select w scopes ~exists_context:false select
  | Case { branches; else_ } ->
      List.iter
        (fun (cond, v) ->
          walk_expr w scopes cond;
          walk_expr w scopes v)
        branches;
      Option.iter (walk_expr w scopes) else_
  | Substring { subject; start; len } ->
      walk_expr w scopes subject;
      walk_expr w scopes start;
      Option.iter (walk_expr w scopes) len
  | Agg { arg; _ } -> Option.iter (walk_expr w scopes) arg

and walk_select w outer_scopes ~exists_context (q : Ast.select) =
  let local = List.fold_left (bindings_of_from_item w.catalog) [] q.from in
  List.iter (fun b -> need_table w b.table) local;
  let scopes = local :: outer_scopes in
  let rec walk_from = function
    | Ast.Table _ -> ()
    | Derived { select; _ } ->
        walk_select w outer_scopes ~exists_context:false select
    | Join { left; right; on; _ } as join ->
        walk_from left;
        walk_from right;
        (* the executor compiles ON with no outer scope *)
        walk_expr w [ bindings_of_from_item w.catalog [] join ] on
  in
  List.iter walk_from q.from;
  List.iter
    (function
      | Ast.Star ->
          if not exists_context then List.iter (need_all_columns w) local
      | Item (e, _) -> walk_expr w scopes e)
    q.items;
  Option.iter (walk_expr w scopes) q.where;
  List.iter (walk_expr w scopes) q.group_by;
  Option.iter (walk_expr w scopes) q.having;
  List.iter (fun (e, _) -> walk_expr w scopes e) q.order_by;
  w.on_select ~scopes ~local q

let of_select ?(on_select = fun ~scopes:_ ~local:_ _ -> ()) catalog q =
  let refs = Hashtbl.create 8 in
  walk_select { catalog; on_select; refs } [] ~exists_context:false q;
  refs

let tables t =
  Hashtbl.fold (fun table _ acc -> table :: acc) t []
  |> List.sort compare

let columns t schema =
  let cols = columns_of t (Schema.name schema) in
  List.filter (fun n -> StringSet.mem n cols) (Schema.column_names schema)

let mask t schema =
  let table = Schema.name schema in
  match Hashtbl.find_opt t table with
  | Some cols ->
      Array.map
        (fun c -> StringSet.mem c.Schema.col_name cols)
        (Schema.columns schema)
  | None -> Array.make (Schema.arity schema) true
