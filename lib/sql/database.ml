(* The engine facade: parse, plan, and execute statements against a
   catalog. This is what both the host engine and the storage engine
   instantiate (over different pagers). *)

type t = { catalog : Catalog.t; mutable observer : Observer.t }

type outcome =
  | Result of Exec.result
  | Affected of int
  | Created of string
  | Dropped of string

let create ~pager =
  { catalog = Catalog.create ~pager; observer = Observer.null }

let create_resident () =
  { catalog = Catalog.create_resident (); observer = Observer.null }

let catalog t = t.catalog
let reload_storage t = Catalog.reload_tables t.catalog

let set_observer t obs =
  t.observer <- obs;
  Option.iter (fun p -> Pager.set_observer p obs) (Catalog.pager t.catalog)

let state t = { Exec.catalog = t.catalog; obs = t.observer; refs = None }

let create_table t schema = ignore (Catalog.create_table t.catalog schema)

(* Loading charges one row step per row and each row's footprint,
   whether the rows are written to pages or kept resident. *)
let charge_load t rows =
  t.observer.Observer.on_rows (List.length rows);
  List.iter (fun r -> t.observer.Observer.on_alloc (Row.heap_size r)) rows

let insert_rows t table rows =
  let hf = Catalog.find t.catalog table in
  charge_load t rows;
  List.iter
    (fun r ->
      let page = Heap_file.append_page hf r in
      Catalog.note_insert t.catalog ~table ~page r)
    rows;
  Heap_file.flush hf

let add_resident_table t schema rows =
  charge_load t rows;
  Catalog.add_resident t.catalog schema rows

(* Evaluate a constant expression (INSERT values). *)
let const_value st expr =
  let ctx = Exec.mk_ctx ~state:st [||] in
  (Exec.compile ctx expr) (Exec.mk_env [||])

let exec_ast t stmt =
  let st = state t in
  match stmt with
  | Ast.Select q -> Result (Exec.run_select st q)
  | Ast.Create_table { name; cols } ->
      let schema = Schema.create ~name ~columns:cols in
      ignore (Catalog.create_table t.catalog schema);
      Created name
  | Ast.Drop_table name ->
      Catalog.drop_table t.catalog name;
      Dropped name
  | Ast.Create_index { index_name; table; column } ->
      ignore (Catalog.create_index t.catalog ~index_name ~table ~column);
      Created index_name
  | Ast.Drop_index name ->
      Catalog.drop_index t.catalog name;
      Dropped name
  | Ast.Insert { table; columns; values } ->
      let hf = Catalog.find t.catalog table in
      let schema = Heap_file.schema hf in
      let arity = Schema.arity schema in
      let positions =
        match columns with
        | None -> Array.init arity Fun.id
        | Some names ->
            Array.of_list
              (List.map
                 (fun n ->
                   match Schema.column_index schema n with
                   | Some i -> i
                   | None ->
                       raise
                         (Exec.Sql_error
                            (Printf.sprintf "unknown column %s in %s" n table)))
                 names)
      in
      let rows =
        List.map
          (fun exprs ->
            if List.length exprs <> Array.length positions then
              raise (Exec.Sql_error "INSERT arity mismatch");
            let row = Array.make arity Value.Null in
            List.iteri
              (fun i e -> row.(positions.(i)) <- const_value st e)
              exprs;
            row)
          values
      in
      List.iter
        (fun r ->
          let page = Heap_file.append_page hf r in
          Catalog.note_insert t.catalog ~table ~page r)
        rows;
      Heap_file.flush hf;
      Affected (List.length rows)
  | Ast.Update { table; sets; where } ->
      let hf = Catalog.find t.catalog table in
      let schema = Heap_file.schema hf in
      let cols =
        Array.map
          (fun c -> (Some (Schema.name schema), c.Schema.col_name))
          (Schema.columns schema)
      in
      let ctx = Exec.mk_ctx ~state:st cols in
      let cwhere = Option.map (Exec.compile ctx) where in
      let csets =
        List.map
          (fun (cname, e) ->
            match Schema.column_index schema cname with
            | Some i -> (i, Exec.compile ctx e)
            | None ->
                raise
                  (Exec.Sql_error
                     (Printf.sprintf "unknown column %s in %s" cname table)))
          sets
      in
      let n =
        Heap_file.rewrite hf ~f:(fun row ->
            let env = Exec.mk_env row in
            let matches =
              match cwhere with
              | None -> true
              | Some w -> Value.as_bool (w env)
            in
            if not matches then `Keep
            else begin
              let row' = Array.copy row in
              List.iter (fun (i, c) -> row'.(i) <- c env) csets;
              `Replace row'
            end)
      in
      Catalog.rebuild_indexes t.catalog table;
      Affected n
  | Ast.Delete { table; where } ->
      let hf = Catalog.find t.catalog table in
      let schema = Heap_file.schema hf in
      let cols =
        Array.map
          (fun c -> (Some (Schema.name schema), c.Schema.col_name))
          (Schema.columns schema)
      in
      let ctx = Exec.mk_ctx ~state:st cols in
      let cwhere = Option.map (Exec.compile ctx) where in
      let n =
        Heap_file.rewrite hf ~f:(fun row ->
            let matches =
              match cwhere with
              | None -> true
              | Some w -> Value.as_bool (w (Exec.mk_env row))
            in
            if matches then `Delete else `Keep)
      in
      Catalog.rebuild_indexes t.catalog table;
      Affected n

let exec t sql = exec_ast t (Parser.parse sql)

let query t sql =
  match exec t sql with
  | Result r -> r
  | Affected _ | Created _ | Dropped _ ->
      raise (Exec.Sql_error "statement did not produce rows")
