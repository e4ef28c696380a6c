(* The host engine (Fig. 3, SGX enclave): receives the filtered,
   projected rows from the storage engine, registers them as resident
   in-memory tables, and runs the host portion of the query (joins,
   group-bys, aggregations, ordering). *)

module Sql = Ironsafe_sql

type phase = {
  result : Sql.Exec.result;
  counters : Sql.Observer.counters;
}

(* Register the shipped rows as resident tables of a fresh database
   (schemas are the projected subsets of the storage schemas) and
   execute the host statement over them. The rows stay the values the
   storage engine produced: nothing is re-encoded into pages. *)
let run_host ?exec_mode:_ ~storage_catalog (plan : Partitioner.plan)
    (offload : Storage_engine.phase) : phase =
  let host_db = Sql.Database.create_resident () in
  let obs, counters = Sql.Observer.counting () in
  Sql.Database.set_observer host_db obs;
  Fun.protect
    ~finally:(fun () -> Sql.Database.set_observer host_db Sql.Observer.null)
    (fun () ->
      List.iter
        (fun (st : Partitioner.shipped_table) ->
          let src_schema =
            Sql.Heap_file.schema (Sql.Catalog.find storage_catalog st.table)
          in
          let column ty_of cname =
            match
              Array.to_list (Sql.Schema.columns src_schema)
              |> List.find_opt (fun c -> c.Sql.Schema.col_name = cname)
            with
            | Some c -> (c.Sql.Schema.col_name, c.Sql.Schema.col_ty)
            | None -> (cname, ty_of)
          in
          let columns =
            match st.columns with
            | [] ->
                (* no referenced columns (count-star only): keep one so
                   the table still has a schema and its row count *)
                [
                  (let c = (Sql.Schema.columns src_schema).(0) in
                   (c.Sql.Schema.col_name, c.Sql.Schema.col_ty));
                ]
            | cols -> List.map (column Sql.Value.TStr) cols
          in
          let rows =
            match
              List.find_opt
                (fun r -> r.Storage_engine.off_table = st.table)
                offload.Storage_engine.results
            with
            | Some r -> r.Storage_engine.off_rows
            | None -> []
          in
          Sql.Database.add_resident_table host_db
            (Sql.Schema.create ~name:st.table ~columns)
            rows)
        plan.Partitioner.shipped;
      let result =
        match Sql.Database.exec_ast host_db plan.Partitioner.host_stmt with
        | Sql.Database.Result r -> r
        | _ -> { Sql.Exec.columns = []; rows = [] }
      in
      { result; counters })
