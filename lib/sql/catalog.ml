(* The database catalog: table name -> heap file (+ its secondary
   indexes), sharing one pager. *)

type t = {
  pager : Pager.t option; (* [None]: resident tables only *)
  tables : (string, Heap_file.t) Hashtbl.t;
  indexes : (string, Index.t list) Hashtbl.t; (* table -> indexes *)
  index_names : (string, Index.t) Hashtbl.t;
}

exception Unknown_table of string
exception Duplicate_table of string
exception Unknown_index of string
exception Duplicate_index of string

let make pager =
  {
    pager;
    tables = Hashtbl.create 16;
    indexes = Hashtbl.create 16;
    index_names = Hashtbl.create 16;
  }

let create ~pager = make (Some pager)
let create_resident () = make None
let pager t = t.pager

let register t hf =
  let name = Schema.name (Heap_file.schema hf) in
  if Hashtbl.mem t.tables name then raise (Duplicate_table name);
  Hashtbl.replace t.tables name hf;
  hf

let create_table t schema =
  match t.pager with
  | Some pager -> register t (Heap_file.create ~pager ~schema)
  | None -> invalid_arg "Catalog.create_table: catalog has no pager"

let add_resident t schema rows =
  ignore (register t (Heap_file.resident ~schema rows))

let find t name =
  let name = String.lowercase_ascii name in
  match Hashtbl.find_opt t.tables name with
  | Some hf -> hf
  | None -> raise (Unknown_table name)

let find_opt t name = Hashtbl.find_opt t.tables (String.lowercase_ascii name)

let drop_table t name =
  let name = String.lowercase_ascii name in
  if not (Hashtbl.mem t.tables name) then raise (Unknown_table name);
  List.iter
    (fun idx -> Hashtbl.remove t.index_names (Index.name idx))
    (Option.value ~default:[] (Hashtbl.find_opt t.indexes name));
  Hashtbl.remove t.indexes name;
  Hashtbl.remove t.tables name

let table_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [] |> List.sort compare

let total_pages t =
  Hashtbl.fold (fun _ hf acc -> acc + Heap_file.page_count hf) t.tables 0

let total_rows t =
  Hashtbl.fold (fun _ hf acc -> acc + Heap_file.row_count hf) t.tables 0

(* -- Secondary indexes ---------------------------------------------- *)

let indexes_for t table =
  Option.value ~default:[]
    (Hashtbl.find_opt t.indexes (String.lowercase_ascii table))

let index_on t ~table ~column =
  List.find_opt
    (fun idx -> Index.column idx = String.lowercase_ascii column)
    (indexes_for t table)

(* (Re)populate an index from its table's current contents, building
   only the indexed value of each row. *)
let rebuild_index t idx =
  Index.clear idx;
  let hf = find t (Index.table idx) in
  let schema = Heap_file.schema hf in
  match Schema.column_index schema (Index.column idx) with
  | None -> ()
  | Some col ->
      let mask = Array.init (Schema.arity schema) (fun i -> i = col) in
      Heap_file.iter_pages ~mask hf (Heap_file.stored_pages hf)
        ~f:(fun ~page row _ -> Index.add idx row.(col) ~page)

let rebuild_indexes t table =
  List.iter (rebuild_index t) (indexes_for t table)

(* After the pager's backing store has been crash-recovered: re-anchor
   every heap file on its storage image and repopulate the indexes. *)
let reload_tables t =
  Hashtbl.iter (fun _ hf -> Heap_file.reload hf) t.tables;
  Hashtbl.iter (fun table _ -> rebuild_indexes t table) t.indexes

let create_index t ~index_name ~table ~column =
  let index_name = String.lowercase_ascii index_name in
  if Hashtbl.mem t.index_names index_name then raise (Duplicate_index index_name);
  let table = String.lowercase_ascii table in
  let hf = find t table in
  let schema = Heap_file.schema hf in
  match Schema.column_index schema column with
  | None ->
      raise
        (Unknown_table (Printf.sprintf "%s has no column %s" table column))
  | Some col_idx ->
      let idx = Index.create ~index_name ~table ~column ~col_idx in
      rebuild_index t idx;
      Hashtbl.replace t.indexes table (idx :: indexes_for t table);
      Hashtbl.replace t.index_names index_name idx;
      idx

let drop_index t index_name =
  let index_name = String.lowercase_ascii index_name in
  match Hashtbl.find_opt t.index_names index_name with
  | None -> raise (Unknown_index index_name)
  | Some idx ->
      Hashtbl.remove t.index_names index_name;
      Hashtbl.replace t.indexes (Index.table idx)
        (List.filter
           (fun i -> Index.name i <> index_name)
           (indexes_for t (Index.table idx)))

(* Index maintenance hook for the insert path. *)
let note_insert t ~table ~page row =
  List.iter
    (fun idx ->
      let col =
        match
          Schema.column_index (Heap_file.schema (find t table)) (Index.column idx)
        with
        | Some c -> c
        | None -> -1
      in
      if col >= 0 then Index.add idx row.(col) ~page)
    (indexes_for t table)
