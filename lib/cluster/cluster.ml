(* Sharded multi-node CSA cluster: one host coordinates N storage
   nodes holding hash- or range-partitions of the same tables. The
   planner splits an offloadable query into per-shard sub-plans; the
   host gathers the partial results through one of three merge
   operators and (when needed) re-runs the host portion over the
   reassembled tables.

   Exactness is the design anchor: every shard table carries a hidden
   leading [shard_ord] column holding the row's single-node insertion
   index. The generic gather path merges shard streams by ascending
   ord, which restores the exact single-node scan order (the engine's
   index-driven scans read pages in sorted page order, so even
   filtered scans return rows in insertion order) — the host engine
   then sees bitwise-identical input and produces bitwise-identical
   results for {e every} statement. The two specialized operators
   (partial-aggregation pushdown and k-way merge-sort) only engage
   when a purely structural eligibility check proves they reproduce
   the single-node answer exactly.

   The cluster is N applications of the single storage-node path, not
   a copy of it: each shard is booted, provisioned and attested with
   {!Ironsafe.Deployment}'s storage-node functions (one retry loop for
   the whole cluster), charged {!Ironsafe.Runner.storage_share} for its
   slice, and the host {!Ironsafe.Runner.host_share} for the gather; the
   query runs inside the runner's root span and fault-aware outcome
   wrapper, so pre-flight TEE faults and outcome events reach sharded
   queries exactly as single-node ones.

   A one-shard cluster runs on the base deployment's storage node
   through the single-node {!Ironsafe.Runner}; {!engine} gives either
   shape the same {!Ironsafe.Engine.submit}. *)

module Sim = Ironsafe_sim
module Storage = Ironsafe_storage
module Sec = Ironsafe_securestore
module Tee = Ironsafe_tee
module Sql = Ironsafe_sql
module Monitor = Ironsafe_monitor
module Fault = Ironsafe_fault.Fault
module Obs = Ironsafe_obs.Obs
module Ev = Ironsafe_obs.Event_log
module Deployment = Ironsafe.Deployment
module Runner = Ironsafe.Runner
module Config = Ironsafe.Config
module Partitioner = Ironsafe.Partitioner
module Host_engine = Ironsafe.Host_engine
module Storage_engine = Ironsafe.Storage_engine

type shard = {
  sh_id : int;
  sh_node : Sim.Node.t;
  sh_tz : Tee.Trustzone.device;
  sh_booted : Tee.Trustzone.booted;
  sh_device : Storage.Block_device.t;
  sh_store : Sec.Secure_store.t;
  sh_plain_db : Sql.Database.t;
  sh_secure_db : Sql.Database.t;
}

type t = {
  base : Deployment.t;
  scheme : Partitioner.scheme;
  shards : shard array;  (* empty when nshards = 1: the base node serves *)
  nshards : int;
  ord_col : string;  (* hidden leading insertion-index column *)
}

let nshards t = t.nshards
let base t = t.base
let scheme t = t.scheme
let ord_column t = t.ord_col
let shard_nodes t = Array.to_list (Array.map (fun sh -> sh.sh_node) t.shards)

let shard_device_ids t =
  Array.to_list (Array.map (fun sh -> Tee.Trustzone.device_id sh.sh_tz) t.shards)

(* The storage nodes a statement runs on, and their device ids *)
let storage_nodes t =
  if t.nshards = 1 then [ t.base.Deployment.storage ] else shard_nodes t

let storage_device_ids t =
  if t.nshards = 1 then [ Tee.Trustzone.device_id t.base.Deployment.tz_device ]
  else shard_device_ids t

(* A column name free in every table, so the hidden ord column can
   never shadow user data. *)
let fresh_ord_name catalog =
  let tables = Sql.Catalog.table_names catalog in
  let taken name =
    List.exists
      (fun tname ->
        let schema = Sql.Heap_file.schema (Sql.Catalog.find catalog tname) in
        Array.exists
          (fun c -> String.lowercase_ascii c.Sql.Schema.col_name = name)
          (Sql.Schema.columns schema))
      tables
  in
  let rec go name = if taken name then go ("_" ^ name) else name in
  go "shard_ord"

(* -- construction ------------------------------------------------------ *)

(* Deterministic row -> shard assignment for one table: partition key
   is the first integer column (insertion index otherwise), routed
   through {!Partitioner.shard_of_key}. Returns per-shard
   (ord, row) lists in insertion order. *)
let partition_table scheme ~shards hf =
  let schema = Sql.Heap_file.schema hf in
  let key_index = Partitioner.partition_key_index schema in
  let rows = ref [] and next = ref 0 in
  Sql.Heap_file.iter hf ~f:(fun row ->
      rows := (!next, row) :: !rows;
      incr next);
  let rows = List.rev !rows in
  let keys =
    List.map (fun (ord, row) -> Partitioner.row_key ~key_index ~ord row) rows
  in
  let lo, hi =
    match keys with
    | [] -> (0, 0)
    | k :: rest ->
        List.fold_left (fun (lo, hi) k -> (min lo k, max hi k)) (k, k) rest
  in
  let buckets = Array.make shards [] in
  List.iter2
    (fun (ord, row) key ->
      let s = Partitioner.shard_of_key scheme ~shards ~lo ~hi key in
      buckets.(s) <- (ord, row) :: buckets.(s))
    rows keys;
  Array.map List.rev buckets

(* Distinct device ids per cluster instance: two clusters over the same
   base deployment must not satisfy each other's attestation pre-check
   through colliding ids in the monitor's attested set. *)
let instances = ref 0

let create ?(storage_cores = 16) ?(storage_version = 1)
    ?(storage_location = "eu-west") ~shards:n ~scheme (base : Deployment.t) =
  if n < 1 then invalid_arg "Cluster.create: shards must be >= 1";
  let catalog = Sql.Database.catalog base.Deployment.plain_db in
  let ord_col = fresh_ord_name catalog in
  if n = 1 then { base; scheme; shards = [||]; nshards = 1; ord_col }
  else begin
    incr instances;
    let instance = !instances in
    let params = base.Deployment.params in
    let who = "Cluster.create" in
    (* per-shard TrustZone identity + empty plain replica *)
    let protos =
      Array.init n (fun i ->
          let node =
            Sim.Node.create ~cores:storage_cores ~params
              ~name:(Printf.sprintf "shard%d" i)
              Sim.Cpu.Storage_arm
          in
          let tz, booted =
            Deployment.boot_storage_tee ~who ~location:storage_location
              ~device_id:
                (Printf.sprintf "clearfog-cx-lx2k-c%d-shard%d" instance i)
              ~normal_world:base.Deployment.storage_nw_image
              base.Deployment.drbg
          in
          let plain_db = Sql.Database.create ~pager:(Sql.Pager.in_memory ()) in
          (node, tz, booted, plain_db))
    in
    (* scatter every table's rows, tagged with their insertion index *)
    List.iter
      (fun tname ->
        let hf = Sql.Catalog.find catalog tname in
        let schema = Sql.Heap_file.schema hf in
        let buckets = partition_table scheme ~shards:n hf in
        let columns =
          (ord_col, Sql.Value.TInt)
          :: (Array.to_list (Sql.Schema.columns schema)
             |> List.map (fun c -> (c.Sql.Schema.col_name, c.Sql.Schema.col_ty))
             )
        in
        Array.iteri
          (fun i bucket ->
            let _, _, _, db = protos.(i) in
            Sql.Database.create_table db
              (Sql.Schema.create ~name:tname ~columns);
            Sql.Database.insert_rows db tname
              (List.map
                 (fun (ord, row) ->
                   Array.append [| Sql.Value.Int ord |] row)
                 bucket))
          buckets)
      (Sql.Catalog.table_names catalog);
    (* secure replica per shard, keyed to its own TrustZone identity *)
    let shards =
      Array.mapi
        (fun i (node, tz, booted, plain_db) ->
          let m =
            Deployment.provision_secure ~who
              ~plain_pages:
                (Sql.Catalog.total_pages (Sql.Database.catalog plain_db))
              tz base.Deployment.drbg
          in
          let secure_db =
            Sql.Database.create ~pager:(Sql.Pager.secure m.Deployment.store)
          in
          Deployment.copy_database plain_db secure_db;
          Sec.Secure_store.reset_stats m.Deployment.store;
          Storage.Block_device.reset_counters m.Deployment.device;
          Monitor.Trusted_monitor.trust_storage_device base.Deployment.monitor
            ~device_id:(Tee.Trustzone.device_id tz)
            ~rotpk:(Tee.Trustzone.rotpk tz)
            ~normal_world:base.Deployment.storage_nw_image
            ~version:storage_version;
          (* the shared fault plan strikes one shard's secure medium
             (the flaky shard); the rest stay pristine so a faulted
             cluster degrades or rejects, never answers wrongly *)
          let faults = base.Deployment.faults in
          if i = 0 && Fault.enabled faults then Deployment.fault_medium faults m;
          {
            sh_id = i;
            sh_node = node;
            sh_tz = tz;
            sh_booted = booted;
            sh_device = m.Deployment.device;
            sh_store = m.Deployment.store;
            sh_plain_db = plain_db;
            sh_secure_db = secure_db;
          })
        protos
    in
    { base; scheme; shards; nshards = n; ord_col }
  end

let reset_counters t =
  Deployment.reset_counters t.base;
  Array.iter
    (fun sh ->
      Sim.Node.reset sh.sh_node;
      Sec.Secure_store.reset_stats sh.sh_store;
      Storage.Block_device.reset_counters sh.sh_device;
      Tee.Trustzone.reset_counters sh.sh_tz)
    t.shards

(* -- attestation ------------------------------------------------------- *)

(* One evidence entry per shard: each storage node attests under its
   own TrustZone identity into the same monitor session; the monitor
   records per-shard audit entries ({!Trusted_monitor.attest_storage}
   with [?shard]) on success and failure alike. *)
let attest ?host_location ?(storage_location = "eu-west") t =
  match Deployment.attest ?host_location ~storage_location t.base with
  | Error e -> Error e
  | Ok () ->
      let monitor = t.base.Deployment.monitor in
      let rec go i =
        if i >= Array.length t.shards then Ok ()
        else
          let sh = t.shards.(i) in
          (* only the flaky shard's TEE sees the fault plan *)
          let faults = if i = 0 then t.base.Deployment.faults else Fault.none in
          match
            Deployment.attest_storage_node ~shard:i ~faults
              ~location:storage_location monitor sh.sh_node sh.sh_booted
          with
          | Error e -> Error (Printf.sprintf "shard %d: %s" i e)
          | Ok () -> go (i + 1)
      in
      go 0

let attest_reliable ?host_location ?storage_location ?max_attempts t =
  Deployment.retry_attestation ?max_attempts ~also:(shard_nodes t) t.base
    (fun () -> attest ?host_location ?storage_location t)

(* -- gather operators -------------------------------------------------- *)

type agg_slot = {
  a_func : Sql.Ast.agg_func;
  a_label : string;
  a_width : int;  (* per-shard partial columns: 2 for AVG, else 1 *)
}

type merge_spec = {
  m_items : int;  (* original item count (prefix kept after merge) *)
  m_keys : (int * [ `Asc | `Desc ]) list;  (* appended key columns *)
  m_ord : int;  (* appended ord column (global tie-break) *)
  m_limit : int option;
  m_stmt : Sql.Ast.stmt;
}

type pagg_spec = { p_slots : agg_slot list; p_stmt : Sql.Ast.stmt }

type gather =
  | Concat  (* generic-exact: merge every shipped table by ord *)
  | Merge_sort of merge_spec
  | Partial_agg of pagg_spec

let single_table (q : Sql.Ast.select) =
  match q.Sql.Ast.from with
  | [ Sql.Ast.Table { table; _ } ] -> Some table
  | _ -> None

let schema_of catalog table =
  match Sql.Catalog.find_opt catalog table with
  | Some hf -> Some (Sql.Heap_file.schema hf)
  | None -> None

let column_ty schema name =
  let name = String.lowercase_ascii name in
  Array.to_list (Sql.Schema.columns schema)
  |> List.find_opt (fun c ->
         String.lowercase_ascii c.Sql.Schema.col_name = name)
  |> Option.map (fun c -> c.Sql.Schema.col_ty)

let clean_where (q : Sql.Ast.select) =
  match q.Sql.Ast.where with
  | None -> true
  | Some w ->
      (not (Sql.Ast.contains_subquery w)) && not (Sql.Ast.contains_agg w)

(* Partial-aggregation pushdown is exact only on a conservative shape:
   one table, global aggregates only (no GROUP BY / HAVING / ORDER BY /
   LIMIT), no DISTINCT, COUNT over anything, MIN/MAX over any column,
   SUM/AVG only over integer columns (integer partials recombine
   without rounding; AVG ships SUM+COUNT and recombines exactly). *)
let partial_agg_mode catalog (q : Sql.Ast.select) =
  match single_table q with
  | None -> None
  | Some table -> (
      if
        q.Sql.Ast.group_by <> []
        || q.Sql.Ast.having <> None
        || q.Sql.Ast.order_by <> []
        || q.Sql.Ast.limit <> None
        || not (clean_where q)
      then None
      else
        match schema_of catalog table with
        | None -> None
        | Some schema ->
            let slot i item =
              match item with
              | Sql.Ast.Item (Sql.Ast.Agg { func; distinct = false; arg }, _)
                ->
                  let arg_ok =
                    match arg with
                    | None -> func = Sql.Ast.Count
                    | Some (Sql.Ast.Col { name; _ }) -> (
                        match func with
                        | Sql.Ast.Sum | Sql.Ast.Avg ->
                            column_ty schema name = Some Sql.Value.TInt
                        | Sql.Ast.Min | Sql.Ast.Max | Sql.Ast.Count ->
                            column_ty schema name <> None)
                    | Some _ -> false
                  in
                  if not arg_ok then None
                  else
                    Some
                      {
                        a_func = func;
                        (* the executor's own output naming *)
                        a_label = Sql.Exec.output_name i item;
                        a_width =
                          (match func with Sql.Ast.Avg -> 2 | _ -> 1);
                      }
              | _ -> None
            in
            let slots = List.mapi slot q.Sql.Ast.items in
            if List.exists (( = ) None) slots || slots = [] then None
            else
              let slots = List.filter_map Fun.id slots in
              (* per-shard rewrite: AVG(c) ships SUM(c), COUNT(c) *)
              let sub_items =
                List.concat_map
                  (function
                    | Sql.Ast.Item
                        (Sql.Ast.Agg { func = Sql.Ast.Avg; distinct; arg }, _)
                      ->
                        [
                          Sql.Ast.Item
                            ( Sql.Ast.Agg
                                { func = Sql.Ast.Sum; distinct; arg },
                              None );
                          Sql.Ast.Item
                            ( Sql.Ast.Agg
                                { func = Sql.Ast.Count; distinct; arg },
                              None );
                        ]
                    | Sql.Ast.Item (e, _) -> [ Sql.Ast.Item (e, None) ]
                    | Sql.Ast.Star -> assert false)
                  q.Sql.Ast.items
              in
              Some
                (Partial_agg
                   {
                     p_slots = slots;
                     p_stmt =
                       Sql.Ast.Select { q with Sql.Ast.items = sub_items };
                   }))

(* k-way merge-sort gather: one table, explicit non-aggregate items,
   ORDER BY over plain schema columns that no item alias shadows (so
   the executor's alias substitution is the identity on the keys).
   Each shard sorts its partition (appending the key columns and the
   ord column); the host merges by (keys, ord) — exactly the
   single-node stable sort order, since shard-local row order is
   ord-increasing. *)
let merge_sort_mode catalog (q : Sql.Ast.select) =
  match single_table q with
  | None -> None
  | Some table -> (
      if
        q.Sql.Ast.group_by <> []
        || q.Sql.Ast.having <> None
        || q.Sql.Ast.order_by = []
        || not (clean_where q)
        || List.exists
             (function
               | Sql.Ast.Star -> true
               | Sql.Ast.Item (e, _) ->
                   Sql.Ast.contains_agg e || Sql.Ast.contains_subquery e)
             q.Sql.Ast.items
      then None
      else
        match schema_of catalog table with
        | None -> None
        | Some schema ->
            let aliases =
              List.filter_map
                (function
                  | Sql.Ast.Item (_, Some a) ->
                      Some (String.lowercase_ascii a)
                  | _ -> None)
                q.Sql.Ast.items
            in
            let key_col = function
              | Sql.Ast.Col { qualifier = None; name }, _ ->
                  column_ty schema name <> None
                  && not (List.mem (String.lowercase_ascii name) aliases)
              | _ -> false
            in
            if not (List.for_all key_col q.Sql.Ast.order_by) then None
            else
              let m_items = List.length q.Sql.Ast.items in
              let nkeys = List.length q.Sql.Ast.order_by in
              let m_keys =
                List.mapi
                  (fun j (_, dir) -> (m_items + j, dir))
                  q.Sql.Ast.order_by
              in
              let key_items =
                List.map
                  (fun (e, _) -> Sql.Ast.Item (e, None))
                  q.Sql.Ast.order_by
              in
              Some
                (Merge_sort
                   {
                     m_items;
                     m_keys;
                     m_ord = m_items + nkeys;
                     m_limit = q.Sql.Ast.limit;
                     m_stmt =
                       Sql.Ast.Select
                         {
                           q with
                           Sql.Ast.items =
                             q.Sql.Ast.items @ key_items
                             @ [
                                 Sql.Ast.Item
                                   ( Sql.Ast.Col
                                       { qualifier = None; name = "%ORD%" },
                                     None );
                               ];
                         };
                   }))

(* [merge_sort_mode] marks the ord column with a placeholder so the
   caller (which knows the cluster's fresh ord name) can substitute
   it; keeps the analysis independent of the instance. *)
let patch_ord_col ord = function
  | Merge_sort m ->
      let stmt =
        match m.m_stmt with
        | Sql.Ast.Select q ->
            Sql.Ast.Select
              {
                q with
                Sql.Ast.items =
                  List.map
                    (function
                      | Sql.Ast.Item
                          (Sql.Ast.Col { qualifier = None; name = "%ORD%" }, a)
                        ->
                          Sql.Ast.Item
                            (Sql.Ast.Col { qualifier = None; name = ord }, a)
                      | it -> it)
                    q.Sql.Ast.items;
              }
        | st -> st
      in
      Merge_sort { m with m_stmt = stmt }
  | g -> g

let choose_gather ord catalog (q : Sql.Ast.select) =
  let g =
    match partial_agg_mode catalog q with
    | Some g -> g
    | None -> (
        match merge_sort_mode catalog q with Some g -> g | None -> Concat)
  in
  patch_ord_col ord g

(* Which gather operator a query would use (EXPLAIN-style probe; used
   by the CLI and the tests to assert pushdown engages). *)
let gather_operator t sql =
  match Sql.Parser.parse sql with
  | Sql.Ast.Select q -> (
      let catalog = Sql.Database.catalog t.base.Deployment.plain_db in
      match choose_gather t.ord_col catalog q with
      | Concat -> "concat"
      | Merge_sort _ -> "merge-sort"
      | Partial_agg _ -> "partial-agg")
  | _ -> "none"
  | exception _ -> "none"

(* Per-shard sub-statements. The generic path re-parses the
   partitioner's own offload SQL and prepends the ord column, so the
   shard-side filter semantics are exactly the single-node offload's. *)
let per_shard_stmts ord (plan : Partitioner.plan) = function
  | Concat ->
      List.map
        (fun (_table, sql) ->
          match Sql.Parser.parse sql with
          | Sql.Ast.Select q ->
              Sql.Ast.Select
                {
                  q with
                  Sql.Ast.items =
                    Sql.Ast.Item
                      (Sql.Ast.Col { qualifier = None; name = ord }, None)
                    :: q.Sql.Ast.items;
                }
          | st -> st)
        plan.Partitioner.offload_sql
  | Merge_sort m -> [ m.m_stmt ]
  | Partial_agg p -> [ p.p_stmt ]

(* k-way merge of per-shard sorted row lists. [cmp] is total on rows
   from different shards (it ends on the globally-unique ord), so the
   merge is deterministic; equal prefixes resolve by insertion order,
   matching the single-node stable sort. *)
let kway_merge cmp (lists : Sql.Row.t list array) =
  let heads = Array.copy lists in
  let out = ref [] in
  let rec loop () =
    let best = ref (-1) in
    Array.iteri
      (fun i l ->
        match l with
        | [] -> ()
        | r :: _ -> (
            match !best with
            | -1 -> best := i
            | b -> (
                match heads.(b) with
                | rb :: _ -> if cmp r rb < 0 then best := i
                | [] -> assert false)))
      heads;
    match !best with
    | -1 -> List.rev !out
    | i -> (
        match heads.(i) with
        | r :: rest ->
            heads.(i) <- rest;
            out := r :: !out;
            loop ()
        | [] -> assert false)
  in
  loop ()

let cmp_ord (a : Sql.Row.t) (b : Sql.Row.t) =
  compare (Sql.Value.as_int a.(0)) (Sql.Value.as_int b.(0))

let take n l = List.filteri (fun i _ -> i < n) l

let zero_counters () = snd (Sql.Observer.counting ())

let sum_counters (cs : Sql.Observer.counters list) =
  let acc = zero_counters () in
  List.iter
    (fun (c : Sql.Observer.counters) ->
      acc.Sql.Observer.rows <- acc.Sql.Observer.rows + c.Sql.Observer.rows;
      acc.Sql.Observer.page_reads <-
        acc.Sql.Observer.page_reads + c.Sql.Observer.page_reads;
      acc.Sql.Observer.page_hits <-
        acc.Sql.Observer.page_hits + c.Sql.Observer.page_hits;
      acc.Sql.Observer.page_writes <-
        acc.Sql.Observer.page_writes + c.Sql.Observer.page_writes;
      acc.Sql.Observer.bytes_allocated <-
        acc.Sql.Observer.bytes_allocated + c.Sql.Observer.bytes_allocated)
    cs;
  acc

type shard_run = {
  sr_results : Sql.Exec.result list;
  sr_counters : Sql.Observer.counters;
  sr_bytes : int;  (* encoded size of the rows this shard shipped *)
}

(* Reassemble each shipped table in exact single-node row order by
   merging the shard streams on the hidden ord column, then strip it.
   The reconstructed offload phase is bitwise what the single-node
   storage engine would have shipped. *)
let gather_concat (plan : Partitioner.plan) ~counters (runs : shard_run array) =
  let results =
    List.mapi
      (fun ti (st : Partitioner.shipped_table) ->
        let lists =
          Array.map
            (fun r -> (List.nth r.sr_results ti).Sql.Exec.rows)
            runs
        in
        let merged = kway_merge cmp_ord lists in
        let rows =
          List.map (fun r -> Array.sub r 1 (Array.length r - 1)) merged
        in
        let bytes =
          List.fold_left (fun a row -> a + Sql.Row.encoded_size row) 0 rows
        in
        {
          Storage_engine.off_table = st.Partitioner.table;
          off_rows = rows;
          off_bytes = bytes;
        })
      plan.Partitioner.shipped
  in
  {
    Storage_engine.results;
    counters;
    bytes_shipped =
      List.fold_left (fun a r -> a + r.Storage_engine.off_bytes) 0 results;
  }

let gather_merge_sort m (runs : shard_run array) =
  let lists =
    Array.map (fun r -> (List.hd r.sr_results).Sql.Exec.rows) runs
  in
  let cmp (a : Sql.Row.t) (b : Sql.Row.t) =
    let rec go = function
      | [] ->
          compare
            (Sql.Value.as_int a.(m.m_ord))
            (Sql.Value.as_int b.(m.m_ord))
      | (j, dir) :: rest ->
          let c = Sql.Value.compare_total a.(j) b.(j) in
          let c = match dir with `Asc -> c | `Desc -> -c in
          if c <> 0 then c else go rest
    in
    go m.m_keys
  in
  let merged = kway_merge cmp lists in
  let merged =
    match m.m_limit with Some n -> take n merged | None -> merged
  in
  let columns = take m.m_items (List.hd runs.(0).sr_results).Sql.Exec.columns in
  {
    Sql.Exec.columns;
    rows = List.map (fun r -> Array.sub r 0 m.m_items) merged;
  }

(* Partial recombination through the executor's own accumulators
   ({!Sql.Agg_state}), so NULL skipping, SUM's first-non-null start and
   MIN/MAX's strict replacement are exactly the single-node semantics:
   COUNT sums the per-shard counts; AVG divides the recombined integer
   SUM by the recombined COUNT in one float division (integer partials
   below 2^53 accumulate exactly, so this equals the single-node float
   accumulator). *)
let gather_partial slots (runs : shard_run array) =
  let shard_rows =
    Array.to_list runs
    |> List.concat_map (fun r -> (List.hd r.sr_results).Sql.Exec.rows)
  in
  let fold func j =
    let acc = Sql.Agg_state.create func ~distinct:false in
    List.iter
      (fun (r : Sql.Row.t) -> Sql.Agg_state.update_value acc r.(j))
      shard_rows;
    Sql.Agg_state.finish acc
  in
  let col = ref 0 in
  let values =
    List.map
      (fun s ->
        let base = !col in
        col := !col + s.a_width;
        match s.a_func with
        | Sql.Ast.Count -> fold Sql.Ast.Sum base
        | Sql.Ast.Sum | Sql.Ast.Min | Sql.Ast.Max -> fold s.a_func base
        | Sql.Ast.Avg -> (
            match Sql.Value.as_int (fold Sql.Ast.Sum (base + 1)) with
            | 0 -> Sql.Value.Null
            | n ->
                Sql.Value.Float
                  (Sql.Value.as_float (fold Sql.Ast.Sum base)
                  /. float_of_int n)))
      slots
  in
  {
    Sql.Exec.columns = List.map (fun s -> s.a_label) slots;
    rows = [ Array.of_list values ];
  }

(* -- scatter-gather execution ------------------------------------------ *)

let shard_db config sh =
  match config with
  | Config.Hons | Config.Vcs -> sh.sh_plain_db
  | Config.Hos | Config.Scs | Config.Sos -> sh.sh_secure_db

let run_scatter ?(reset = true) ?project t config (q : Sql.Ast.select) stmt =
  let d = t.base in
  if reset then reset_counters t;
  let host = d.Deployment.host in
  let catalog = Sql.Database.catalog d.Deployment.plain_db in
  let plan = Partitioner.split ?project catalog stmt in
  let mode = choose_gather t.ord_col catalog q in
  let sub_stmts = per_shard_stmts t.ord_col plan mode in
  let exec () =
    (* scatter: each shard really executes its sub-plan on its own
       replica (plain or secure per the configuration) *)
    let runs =
      Array.map
        (fun sh ->
          let db = shard_db config sh in
          let results, counters =
            Runner.with_counters db (fun () ->
                List.map
                  (fun st ->
                    match Sql.Database.exec_ast db st with
                    | Sql.Database.Result r -> r
                    | _ -> { Sql.Exec.columns = []; rows = [] })
                  sub_stmts)
          in
          let bytes =
            List.fold_left
              (fun acc (r : Sql.Exec.result) ->
                List.fold_left
                  (fun a row -> a + Sql.Row.encoded_size row)
                  acc r.Sql.Exec.rows)
              0 results
          in
          { sr_results = results; sr_counters = counters; sr_bytes = bytes })
        t.shards
    in
    (* forensics fan-out: one plan.split event per shard *)
    if Obs.enabled () then
      Array.iter
        (fun sh ->
          Obs.event ~scope:"cluster" ~kind:"plan.split"
            [
              ("config", Ev.S (Config.abbrev config));
              ("shard", Ev.I sh.sh_id);
              ("offload_stmts", Ev.I (List.length sub_stmts));
              ( "tables",
                Ev.S
                  (String.concat ","
                     (List.map fst plan.Partitioner.offload_sql)) );
            ])
        t.shards;
    let totals =
      sum_counters (Array.to_list (Array.map (fun r -> r.sr_counters) runs))
    in
    let gathered_rows =
      Array.fold_left
        (fun acc r ->
          List.fold_left
            (fun a (res : Sql.Exec.result) -> a + List.length res.Sql.Exec.rows)
            acc r.sr_results)
        0 runs
    in
    (* gather + host portion *)
    let result, hc =
      match mode with
      | Concat ->
          let offload = gather_concat plan ~counters:totals runs in
          let h = Host_engine.run_host ~storage_catalog:catalog plan offload in
          (h.Host_engine.result, h.Host_engine.counters)
      | Merge_sort m -> (gather_merge_sort m runs, zero_counters ())
      | Partial_agg p -> (gather_partial p.p_slots runs, zero_counters ())
    in
    (* every shard is a contended storage server on its own lane,
       charged the single-node storage share of its slice *)
    let shipped =
      Array.mapi
        (fun i sh ->
          let shard_t0 = Sim.Node.now sh.sh_node in
          let share =
            Runner.storage_share d config ~storage:sh.sh_node
              ~store:sh.sh_store ~sessions:(List.length sub_stmts)
              ~shipped:runs.(i).sr_bytes runs.(i).sr_counters
          in
          (* per-shard scatter latency: virtual time this shard spent on
             its slice, observed under the shard node's own scope so the
             gather side can merge the distributions exactly *)
          if Obs.enabled () then
            Obs.observe
              ~scope:(Sim.Node.name sh.sh_node)
              "scatter_latency_ns"
              (Sim.Node.now sh.sh_node -. shard_t0);
          share)
        t.shards
    in
    let shard_rows = totals.Sql.Observer.rows in
    let total_pages = totals.Sql.Observer.page_reads in
    (* host side: gather/merge work, plus the config's enclave costs;
       under hons/hos the host does every row step itself *)
    let host_rows = hc.Sql.Observer.rows + gathered_rows in
    Runner.host_share d config
      ~rows:
        (match config with
        | Config.Hons | Config.Hos -> shard_rows + host_rows
        | Config.Vcs | Config.Scs | Config.Sos -> host_rows)
      ~pages:total_pages
      ~messages:(Array.fold_left (fun a (_, m) -> a + m) 0 shipped)
      ~working_set:
        (match config with
        | Config.Hos ->
            hc.Sql.Observer.bytes_allocated
            + totals.Sql.Observer.bytes_allocated
            + Array.fold_left
                (fun a sh -> a + Runner.merkle_bytes sh.sh_store)
                0 t.shards
        | _ -> hc.Sql.Observer.bytes_allocated);
    Array.iter
      (fun sh ->
        Sim.Clock.sync (Sim.Node.clock host) (Sim.Node.clock sh.sh_node) 0.0)
      t.shards;
    {
      Runner.config;
      end_to_end_ns = Sim.Node.now host;
      host_breakdown = Sim.Trace.breakdown (Sim.Node.trace host);
      storage_breakdown =
        (let merged = Sim.Trace.create () in
         Array.iter
           (fun sh -> Sim.Trace.merge ~into:merged (Sim.Node.trace sh.sh_node))
           t.shards;
         Sim.Trace.breakdown merged);
      bytes_shipped = Array.fold_left (fun a (b, _) -> a + b) 0 shipped;
      pages_scanned = total_pages;
      page_hits = totals.Sql.Observer.page_hits;
      host_rows;
      storage_rows = shard_rows;
      affected = 0;
      result;
      profile = None;
    }
  in
  Runner.with_query ~attrs:[ ("shards", string_of_int t.nshards) ] d config exec

(* Shard replicas are read-only: on N > 1 shards only SELECT runs *)
let read_only t = function
  | Sql.Ast.Select _ -> None
  | _ when t.nshards = 1 -> None
  | _ ->
      Some
        {
          Runner.v_site = "cluster.read_only";
          v_detail =
            Printf.sprintf
              "shard replicas are read-only; only SELECT runs on %d shards"
              t.nshards;
        }

let run_stmt ?reset ?project t config stmt =
  match stmt with
  | _ when t.nshards = 1 -> Runner.run_stmt ?reset ?project t.base config stmt
  | Sql.Ast.Select q -> run_scatter ?reset ?project t config q stmt
  | _ ->
      invalid_arg
        "Cluster.run_stmt: shard replicas are read-only; only SELECT can \
         run with shards > 1"

let run_query t config sql = run_stmt t config (Sql.Parser.parse sql)

(* Fault-aware execution through the single-node outcome wrapper: a
   write on shard replicas is refused before the wrapper's fault
   bookkeeping, an unattested shard rejects the query before it
   scatters, the TEE faults strike in pre-flight as on one node (a
   failed world switch is retried on the flaky shard, the one the plan
   strikes; every storage node waits out a pre-flight stall with the
   host), and a flaky shard degrades or rejects the query. *)
let run_stmt_outcome ?(reset = true) ?project t config stmt =
  if reset then reset_counters t;
  let admit () =
    let attested =
      Monitor.Trusted_monitor.attested_storage_nodes t.base.Deployment.monitor
    in
    match stmt with
    | Sql.Ast.Select _ ->
        shard_device_ids t
        |> List.find_map (fun id ->
               if List.mem id attested then None
               else
                 Some
                   {
                     Runner.v_site = "cluster.attest";
                     v_detail =
                       Printf.sprintf "shard device %s is not attested" id;
                   })
    | _ -> None
  in
  let nodes = storage_nodes t in
  match read_only t stmt with
  | Some v -> Runner.Rejected v
  | None ->
      Runner.with_outcome ~admit ~storage:(List.hd nodes) ~peers:nodes t.base
        config (fun () -> run_stmt ~reset:false ?project t config stmt)

let run_query_outcome t config sql =
  run_stmt_outcome t config (Sql.Parser.parse sql)

let engine t =
  Ironsafe.Engine.over t.base
    {
      Ironsafe.Engine.attest = (fun () -> attest_reliable t);
      reset_counters = (fun () -> reset_counters t);
      nodes = storage_nodes t;
      device_ids = storage_device_ids t;
      admit = read_only t;
      run = (fun config stmt -> run_stmt_outcome ~reset:false t config stmt);
    }

(* -- merged scatter-latency distribution ------------------------------- *)

(* Every shard's scatter phase observes its virtual-time slice into a
   per-shard-scope histogram ([<node>/scatter_latency_ns]); the gather
   side folds those views with the exact bucket-wise merge, so the
   combined percentile table equals one histogram that watched every
   shard's stream. *)
let scatter_latency_view t =
  let snap = Ironsafe_obs.Metrics.snapshot Ironsafe_obs.Metrics.default in
  Array.fold_left
    (fun acc sh ->
      match
        Ironsafe_obs.Metrics.value snap
          ~scope:(Sim.Node.name sh.sh_node)
          "scatter_latency_ns"
      with
      | Some (Ironsafe_obs.Metrics.VHist v) ->
          Ironsafe_obs.Histogram.merge acc v
      | _ -> acc)
    Ironsafe_obs.Histogram.empty_view t.shards

let scatter_latency_table t =
  let module H = Ironsafe_obs.Histogram in
  let buf = Buffer.create 256 in
  let line scope (v : H.view) =
    Buffer.add_string buf
      (Printf.sprintf "%-12s n=%-6d p50=%.3fms p95=%.3fms p99=%.3fms\n"
         scope v.H.v_count
         (H.percentile_of_view v 50.0 /. 1e6)
         (H.percentile_of_view v 95.0 /. 1e6)
         (H.percentile_of_view v 99.0 /. 1e6))
  in
  let snap = Ironsafe_obs.Metrics.snapshot Ironsafe_obs.Metrics.default in
  Array.iter
    (fun sh ->
      let scope = Sim.Node.name sh.sh_node in
      match
        Ironsafe_obs.Metrics.value snap ~scope "scatter_latency_ns"
      with
      | Some (Ironsafe_obs.Metrics.VHist v) -> line scope v
      | _ -> ())
    t.shards;
  line "merged" (scatter_latency_view t);
  Buffer.contents buf
