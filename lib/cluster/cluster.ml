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

   With [shards = 1] everything — execution, charging, spans, events —
   delegates to the single-node {!Ironsafe.Runner}, so a one-shard
   cluster is byte-identical to no cluster at all. *)

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
  sh_rpmb : Storage.Rpmb.t;
  sh_store : Sec.Secure_store.t;
  sh_plain_db : Sql.Database.t;
  sh_secure_db : Sql.Database.t;
}

type t = {
  base : Deployment.t;
  scheme : Partitioner.scheme;
  shards : shard array;  (* empty when nshards = 1: pure delegation *)
  nshards : int;
  ord_col : string;  (* hidden leading insertion-index column *)
}

let nshards t = t.nshards
let base t = t.base
let scheme t = t.scheme
let ord_column t = t.ord_col
let shard_nodes t = Array.to_list (Array.map (fun sh -> sh.sh_node) t.shards)

(* The exact value the workload scheduler's [?storage_nodes] expects:
   [None] for a single node (legacy server names, byte-identical
   replay), the shard node list otherwise. One definition so bench
   sweeps and tests cannot disagree on the mapping. *)
let sched_storage_nodes t =
  match shard_nodes t with [] -> None | l -> Some l

let shard_device_ids t =
  Array.to_list (Array.map (fun sh -> Tee.Trustzone.device_id sh.sh_tz) t.shards)

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
    let page_mode = Sec.Secure_store.page_mode base.Deployment.secure_store in
    let images = [ Deployment.atf_image; Deployment.optee_image ] in
    (* per-shard TrustZone identity + empty plain replica *)
    let protos =
      Array.init n (fun i ->
          let node =
            Sim.Node.create ~cores:storage_cores ~params
              ~name:(Printf.sprintf "shard%d" i)
              Sim.Cpu.Storage_arm
          in
          let tz =
            Tee.Trustzone.manufacture ~location:storage_location
              ~device_id:
                (Printf.sprintf "clearfog-cx-lx2k-c%d-shard%d" instance i)
              base.Deployment.drbg
          in
          Tee.Trustzone.provision tz images;
          let booted =
            match
              Tee.Trustzone.secure_boot tz ~secure_stages:images
                ~normal_world:base.Deployment.storage_nw_image
            with
            | Ok b -> b
            | Error e ->
                invalid_arg ("Cluster.create: secure boot failed: " ^ e)
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
          let plain_pages =
            Sql.Catalog.total_pages (Sql.Database.catalog plain_db)
          in
          let data_pages = plain_pages + (plain_pages / 4) + 64 in
          let device =
            Storage.Block_device.create
              ~pages:(Sec.Secure_store.device_pages_for ~data_pages)
          in
          let rpmb = Storage.Rpmb.create () in
          let store =
            match
              Sec.Secure_store.initialize ~device ~rpmb
                ~hardware_key:(Tee.Trustzone.hardware_key tz) ~page_mode
                ~data_pages ~drbg:base.Deployment.drbg ()
            with
            | Ok s -> s
            | Error e ->
                invalid_arg
                  (Fmt.str "Cluster.create: secure store init failed: %a"
                     Sec.Secure_store.pp_error e)
          in
          let secure_db = Sql.Database.create ~pager:(Sql.Pager.secure store) in
          Deployment.copy_database plain_db secure_db;
          Sec.Secure_store.reset_stats store;
          Storage.Block_device.reset_counters device;
          Monitor.Trusted_monitor.trust_storage_device base.Deployment.monitor
            ~device_id:(Tee.Trustzone.device_id tz)
            ~rotpk:(Tee.Trustzone.rotpk tz)
            ~normal_world:base.Deployment.storage_nw_image
            ~version:storage_version;
          (* the shared fault plan strikes one shard's secure medium
             (the flaky shard); the rest stay pristine so a faulted
             cluster degrades or rejects, never answers wrongly *)
          let faults = base.Deployment.faults in
          if i = 0 && Fault.enabled faults then begin
            Storage.Block_device.set_faults device faults;
            Storage.Rpmb.set_faults rpmb faults;
            Sec.Secure_store.set_faults store faults
          end;
          let mode = Deployment.exec_mode base in
          Sql.Database.set_exec_mode plain_db mode;
          Sql.Database.set_exec_mode secure_db mode;
          {
            sh_id = i;
            sh_node = node;
            sh_tz = tz;
            sh_booted = booted;
            sh_device = device;
            sh_rpmb = rpmb;
            sh_store = store;
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
      let faults = t.base.Deployment.faults in
      let rec go i =
        if i >= Array.length t.shards then Ok ()
        else
          let sh = t.shards.(i) in
          let shard_faults = if i = 0 then faults else Fault.none in
          match
            Sim.Node.with_span sh.sh_node ~name:"attest.storage" (fun () ->
                let challenge =
                  Monitor.Trusted_monitor.fresh_challenge monitor
                in
                let response =
                  Tee.Trustzone.attest ~faults:shard_faults sh.sh_booted
                    ~challenge
                in
                Monitor.Trusted_monitor.attest_storage ~shard:i monitor
                  ~challenge ~response ~location:storage_location)
          with
          | Error e -> Error (Printf.sprintf "shard %d: %s" i e)
          | Ok _ -> go (i + 1)
      in
      go 0

let attest_reliable ?host_location ?storage_location ?(max_attempts = 5) t =
  let faults = t.base.Deployment.faults in
  let mark = Fault.incident_count faults in
  let rec attempt n =
    match attest ?host_location ?storage_location t with
    | Ok () ->
        if n > 0 then Fault.note_recovered_since faults mark;
        Ok ()
    | Error e when Fault.enabled faults && n + 1 < max_attempts ->
        ignore e;
        Fault.note_retry faults ~action:"attest";
        Fault.note_reattestation faults;
        let wait =
          Fault.backoff_ns
            ~base_ns:t.base.Deployment.params.Sim.Params.net_latency_ns
            ~attempt:n
        in
        Sim.Node.fixed t.base.Deployment.host ~category:"recovery" wait;
        Sim.Node.fixed t.base.Deployment.storage ~category:"recovery" wait;
        Array.iter
          (fun sh -> Sim.Node.fixed sh.sh_node ~category:"recovery" wait)
          t.shards;
        attempt (n + 1)
    | Error e ->
        Fault.note_rejected faults;
        Error e
  in
  attempt 0

(* Every shard's device must satisfy the execution policy the monitor
   evaluated; one non-compliant shard fails the whole cluster query. *)
let policy_compliant t (auth : Monitor.Trusted_monitor.authorization) =
  Array.for_all
    (fun sh ->
      List.mem
        (Tee.Trustzone.device_id sh.sh_tz)
        auth.Monitor.Trusted_monitor.auth_compliant_storage)
    t.shards

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

(* Replicates the executor's output naming so direct gather results
   carry the same column labels as a single-node run. *)
let output_label i (item : Sql.Ast.select_item) =
  match item with
  | Sql.Ast.Item (_, Some alias) -> String.lowercase_ascii alias
  | Sql.Ast.Item (Sql.Ast.Col { name; _ }, None) -> String.lowercase_ascii name
  | Sql.Ast.Item (Sql.Ast.Agg { func; _ }, None) -> (
      match func with
      | Sql.Ast.Sum -> "sum"
      | Sql.Ast.Avg -> "avg"
      | Sql.Ast.Min -> "min"
      | Sql.Ast.Max -> "max"
      | Sql.Ast.Count -> "count")
  | Sql.Ast.Item (_, None) -> Printf.sprintf "col%d" (i + 1)
  | Sql.Ast.Star -> invalid_arg "Cluster.output_label: Star"

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
                        a_label = output_label i item;
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

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let sum_counters (cs : Sql.Observer.counters list) =
  let acc =
    {
      Sql.Observer.rows = 0;
      page_reads = 0;
      page_hits = 0;
      page_writes = 0;
      bytes_allocated = 0;
      batches = 0;
    }
  in
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
        acc.Sql.Observer.bytes_allocated + c.Sql.Observer.bytes_allocated;
      acc.Sql.Observer.batches <-
        acc.Sql.Observer.batches + c.Sql.Observer.batches)
    cs;
  acc

let zero_counters () =
  {
    Sql.Observer.rows = 0;
    page_reads = 0;
    page_hits = 0;
    page_writes = 0;
    bytes_allocated = 0;
    batches = 0;
  }

type shard_run = {
  sr_results : Sql.Exec.result list;
  sr_counters : Sql.Observer.counters;
  sr_crypto : int * int * int * int;  (* decrypts, macs, merkle, rpmb *)
  sr_bytes : int;  (* encoded size of the rows this shard shipped *)
}

(* Reassemble each shipped table in exact single-node row order by
   merging the shard streams on the hidden ord column, then strip it.
   The reconstructed offload phase is bitwise what the single-node
   storage engine would have shipped. *)
let gather_concat (plan : Partitioner.plan) (runs : shard_run array) =
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
    counters =
      sum_counters
        (Array.to_list (Array.map (fun r -> r.sr_counters) runs));
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

(* NULL-skipping partial recombination, matching the executor's
   accumulator semantics exactly: SUM folds with [Value.arith `Add]
   from the first non-null partial; MIN/MAX replace on strict
   comparison; COUNT is an integer sum; AVG divides the recombined
   integer SUM by the recombined COUNT in one float division (integer
   partials below 2^53 accumulate exactly, so this equals the
   single-node float accumulator). *)
let gather_partial slots (runs : shard_run array) =
  let shard_rows =
    Array.to_list runs
    |> List.concat_map (fun r -> (List.hd r.sr_results).Sql.Exec.rows)
  in
  let add acc v =
    if v = Sql.Value.Null then acc
    else if acc = Sql.Value.Null then v
    else Sql.Value.arith `Add acc v
  in
  let col = ref 0 in
  let values =
    List.map
      (fun s ->
        let base = !col in
        col := !col + s.a_width;
        match s.a_func with
        | Sql.Ast.Count ->
            Sql.Value.Int
              (List.fold_left
                 (fun acc (r : Sql.Row.t) ->
                   acc + Sql.Value.as_int r.(base))
                 0 shard_rows)
        | Sql.Ast.Sum ->
            List.fold_left
              (fun acc (r : Sql.Row.t) -> add acc r.(base))
              Sql.Value.Null shard_rows
        | Sql.Ast.Min ->
            List.fold_left
              (fun acc (r : Sql.Row.t) ->
                let v = r.(base) in
                if v = Sql.Value.Null then acc
                else
                  match Sql.Value.compare_opt v acc with
                  | Some c when c < 0 -> v
                  | Some _ -> acc
                  | None -> v)
              Sql.Value.Null shard_rows
        | Sql.Ast.Max ->
            List.fold_left
              (fun acc (r : Sql.Row.t) ->
                let v = r.(base) in
                if v = Sql.Value.Null then acc
                else
                  match Sql.Value.compare_opt v acc with
                  | Some c when c > 0 -> v
                  | Some _ -> acc
                  | None -> v)
              Sql.Value.Null shard_rows
        | Sql.Ast.Avg ->
            let total =
              List.fold_left
                (fun acc (r : Sql.Row.t) -> add acc r.(base))
                Sql.Value.Null shard_rows
            in
            let n =
              List.fold_left
                (fun acc (r : Sql.Row.t) ->
                  acc + Sql.Value.as_int r.(base + 1))
                0 shard_rows
            in
            if n = 0 then Sql.Value.Null
            else
              Sql.Value.Float
                (Sql.Value.as_float total /. float_of_int n))
      slots
  in
  {
    Sql.Exec.columns = List.map (fun s -> s.a_label) slots;
    rows = [ Array.of_list values ];
  }

(* -- scatter-gather execution ------------------------------------------ *)

let merge_breakdowns bds =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (List.iter (fun (k, v) ->
         match Hashtbl.find_opt tbl k with
         | Some x -> Hashtbl.replace tbl k (x +. v)
         | None ->
             Hashtbl.replace tbl k v;
             order := k :: !order))
    bds;
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order

let shard_db config sh =
  match config with
  | Config.Hons | Config.Vcs -> sh.sh_plain_db
  | Config.Hos | Config.Scs | Config.Sos -> sh.sh_secure_db

let run_scatter ?(reset = true) ?project t config (q : Sql.Ast.select) stmt =
  let d = t.base in
  let params = d.Deployment.params in
  if reset then reset_counters t;
  let host = d.Deployment.host in
  let lanes =
    match Sec.Secure_store.page_mode d.Deployment.secure_store with
    | Sec.Secure_store.Ctr -> params.Sim.Params.crypto_lanes
    | Sec.Secure_store.Cbc -> 1
  in
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
          let crypto =
            match config with
            | Config.Hos | Config.Scs | Config.Sos ->
                Runner.snapshot_secure_stats sh.sh_store
            | Config.Hons | Config.Vcs -> (0, 0, 0, 0)
          in
          let bytes =
            List.fold_left
              (fun acc (r : Sql.Exec.result) ->
                List.fold_left
                  (fun a row -> a + Sql.Row.encoded_size row)
                  acc r.Sql.Exec.rows)
              0 results
          in
          { sr_results = results; sr_counters = counters; sr_crypto = crypto;
            sr_bytes = bytes })
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
    let gathered_rows =
      Array.fold_left
        (fun acc r ->
          acc
          + List.fold_left
              (fun a (res : Sql.Exec.result) ->
                a + List.length res.Sql.Exec.rows)
              0 r.sr_results)
        0 runs
    in
    (* gather + host portion *)
    let result, hc =
      match mode with
      | Concat ->
          let offload = gather_concat plan runs in
          let h =
            Host_engine.run_host
              ~exec_mode:(Deployment.exec_mode d)
              ~storage_catalog:catalog plan offload
          in
          (h.Host_engine.result, h.Host_engine.counters)
      | Merge_sort m -> (gather_merge_sort m runs, zero_counters ())
      | Partial_agg p -> (gather_partial p.p_slots runs, zero_counters ())
    in
    (* charging: every shard is a contended storage server on its own
       lane; the same cost categories and constants as the single-node
       arms, scattered per shard, plus the host's gather work *)
    let bytes_shipped = ref 0 in
    Array.iteri
      (fun i sh ->
        let r = runs.(i) in
        let c = r.sr_counters in
        let pages = c.Sql.Observer.page_reads in
        let hits = c.Sql.Observer.page_hits in
        let decrypts, macs, merkle, rpmb = r.sr_crypto in
        let shard_t0 = Sim.Node.now sh.sh_node in
        Runner.with_offload host sh.sh_node (fun () ->
            match config with
            | Config.Hons ->
                let bytes = pages * params.Sim.Params.page_size in
                bytes_shipped := !bytes_shipped + bytes;
                Runner.charge_io sh.sh_node params pages;
                Runner.charge_cache_hits host params hits;
                Runner.charge_transfer params sh.sh_node host ~secure:false
                  ~bytes ~messages:(Runner.message_count params bytes)
            | Config.Hos ->
                let bytes = pages * params.Sim.Params.page_size in
                bytes_shipped := !bytes_shipped + bytes;
                Runner.charge_io sh.sh_node params pages;
                Runner.charge_cache_hits host params hits;
                Runner.charge_transfer params sh.sh_node host ~secure:true
                  ~bytes ~messages:(Runner.message_count params bytes);
                (* crypto happens inside the host enclave *)
                Runner.charge_crypto ~lanes host params ~decrypts ~macs
                  ~merkle ~rpmb
            | Config.Vcs ->
                bytes_shipped := !bytes_shipped + r.sr_bytes;
                Runner.charge_io sh.sh_node params pages;
                Runner.charge_cache_hits sh.sh_node params hits;
                Sim.Node.charge sh.sh_node ~category:"other"
                  (float_of_int (List.length sub_stmts)
                  *. params.Sim.Params.offload_session_ns);
                Runner.charge_compute sh.sh_node ~rows:c.Sql.Observer.rows
                  ~batches:c.Sql.Observer.batches;
                Runner.charge_memory sh.sh_node ~category:"spill"
                  c.Sql.Observer.bytes_allocated;
                Runner.charge_transfer params sh.sh_node host ~secure:false
                  ~bytes:r.sr_bytes
                  ~messages:(Runner.message_count params r.sr_bytes)
            | Config.Scs ->
                bytes_shipped := !bytes_shipped + r.sr_bytes;
                Sim.Node.charge sh.sh_node ~category:"other"
                  (float_of_int (List.length sub_stmts)
                  *. params.Sim.Params.offload_session_ns);
                Runner.charge_io sh.sh_node params pages;
                Runner.charge_cache_hits sh.sh_node params hits;
                Runner.charge_crypto ~lanes sh.sh_node params ~decrypts ~macs
                  ~merkle ~rpmb;
                Runner.charge_compute sh.sh_node ~rows:c.Sql.Observer.rows
                  ~batches:c.Sql.Observer.batches;
                Runner.charge_memory sh.sh_node ~category:"spill"
                  c.Sql.Observer.bytes_allocated;
                Runner.charge_transfer params sh.sh_node host ~secure:true
                  ~bytes:r.sr_bytes
                  ~messages:(Runner.message_count params r.sr_bytes)
            | Config.Sos ->
                bytes_shipped := !bytes_shipped + r.sr_bytes;
                Runner.charge_io sh.sh_node params pages;
                Runner.charge_cache_hits sh.sh_node params hits;
                Runner.charge_crypto ~parallel:false ~lanes sh.sh_node params
                  ~decrypts ~macs ~merkle ~rpmb;
                Sim.Node.compute_serial sh.sh_node ~category:"ndp"
                  ~row_ops:c.Sql.Observer.rows;
                Runner.charge_memory sh.sh_node ~category:"spill"
                  c.Sql.Observer.bytes_allocated;
                Runner.charge_transfer params sh.sh_node host ~secure:true
                  ~bytes:r.sr_bytes ~messages:1);
        (* per-shard scatter latency: virtual time this shard spent on
           its slice, observed under the shard node's own scope so the
           gather side can merge the distributions exactly *)
        if Obs.enabled () then
          Obs.observe
            ~scope:(Sim.Node.name sh.sh_node)
            "scatter_latency_ns"
            (Sim.Node.now sh.sh_node -. shard_t0))
      t.shards;
    let shard_rows =
      Array.fold_left
        (fun a r -> a + r.sr_counters.Sql.Observer.rows)
        0 runs
    in
    let shard_batches =
      Array.fold_left
        (fun a r -> a + r.sr_counters.Sql.Observer.batches)
        0 runs
    in
    let shard_allocs =
      Array.fold_left
        (fun a r -> a + r.sr_counters.Sql.Observer.bytes_allocated)
        0 runs
    in
    let total_pages =
      Array.fold_left
        (fun a r -> a + r.sr_counters.Sql.Observer.page_reads)
        0 runs
    in
    let total_hits =
      Array.fold_left
        (fun a r -> a + r.sr_counters.Sql.Observer.page_hits)
        0 runs
    in
    (* host side: gather/merge work, plus the config's enclave costs *)
    (match config with
    | Config.Hons ->
        (* host-only semantics: all row work is host work *)
        Runner.charge_compute host
          ~rows:(shard_rows + gathered_rows + hc.Sql.Observer.rows)
          ~batches:(shard_batches + hc.Sql.Observer.batches)
    | Config.Hos ->
        Runner.charge_compute host
          ~rows:(shard_rows + gathered_rows + hc.Sql.Observer.rows)
          ~batches:(shard_batches + hc.Sql.Observer.batches);
        Runner.charge_enclave_transitions host params (2 * total_pages);
        let merkle_ws =
          Array.fold_left
            (fun a sh -> a + Runner.merkle_bytes sh.sh_store)
            0 t.shards
        in
        Runner.charge_epc host d.Deployment.host_enclave params
          ~working_set:
            (hc.Sql.Observer.bytes_allocated + shard_allocs + merkle_ws)
          ~accesses:(3 * total_pages)
    | Config.Vcs ->
        Runner.charge_compute host
          ~rows:(hc.Sql.Observer.rows + gathered_rows)
          ~batches:hc.Sql.Observer.batches
    | Config.Scs ->
        Runner.charge_compute host
          ~rows:(hc.Sql.Observer.rows + gathered_rows)
          ~batches:hc.Sql.Observer.batches;
        let msgs =
          Array.fold_left
            (fun a r -> a + Runner.message_count params r.sr_bytes)
            0 runs
        in
        Runner.charge_enclave_transitions host params (2 * msgs);
        Runner.charge_epc host d.Deployment.host_enclave params
          ~working_set:hc.Sql.Observer.bytes_allocated ~accesses:msgs
    | Config.Sos ->
        Runner.charge_compute host
          ~rows:(hc.Sql.Observer.rows + gathered_rows)
          ~batches:hc.Sql.Observer.batches);
    Array.iter
      (fun sh ->
        Sim.Clock.sync (Sim.Node.clock host) (Sim.Node.clock sh.sh_node) 0.0)
      t.shards;
    {
      Runner.config;
      end_to_end_ns = Sim.Node.now host;
      host_breakdown = Sim.Trace.breakdown (Sim.Node.trace host);
      storage_breakdown =
        merge_breakdowns
          (Array.to_list
             (Array.map
                (fun sh -> Sim.Trace.breakdown (Sim.Node.trace sh.sh_node))
                t.shards));
      bytes_shipped = !bytes_shipped;
      pages_scanned = total_pages;
      page_hits = total_hits;
      host_rows = hc.Sql.Observer.rows + gathered_rows;
      storage_rows = shard_rows;
      affected = 0;
      result;
      profile = None;
    }
  in
  let tok = Obs.begin_query () in
  let m =
    Sim.Node.with_span host ~name:"query"
      ~attrs:
        (("config", Config.abbrev config)
        :: ("shards", string_of_int t.nshards)
        :: Obs.trace_attrs ())
      exec
  in
  if Obs.enabled () then
    Obs.event ~scope:"core" ~kind:"query.done"
      [
        ("config", Ev.S (Config.abbrev config));
        ("end_to_end_ns", Ev.F m.Runner.end_to_end_ns);
        ("bytes_shipped", Ev.I m.Runner.bytes_shipped);
        ("pages", Ev.I m.Runner.pages_scanned);
        ("rows", Ev.I (List.length m.Runner.result.Sql.Exec.rows));
      ];
  match Obs.finish_query tok with
  | Some p -> { m with Runner.profile = Some p }
  | None -> m

let run_stmt ?reset ?project t config stmt =
  if t.nshards = 1 then Runner.run_stmt ?reset ?project t.base config stmt
  else
    match stmt with
    | Sql.Ast.Select q -> run_scatter ?reset ?project t config q stmt
    | _ ->
        invalid_arg
          "Cluster.run_stmt: shard replicas are read-only; only SELECT can \
           run with shards > 1"

let run_query t config sql = run_stmt t config (Sql.Parser.parse sql)

(* Fault-aware wrapper, reusing the single-node outcome type: a flaky
   shard degrades (faults recovered mid-query) or rejects (integrity
   failure survives the re-read budget / a shard is unattested) — it
   never silently returns wrong rows. *)
let run_stmt_outcome ?reset ?project t config stmt =
  if t.nshards = 1 then
    Runner.run_stmt_outcome ?reset ?project t.base config stmt
  else
    let faults = t.base.Deployment.faults in
    let attested =
      Monitor.Trusted_monitor.attested_storage_nodes t.base.Deployment.monitor
    in
    let missing =
      Array.to_list t.shards
      |> List.filter_map (fun sh ->
             let id = Tee.Trustzone.device_id sh.sh_tz in
             if List.mem id attested then None else Some id)
    in
    match missing with
    | id :: _ ->
        Fault.note_rejected faults;
        Obs.count ~scope:"fault" "rejected";
        Runner.Rejected
          {
            Runner.v_site = "cluster.attest";
            v_detail = Printf.sprintf "shard device %s is not attested" id;
          }
    | [] -> (
        let mark = Fault.incident_count faults in
        match run_stmt ?reset ?project t config stmt with
        | m -> (
            match Fault.incidents_since faults mark with
            | [] -> Runner.Ok m
            | incidents ->
                Fault.note_recovered_since faults mark;
                Runner.Degraded (m, incidents))
        | exception Sql.Pager.Integrity_failure detail ->
            Fault.note_rejected faults;
            Obs.count ~scope:"fault" "rejected";
            Runner.Rejected
              (Runner.violation_of_faults faults ~default:"securestore"
                 ~detail)
        | exception Tee.Sgx.Enclave_aborted ->
            Fault.note_rejected faults;
            Obs.count ~scope:"fault" "rejected";
            Runner.Rejected
              (Runner.violation_of_faults faults ~default:"sgx.abort"
                 ~detail:"enclave died mid-query"))

let run_query_outcome t config sql =
  run_stmt_outcome t config (Sql.Parser.parse sql)

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
