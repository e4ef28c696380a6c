(* TPC-H workload tests: generator invariants and end-to-end execution
   of all 17 evaluated queries at a tiny scale factor. *)

open Ironsafe_sql
module Tpch = Ironsafe_tpch

let db_and_stats =
  lazy
    (let db = Database.create ~pager:(Pager.in_memory ()) in
     let stats = Tpch.Dbgen.populate db ~scale:0.005 in
     (db, stats))

let db () = fst (Lazy.force db_and_stats)
let stats () = snd (Lazy.force db_and_stats)

let count db table =
  match (Database.query db (Printf.sprintf "select count(*) as c from %s" table)).Exec.rows with
  | [ [| Value.Int n |] ] -> n
  | _ -> Alcotest.fail "count query failed"

let test_row_counts () =
  let db = db () in
  Alcotest.(check int) "regions" 5 (count db "region");
  Alcotest.(check int) "nations" 25 (count db "nation");
  Alcotest.(check int) "suppliers" 50 (count db "supplier");
  Alcotest.(check int) "customers" 750 (count db "customer");
  Alcotest.(check int) "parts" 1000 (count db "part");
  Alcotest.(check int) "partsupp = 4x parts" 4000 (count db "partsupp");
  Alcotest.(check int) "orders" 7500 (count db "orders");
  let li = count db "lineitem" in
  Alcotest.(check bool) "lineitems 1-7 per order" true (li >= 7500 && li <= 7 * 7500);
  Alcotest.(check int) "stats match" li (stats ()).Tpch.Dbgen.lineitems

let test_key_integrity () =
  let db = db () in
  (* every lineitem references an existing order and part *)
  let orphans sql =
    match (Database.query db sql).Exec.rows with
    | [ [| Value.Int n |] ] -> n
    | _ -> Alcotest.fail "orphan query failed"
  in
  Alcotest.(check int) "no orphan orderkeys" 0
    (orphans
       "select count(*) as c from lineitem where l_orderkey not in (select o_orderkey from orders)");
  Alcotest.(check int) "no orphan partkeys" 0
    (orphans
       "select count(*) as c from lineitem where l_partkey not in (select p_partkey from part)");
  Alcotest.(check int) "no orphan suppkeys" 0
    (orphans
       "select count(*) as c from lineitem where l_suppkey not in (select s_suppkey from supplier)");
  Alcotest.(check int) "customers reference nations" 0
    (orphans
       "select count(*) as c from customer where c_nationkey not in (select n_nationkey from nation)")

let test_date_invariants () =
  let db = db () in
  let bad sql =
    match (Database.query db sql).Exec.rows with
    | [ [| Value.Int n |] ] -> n
    | _ -> Alcotest.fail "invariant query failed"
  in
  Alcotest.(check int) "shipdate after orderdate" 0
    (bad
       "select count(*) as c from lineitem, orders where l_orderkey = o_orderkey and l_shipdate <= o_orderdate");
  Alcotest.(check int) "receipt after ship" 0
    (bad "select count(*) as c from lineitem where l_receiptdate <= l_shipdate");
  Alcotest.(check int) "discounts in range" 0
    (bad "select count(*) as c from lineitem where l_discount < 0.0 or l_discount > 0.1")

let test_determinism () =
  let db1 = Database.create ~pager:(Pager.in_memory ()) in
  let db2 = Database.create ~pager:(Pager.in_memory ()) in
  ignore (Tpch.Dbgen.populate db1 ~scale:0.002 ~seed:"same");
  ignore (Tpch.Dbgen.populate db2 ~scale:0.002 ~seed:"same");
  let dump db =
    (Database.query db "select o_orderkey, o_custkey, o_totalprice from orders order by o_orderkey limit 50").Exec.rows
  in
  Alcotest.(check bool) "same seed, same data" true (dump db1 = dump db2);
  let db3 = Database.create ~pager:(Pager.in_memory ()) in
  ignore (Tpch.Dbgen.populate db3 ~scale:0.002 ~seed:"different");
  Alcotest.(check bool) "different seed, different data" true (dump db1 <> dump db3)

let test_all_queries_run () =
  let db = db () in
  List.iter
    (fun (q : Tpch.Queries.t) ->
      match Database.query db q.Tpch.Queries.sql with
      | r ->
          Alcotest.(check bool)
            (Printf.sprintf "Q%d has columns" q.Tpch.Queries.id)
            true
            (r.Exec.columns <> [])
      | exception e ->
          Alcotest.failf "Q%d failed: %s" q.Tpch.Queries.id (Printexc.to_string e))
    Tpch.Queries.complete

let test_q1_consistency () =
  let db = db () in
  (* Q1's aggregates satisfy algebraic relations *)
  List.iter
    (fun row ->
      match row with
      | [| _; _; _; Value.Float base; Value.Float disc; Value.Float charge; _; _; _; Value.Int n |] ->
          Alcotest.(check bool) "discounted <= base" true (disc <= base);
          Alcotest.(check bool) "charge >= discounted" true (charge >= disc);
          Alcotest.(check bool) "groups non-empty" true (n > 0)
      | _ -> Alcotest.fail "unexpected Q1 row shape")
    (Database.query db Tpch.Queries.q1.Tpch.Queries.sql).Exec.rows

let test_q6_equals_manual () =
  let db = db () in
  (* Q6 cross-checked against a manual computation over a full scan *)
  let expected = ref 0.0 in
  let lo = Date.of_ymd ~y:1994 ~m:1 ~d:1 in
  let hi = Date.add_years lo 1 in
  let hf = Catalog.find (Database.catalog db) "lineitem" in
  Heap_file.iter hf ~f:(fun r ->
      match (r.(4), r.(5), r.(6), r.(10)) with
      | Value.Float qty, Value.Float price, Value.Float disc, Value.Date ship ->
          if ship >= lo && ship < hi && disc >= 0.05 && disc <= 0.07 && qty < 24.0
          then expected := !expected +. (price *. disc)
      | _ -> Alcotest.fail "row shape");
  match (Database.query db Tpch.Queries.q6.Tpch.Queries.sql).Exec.rows with
  | [ [| Value.Float got |] ] ->
      Alcotest.(check (float 0.01)) "Q6 revenue" !expected got
  | [ [| Value.Null |] ] -> Alcotest.(check (float 0.01)) "Q6 empty" !expected 0.0
  | _ -> Alcotest.fail "Q6 shape"

let test_q13_includes_customers_without_orders () =
  let db = db () in
  let rows = (Database.query db Tpch.Queries.q13.Tpch.Queries.sql).Exec.rows in
  let total =
    List.fold_left
      (fun acc r -> match r with [| _; Value.Int c |] -> acc + c | _ -> acc)
      0 rows
  in
  Alcotest.(check int) "every customer counted once" 750 total

let test_selectivity_variant () =
  let db = db () in
  let rows_at sel =
    match (Database.query db (Tpch.Queries.q1_with_selectivity sel)).Exec.rows with
    | rows ->
        List.fold_left
          (fun acc r ->
            match r.(Array.length r - 1) with Value.Int n -> acc + n | _ -> acc)
          0 rows
  in
  let r10 = rows_at 0.10 and r20 = rows_at 0.20 and r100 = rows_at 1.0 in
  Alcotest.(check bool) "monotone in selectivity" true (r10 < r20 && r20 < r100);
  let total = count db "lineitem" in
  Alcotest.(check bool) "sel=1 covers all rows" true (r100 >= total * 95 / 100);
  (* roughly proportional: 20% cutoff selects about twice the 10% one *)
  let ratio = float_of_int r20 /. float_of_int (max 1 r10) in
  Alcotest.(check bool) "roughly doubles" true (ratio > 1.5 && ratio < 2.6)

let test_by_id () =
  Alcotest.(check int) "q9 id" 9 (Tpch.Queries.by_id 9).Tpch.Queries.id;
  Alcotest.(check int) "17 evaluated+q1" 17 (List.length Tpch.Queries.all);
  Alcotest.(check int) "16 evaluated" 16 (List.length Tpch.Queries.evaluated);
  Alcotest.(check int) "22 complete" 22 (List.length Tpch.Queries.complete);
  Alcotest.(check int) "q22 reachable" 22
    (Tpch.Queries.by_id_complete 22).Tpch.Queries.id;
  Alcotest.check_raises "q22 not in the paper's set"
    (Invalid_argument "Queries.by_id: no query 22") (fun () ->
      ignore (Tpch.Queries.by_id 22))

let test_q22_substring_semantics () =
  let db = db () in
  (* country codes are the first two phone digits = 10 + nationkey *)
  match
    (Database.query db
       "select count(*) as c from customer where substring(c_phone from 1 for 2) = '10'").Exec.rows
  with
  | [ [| Value.Int n |] ] ->
      (* nationkey 0 (ALGERIA) customers *)
      let expected =
        match
          (Database.query db
             "select count(*) as c from customer where c_nationkey = 0").Exec.rows
        with
        | [ [| Value.Int m |] ] -> m
        | _ -> -1
      in
      Alcotest.(check int) "substring matches nationkey" expected n
  | _ -> Alcotest.fail "count shape"

let test_counts_of_scale () =
  let c = Tpch.Dbgen.counts_of_scale 1.0 in
  Alcotest.(check int) "sf1 suppliers" 10_000 c.Tpch.Dbgen.suppliers;
  Alcotest.(check int) "sf1 orders" 1_500_000 c.Tpch.Dbgen.orders;
  let tiny = Tpch.Dbgen.counts_of_scale 0.000001 in
  Alcotest.(check int) "floor of one" 1 tiny.Tpch.Dbgen.suppliers

(* a correlated IN subquery, memoized on the one outer column it
   reads: many customers share it *)
let correlated_in =
  "select count(*) as n from customer where c_nationkey in (select \
   s_nationkey from supplier where s_nationkey = c_nationkey and s_acctbal \
   > 0)"

(* A scan of a paged table decodes only the columns the statement
   reads; a resident table's rows are whole and never decoded. Every
   statement must give the same rows and the same observer charges
   over both, whichever clause is the only one to read a column. *)
let projection_statements =
  [
    "select * from region";
    "select n_name from nation where exists (select * from supplier where \
     s_nationkey = n_nationkey and s_acctbal > 5000) order by n_name";
    (* Q7's self-join through two aliases of nation *)
    "select n1.n_name as supp_nation, n2.n_name as cust_nation, count(*) as n \
     from supplier, customer, nation n1, nation n2 where s_nationkey = \
     n1.n_nationkey and c_nationkey = n2.n_nationkey and ((n1.n_name = \
     'FRANCE' and n2.n_name = 'GERMANY') or (n1.n_name = 'GERMANY' and \
     n2.n_name = 'FRANCE')) group by n1.n_name, n2.n_name order by \
     supp_nation, cust_nation";
    (* a column read only by ORDER BY *)
    "select c_name from customer where c_nationkey = 3 order by c_acctbal \
     desc, c_custkey";
    (* only by GROUP BY, only by HAVING *)
    "select count(*) as n from orders group by o_orderpriority";
    "select o_orderstatus, count(*) as n from orders group by o_orderstatus \
     having sum(o_totalprice) > 100000 order by o_orderstatus";
    (* only as a correlated outer reference *)
    "select count(*) as n from part where exists (select * from partsupp \
     where ps_partkey = p_partkey and ps_availqty > p_size * 150)";
    "select s_name from supplier where s_acctbal > (select avg(c_acctbal) \
     from customer where c_nationkey = s_nationkey) order by s_name";
    correlated_in;
    "select t.k, t.n from (select o_custkey as k, count(*) as n from orders \
     group by o_custkey) t where t.n > 12 order by t.k";
    "select c_custkey, count(o_orderkey) as n from customer left outer join \
     orders on c_custkey = o_custkey and o_comment not like '%special%' \
     group by c_custkey order by n desc, c_custkey limit 20";
    "select count(*) as n from lineitem";
  ]

let test_projected_scan_equals_resident () =
  let paged = db () in
  let resident = Database.create_resident () in
  List.iter
    (fun name ->
      let hf = Catalog.find (Database.catalog paged) name in
      Database.add_resident_table resident (Heap_file.schema hf) (Heap_file.to_list hf))
    (Catalog.table_names (Database.catalog paged));
  let run db sql =
    let obs, c = Observer.counting () in
    Database.set_observer db obs;
    let rows =
      Fun.protect
        ~finally:(fun () -> Database.set_observer db Observer.null)
        (fun () -> (Database.query db sql).Exec.rows)
    in
    (List.map (fun r -> Array.to_list (Array.map Value.to_string r)) rows, c)
  in
  List.iter
    (fun sql ->
      let want, wc = run resident sql and got, gc = run paged sql in
      Alcotest.(check (list (list string))) sql want got;
      Alcotest.(check int) ("rows: " ^ sql) wc.Observer.rows gc.Observer.rows;
      Alcotest.(check int) ("bytes: " ^ sql) wc.Observer.bytes_allocated
        gc.Observer.bytes_allocated)
    (projection_statements
    @ List.map (fun (q : Tpch.Queries.t) -> q.sql) Tpch.Queries.all)

(* The 750 customers fall in at most 25 nations, and the subquery runs
   once per nation, not once per customer. *)
let test_correlated_in_runs_per_key () =
  let module Obs = Ironsafe_obs.Obs in
  let module Metrics = Ironsafe_obs.Metrics in
  let was_obs = Obs.enabled () in
  Obs.enable ();
  let runs =
    Fun.protect
      ~finally:(fun () -> if not was_obs then Obs.disable ())
      (fun () ->
        let before = Obs.metrics () in
        ignore (Database.query (db ()) correlated_in);
        Metrics.counter_value
          (Metrics.diff ~before ~after:(Obs.metrics ()))
          ~scope:"sql" "in_subquery_runs")
  in
  let nations =
    match
      (Database.query (db ())
         "select count(distinct c_nationkey) as n from customer")
        .Exec.rows
    with
    | [ [| Value.Int n |] ] -> n
    | _ -> Alcotest.fail "distinct count failed"
  in
  Alcotest.(check int) "customers" 750 (count (db ()) "customer");
  Alcotest.(check bool) "at most 25 nations" true (nations <= 25);
  Alcotest.(check int) "one run per distinct outer key" nations runs

let suite =
  [
    ("row counts", `Quick, test_row_counts);
    ("key integrity", `Quick, test_key_integrity);
    ("date invariants", `Quick, test_date_invariants);
    ("determinism", `Quick, test_determinism);
    ("all 17 queries run", `Slow, test_all_queries_run);
    ("q1 consistency", `Quick, test_q1_consistency);
    ("q6 equals manual scan", `Quick, test_q6_equals_manual);
    ("q13 covers all customers", `Quick, test_q13_includes_customers_without_orders);
    ("selectivity variant", `Quick, test_selectivity_variant);
    ("query lookup", `Quick, test_by_id);
    ("q22 substring semantics", `Quick, test_q22_substring_semantics);
    ("counts of scale", `Quick, test_counts_of_scale);
    ("projected scan equals resident", `Quick, test_projected_scan_equals_resident);
    ("correlated IN runs once per outer key", `Quick,
     test_correlated_in_runs_per_key);
  ]
