(* Deeper SQL-engine coverage: nested/correlated subqueries, join
   order robustness, NULL corners, expression semantics, and algebraic
   property tests over random data. *)

open Ironsafe_sql

let mkdb () = Database.create ~pager:(Pager.in_memory ())

let fixture () =
  let db = mkdb () in
  ignore (Database.exec db "create table nums (n int, grp varchar, tag int)");
  ignore
    (Database.exec db
       "insert into nums values (1, 'a', 10), (2, 'a', null), (3, 'b', 30), \
        (4, 'b', 40), (5, 'c', null), (6, 'c', 60), (7, 'c', 70)");
  db

let rows db sql =
  (Database.query db sql).Exec.rows
  |> List.map (fun r -> Array.to_list r |> List.map Value.to_string)

let check_rows msg expected actual =
  Alcotest.(check (list (list string))) msg expected actual

(* -- subquery corners ---------------------------------------------------- *)

let test_nested_subqueries () =
  let db = fixture () in
  (* a subquery inside a subquery *)
  check_rows "two-level nesting"
    [ [ "6" ]; [ "7" ] ]
    (rows db
       "select n from nums where n in (select n from nums where grp in \
        (select grp from nums where tag = 60)) and tag is not null order by n")

let test_scalar_subquery_cardinality () =
  let db = fixture () in
  match Database.query db "select (select n from nums where grp = 'a') as x from nums limit 1" with
  | exception Exec.Sql_error _ -> ()
  | _ -> Alcotest.fail "multi-row scalar subquery accepted"

let test_correlated_in_subquery () =
  let db = fixture () in
  (* IN whose subquery is correlated to the outer row *)
  check_rows "correlated in"
    [ [ "1" ]; [ "3" ]; [ "5" ] ]
    (rows db
       "select n from nums o where n in (select min(n) from nums i where \
        i.grp = o.grp) order by n")

let test_exists_with_aggregate_subquery () =
  let db = fixture () in
  check_rows "exists over group-by/having"
    [ [ "a" ]; [ "b" ]; [ "c" ] ]
    (rows db
       "select grp from nums where exists (select grp from nums group by grp \
        having count(*) >= 2) group by grp order by grp")

(* -- join robustness ------------------------------------------------------ *)

let join_fixture () =
  let db = mkdb () in
  ignore (Database.exec db "create table a (ak int, av varchar)");
  ignore (Database.exec db "create table b (bk int, ak int, bv varchar)");
  ignore (Database.exec db "create table c (ck int, bk int)");
  ignore (Database.exec db "insert into a values (1, 'a1'), (2, 'a2'), (3, 'a3')");
  ignore
    (Database.exec db
       "insert into b values (10, 1, 'b10'), (11, 1, 'b11'), (12, 2, 'b12'), \
        (13, 1, 'b13')");
  ignore (Database.exec db "insert into c values (100, 10), (101, 12), (102, 99)");
  db

let test_join_order_invariance () =
  let db = join_fixture () in
  let q order =
    rows db
      (Printf.sprintf
         "select av, bv, ck from %s where a.ak = b.ak and b.bk = c.bk order by ck"
         order)
  in
  let expected = [ [ "a1"; "b10"; "100" ]; [ "a2"; "b12"; "101" ] ] in
  List.iter
    (fun order -> check_rows order expected (q order))
    [ "a, b, c"; "c, b, a"; "b, a, c"; "c, a, b" ]

let test_cross_join () =
  let db = join_fixture () in
  check_rows "cartesian count" [ [ "9" ] ]
    (rows db "select count(*) from a a1, a a2")

let test_three_way_self_join () =
  let db = join_fixture () in
  (* Q21-style: same table, three bindings *)
  check_rows "triple self join"
    [ [ "1" ] ]
    (rows db
       "select count(*) from b b1, b b2, b b3 where b1.ak = b2.ak and b2.ak = \
        b3.ak and b1.bk < b2.bk and b2.bk < b3.bk")

let test_non_equi_join () =
  let db = join_fixture () in
  check_rows "inequality join"
    [ [ "3" ] ]
    (rows db "select count(*) from a a1, a a2 where a1.ak < a2.ak")

(* -- NULL semantics -------------------------------------------------------- *)

let test_null_comparisons_filter_out () =
  let db = fixture () in
  (* rows with NULL tag match neither side of the comparison *)
  check_rows "null filtered by >" [ [ "4" ] ]
    (rows db "select count(*) from nums where tag > 20");
  check_rows "null filtered by <=" [ [ "2" ] ]
    (rows db "select count(*) from nums where tag <= 30");
  check_rows "is null complement" [ [ "2" ] ]
    (rows db "select count(*) from nums where tag is null")

let test_aggregates_ignore_nulls () =
  let db = fixture () in
  check_rows "sum/min/max skip nulls" [ [ "210"; "10"; "70"; "5"; "7" ] ]
    (rows db
       "select sum(tag), min(tag), max(tag), count(tag), count(*) from nums")

let test_null_in_group_key () =
  let db = fixture () in
  (* NULL is a regular grouping value *)
  check_rows "null group" [ [ "NULL"; "2" ]; [ "10"; "1" ] ]
    (rows db
       "select tag, count(*) from nums where tag is null or tag = 10 group by \
        tag order by tag")

let test_order_by_nulls_first () =
  let db = fixture () in
  let got = rows db "select tag from nums order by tag limit 3" in
  check_rows "nulls sort first" [ [ "NULL" ]; [ "NULL" ]; [ "10" ] ] got

(* Three-valued logic over v(x) = {1, NULL, 3}; expected answers are
   SQLite's. WHERE keeps only TRUE, so a NULL predicate drops the row. *)
let kleene_fixture () =
  let db = mkdb () in
  ignore (Database.exec db "create table v (x int)");
  ignore (Database.exec db "insert into v values (1), (null), (3)");
  db

let test_not_of_null_is_null () =
  let db = kleene_fixture () in
  check_rows "not (null < 2) drops the row" [ [ "3" ] ]
    (rows db "select x from v where not (x < 2) order by x")

let test_and_or_with_null () =
  let db = kleene_fixture () in
  check_rows "null and null is null" [ [ "3" ] ]
    (rows db "select x from v where not (x > 0 and x < 2) order by x");
  check_rows "null or null is null" [ [ "1" ] ]
    (rows db "select x from v where not (x < 0 or x > 2) order by x");
  check_rows "null and true is null" [ [ "2" ] ]
    (rows db "select count(*) from v where not (x > 100 and x is null)");
  check_rows "null or true is true" [ [ "1" ] ]
    (rows db "select count(*) from v where not (x < 2 or x is null)")

let test_in_list_with_null () =
  let db = kleene_fixture () in
  check_rows "not in a list holding null" [ [ "0" ] ]
    (rows db "select count(*) from v where x not in (2, null)");
  check_rows "null subject not in a list" [ [ "2" ] ]
    (rows db "select count(*) from v where x not in (2, 4)");
  check_rows "a match beats a null item" [ [ "1" ] ]
    (rows db "select count(*) from v where x in (1, null)")

let test_null_in_empty_subquery () =
  let db = kleene_fixture () in
  check_rows "null not in an empty set" [ [ "3" ] ]
    (rows db "select count(*) from v where x not in (select x from v where x > 100)");
  check_rows "null in an empty set" [ [ "0" ] ]
    (rows db "select count(*) from v where x in (select x from v where x > 100)");
  check_rows "not in a set holding null" [ [ "0" ] ]
    (rows db "select count(*) from v where x not in (select x from v where x is null)")

(* -- expression semantics ---------------------------------------------------- *)

let test_case_without_else_is_null () =
  let db = fixture () in
  check_rows "case falls through to null"
    [ [ "NULL" ] ]
    (rows db "select case when n > 100 then 'big' end from nums where n = 1")

let test_unary_minus_and_precedence () =
  let db = fixture () in
  check_rows "precedence" [ [ "7" ] ] (rows db "select 1 + 2 * 3 from nums limit 1");
  check_rows "parens" [ [ "9" ] ] (rows db "select (1 + 2) * 3 from nums limit 1");
  check_rows "unary minus" [ [ "-5" ] ] (rows db "select -5 from nums limit 1");
  check_rows "double negation" [ [ "5" ] ] (rows db "select - -5 from nums limit 1")

let test_string_min_max () =
  let db = fixture () in
  check_rows "min/max on strings" [ [ "a"; "c" ] ]
    (rows db "select min(grp), max(grp) from nums")

let test_having_without_select_agg () =
  let db = fixture () in
  check_rows "having on hidden aggregate" [ [ "c" ] ]
    (rows db "select grp from nums group by grp having count(*) > 2")

let test_group_by_expression () =
  let db = fixture () in
  check_rows "group by computed expression"
    [ [ "hi"; "3" ]; [ "lo"; "4" ] ]
    (rows db
       "select case when n > 4 then 'hi' else 'lo' end as bucket, count(*) \
        from nums group by case when n > 4 then 'hi' else 'lo' end order by \
        bucket")

let test_limit_edges () =
  let db = fixture () in
  check_rows "limit 0" [] (rows db "select n from nums limit 0");
  Alcotest.(check int) "limit beyond cardinality" 7
    (List.length (rows db "select n from nums limit 100"))

let test_avg_precision () =
  let db = fixture () in
  check_rows "avg over ints is float" [ [ "4.00" ] ]
    (rows db "select avg(n) from nums")

(* -- derived tables ------------------------------------------------------------ *)

let test_derived_qualified_reference () =
  let db = fixture () in
  check_rows "alias-qualified derived column"
    [ [ "a"; "2" ]; [ "b"; "2" ]; [ "c"; "3" ] ]
    (rows db
       "select x.grp, x.cnt from (select grp, count(*) as cnt from nums group \
        by grp) x order by x.grp")

let test_derived_join_base () =
  let db = fixture () in
  check_rows "derived joined with base table"
    [ [ "6"; "3" ]; [ "7"; "3" ] ]
    (rows db
       "select n, cnt from nums, (select grp as g, count(*) as cnt from nums \
        group by grp) x where grp = x.g and cnt > 2 and tag is not null order \
        by n")

(* -- DML corners ----------------------------------------------------------------- *)

let test_update_expression_self_reference () =
  let db = fixture () in
  ignore (Database.exec db "update nums set tag = n * 100 where tag is null");
  check_rows "update used row values" [ [ "200" ]; [ "500" ] ]
    (rows db "select tag from nums where n = 2 or n = 5 order by n")

let test_delete_everything () =
  let db = fixture () in
  (match Database.exec db "delete from nums" with
  | Database.Affected 7 -> ()
  | _ -> Alcotest.fail "delete count");
  check_rows "empty after delete" [ [ "0" ] ] (rows db "select count(*) from nums");
  (* table still usable *)
  ignore (Database.exec db "insert into nums values (9, 'z', 90)");
  check_rows "reusable" [ [ "1" ] ] (rows db "select count(*) from nums")

let test_drop_table () =
  let db = fixture () in
  ignore (Database.exec db "drop table nums");
  match Database.exec db "select * from nums" with
  | exception Exec.Sql_error _ -> ()
  | _ -> Alcotest.fail "query after drop succeeded"

let test_create_duplicate_table () =
  let db = fixture () in
  match Database.exec db "create table nums (x int)" with
  | exception Catalog.Duplicate_table _ -> ()
  | _ -> Alcotest.fail "duplicate create accepted"

(* -- page boundary -------------------------------------------------------------- *)

let test_rows_at_page_capacity () =
  let db = mkdb () in
  ignore (Database.exec db "create table blobs (id int, body varchar)");
  (* rows close to the page payload limit force one row per page *)
  let big = String.make 3800 'x' in
  Database.insert_rows db "blobs"
    (List.init 5 (fun i -> [| Value.Int i; Value.Str big |]));
  check_rows "all big rows stored" [ [ "5" ] ]
    (rows db "select count(*) from blobs");
  let hf = Catalog.find (Database.catalog db) "blobs" in
  Alcotest.(check int) "one row per page" 5 (Heap_file.page_count hf)

let test_row_too_large_rejected () =
  let db = mkdb () in
  ignore (Database.exec db "create table blobs (body varchar)");
  match Database.insert_rows db "blobs" [ [| Value.Str (String.make 5000 'x') |] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized row accepted"

(* -- property tests ---------------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  let load db pairs =
    ignore (Database.exec db "create table p (a int, b int)");
    if pairs <> [] then
      Database.insert_rows db "p"
        (List.map (fun (a, b) -> [| Value.Int a; Value.Int b |]) pairs)
  in
  [
    Test.make ~name:"group-by counts sum to row count" ~count:30
      (list_of_size Gen.(0 -- 50) (pair (int_bound 5) (int_bound 100)))
      (fun pairs ->
        let db = mkdb () in
        load db pairs;
        let counts =
          (Database.query db "select a, count(*) as c from p group by a").Exec.rows
          |> List.map (fun r -> Value.as_int r.(1))
        in
        List.fold_left ( + ) 0 counts = List.length pairs);
    Test.make ~name:"join is symmetric" ~count:30
      (pair
         (list_of_size Gen.(0 -- 20) (pair (int_bound 5) (int_bound 50)))
         (list_of_size Gen.(0 -- 20) (pair (int_bound 5) (int_bound 50))))
      (fun (xs, ys) ->
        let db = mkdb () in
        ignore (Database.exec db "create table x (k int, xv int)");
        ignore (Database.exec db "create table y (k int, yv int)");
        if xs <> [] then
          Database.insert_rows db "x"
            (List.map (fun (k, v) -> [| Value.Int k; Value.Int v |]) xs);
        if ys <> [] then
          Database.insert_rows db "y"
            (List.map (fun (k, v) -> [| Value.Int k; Value.Int v |]) ys);
        let sorted sql =
          (Database.query db sql).Exec.rows
          |> List.map (fun r -> Array.to_list r |> List.map Value.to_string)
          |> List.sort compare
        in
        sorted "select xv, yv from x, y where x.k = y.k"
        = sorted "select xv, yv from y, x where x.k = y.k");
    Test.make ~name:"order by produces a sorted permutation" ~count:30
      (list_of_size Gen.(0 -- 50) (pair (int_range (-50) 50) (int_bound 10)))
      (fun pairs ->
        let db = mkdb () in
        load db pairs;
        let got =
          (Database.query db "select a from p order by a").Exec.rows
          |> List.map (fun r -> Value.as_int r.(0))
        in
        got = List.sort compare (List.map fst pairs));
    Test.make ~name:"where NOT p complements where p" ~count:30
      (list_of_size Gen.(0 -- 40) (pair (int_bound 20) (int_bound 20)))
      (fun pairs ->
        let db = mkdb () in
        load db pairs;
        let count sql =
          match (Database.query db sql).Exec.rows with
          | [ [| Value.Int n |] ] -> n
          | _ -> -1
        in
        count "select count(*) from p where a < b"
        + count "select count(*) from p where not (a < b)"
        = List.length pairs);
    Test.make ~name:"distinct = group by" ~count:30
      (list_of_size Gen.(0 -- 40) (pair (int_bound 6) (int_bound 6)))
      (fun pairs ->
        let db = mkdb () in
        load db pairs;
        let sorted sql =
          (Database.query db sql).Exec.rows
          |> List.map (fun r -> Value.as_int r.(0))
          |> List.sort compare
        in
        sorted "select distinct a from p" = sorted "select a from p group by a");
  ]

(* -- hash paths agree with = ------------------------------------------------ *)

(* Hash join, JOIN ON, IN-subquery and the correlated semijoin probe
   hash tables; filters and IN (list) compare with [Value.equal]. Both
   must give the same answers: 1 = 1.0, and NULL matches nothing. *)
let test_hash_paths_agree_with_eq () =
  let db = mkdb () in
  List.iter
    (fun sql -> ignore (Database.exec db sql))
    [
      "create table a (x integer)";
      "insert into a values (1), (2), (null)";
      "create table b (y double)";
      "insert into b values (1.0), (3.0)";
      "create table c (z integer)";
      "insert into c values (null), (2)";
    ];
  let count sql = List.length (Database.query db sql).Exec.rows in
  List.iter
    (fun (want, sql) -> Alcotest.(check int) sql want (count sql))
    [
      (1, "select x from a where x in (1.0)");
      (1, "select x from a where x in (select y from b)");
      (1, "select x from a, b where x <= y and x >= y");
      (1, "select x from a, b where x = y");
      (1, "select x from a join b on x = y");
      (1, "select x from a, c where x <= z and x >= z");
      (1, "select x from a, c where x = z");
      (1, "select x from a join c on x = z");
      (3, "select x from a left join c on x = z");
      (1, "select x from a where exists (select * from c where z = x)");
      (1, "select x from a where x in (select z from c where z = x)");
    ];
  (* the unmatched left rows come back null-extended *)
  check_rows "left join nulls match nothing"
    [ [ "1"; "NULL" ]; [ "2"; "2" ]; [ "NULL"; "NULL" ] ]
    (rows db "select x, z from a left join c on x = z");
  (* GROUP BY keeps NULLs together, and 1 and 1.0 are one group *)
  ignore (Database.exec db "create table g (v double)");
  ignore (Database.exec db "insert into g values (null), (1.0), (null), (1)");
  check_rows "group by keys"
    [ [ "NULL"; "2" ]; [ "1.00"; "2" ] ]
    (rows db "select v, count(*) as n from g group by v order by v")

(* A post-filter subquery that reads the outer row runs per outer row;
   the inner select's outer-independent part is still memoized. *)
let test_post_filter_reads_outer_row () =
  let db = mkdb () in
  List.iter
    (fun sql -> ignore (Database.exec db sql))
    [
      "create table o (k integer, g integer)";
      "insert into o values (1, 1), (2, 1), (3, 2), (4, 2), (5, 3)";
      "create table r (g integer)";
      "insert into r values (1), (2), (3)";
      "create table s (k integer)";
      "insert into s values (1)";
    ];
  let count sql =
    match (Database.query db sql).Exec.rows with
    | [ [| v |] ] -> Value.as_int v
    | _ -> Alcotest.failf "expected one count row: %s" sql
  in
  Alcotest.(check int) "exists" 1
    (count
       "select count(*) from o where exists (select * from r where r.g = \
        o.g and o.k in (select k from s))");
  Alcotest.(check int) "not exists" 4
    (count
       "select count(*) from o where not exists (select * from r where r.g \
        = o.g and o.k in (select k from s))");
  (* the outer row read two scopes down, inside the nested subquery *)
  Alcotest.(check int) "nested reference" 1
    (count
       "select count(*) from o where exists (select * from r where r.g = \
        o.g and exists (select * from s where s.k = o.k))")

(* DISTINCT aggregates use the GROUP BY equality: 1 and 1.0 are one
   value. *)
let test_distinct_uses_key_equality () =
  let db = mkdb () in
  ignore (Database.exec db "create table v (x double)");
  ignore (Database.exec db "insert into v values (1.0), (1), (2.5), (null)");
  check_rows "count distinct" [ [ "2" ] ]
    (rows db "select count(distinct x) from v");
  List.iter
    (fun f ->
      check_rows
        (f ^ " distinct = over group by")
        (rows db
           (Printf.sprintf "select %s(x) from (select x from v group by x) t"
              f))
        (rows db (Printf.sprintf "select %s(distinct x) from v" f)))
    [ "count"; "sum"; "avg" ];
  ignore (Database.exec db "create table w (x double)");
  ignore (Database.exec db "insert into w values (1.0), (1)");
  check_rows "1.0 and 1 are one value" [ [ "1" ] ]
    (rows db "select count(distinct x) from w")

(* A date literal shifted by an interval is computed once, when the
   statement is planned; any other operand is still checked per row, so
   a bad one fails only when a row reaches it. *)
let test_interval_over_empty_table () =
  let db = mkdb () in
  ignore (Database.exec db "create table ev (d date, s varchar)");
  check_rows "folded literal, no rows" []
    (rows db "select d from ev where d <= date '1998-12-01' - interval '90' day");
  check_rows "bad operand, no rows" []
    (rows db "select s + interval '1' day as x from ev");
  ignore (Database.exec db "insert into ev values (date '1998-09-02', 'x')");
  check_rows "folded literal"
    [ [ "1998-09-02"; "1999-01-01" ] ]
    (rows db
       "select date '1998-12-01' - interval '90' day as a, date         '1998-12-01' + interval '1' month as b from ev where d <= date         '1998-12-01' - interval '90' day");
  match rows db "select s + interval '1' day as x from ev" with
  | exception Exec.Sql_error _ -> ()
  | _ -> Alcotest.fail "interval arithmetic on a string accepted"

let suite =
  [
    ("nested subqueries", `Quick, test_nested_subqueries);
    ("date interval over empty table", `Quick, test_interval_over_empty_table);
    ("scalar subquery cardinality", `Quick, test_scalar_subquery_cardinality);
    ("correlated in subquery", `Quick, test_correlated_in_subquery);
    ("exists over aggregate", `Quick, test_exists_with_aggregate_subquery);
    ("join order invariance", `Quick, test_join_order_invariance);
    ("cross join", `Quick, test_cross_join);
    ("three-way self join", `Quick, test_three_way_self_join);
    ("non-equi join", `Quick, test_non_equi_join);
    ("null comparisons", `Quick, test_null_comparisons_filter_out);
    ("aggregates ignore nulls", `Quick, test_aggregates_ignore_nulls);
    ("null in group key", `Quick, test_null_in_group_key);
    ("order by nulls first", `Quick, test_order_by_nulls_first);
    ("not of null is null", `Quick, test_not_of_null_is_null);
    ("and/or with null", `Quick, test_and_or_with_null);
    ("in list with null", `Quick, test_in_list_with_null);
    ("null in empty subquery", `Quick, test_null_in_empty_subquery);
    ("case without else", `Quick, test_case_without_else_is_null);
    ("precedence and unary minus", `Quick, test_unary_minus_and_precedence);
    ("string min/max", `Quick, test_string_min_max);
    ("having hidden aggregate", `Quick, test_having_without_select_agg);
    ("group by expression", `Quick, test_group_by_expression);
    ("limit edges", `Quick, test_limit_edges);
    ("avg precision", `Quick, test_avg_precision);
    ("derived qualified reference", `Quick, test_derived_qualified_reference);
    ("derived joined with base", `Quick, test_derived_join_base);
    ("update self reference", `Quick, test_update_expression_self_reference);
    ("delete everything", `Quick, test_delete_everything);
    ("drop table", `Quick, test_drop_table);
    ("create duplicate table", `Quick, test_create_duplicate_table);
    ("rows at page capacity", `Quick, test_rows_at_page_capacity);
    ("row too large rejected", `Quick, test_row_too_large_rejected);
    ("hash paths agree with =", `Quick, test_hash_paths_agree_with_eq);
    ("post-filter reads outer row", `Quick, test_post_filter_reads_outer_row);
    ("distinct uses key equality", `Quick, test_distinct_uses_key_equality);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
