(* SQL engine tests: dates, values, rows, lexer/parser, heap files, and
   a broad sweep of query semantics on a fixture database. *)

open Ironsafe_sql

(* -- Date ------------------------------------------------------------- *)

let test_date_epoch () =
  Alcotest.(check int) "epoch day 0" 0 (Date.of_ymd ~y:1970 ~m:1 ~d:1);
  Alcotest.(check int) "next day" 1 (Date.of_ymd ~y:1970 ~m:1 ~d:2);
  Alcotest.(check int) "before epoch" (-1) (Date.of_ymd ~y:1969 ~m:12 ~d:31)

let test_date_roundtrip () =
  List.iter
    (fun (y, m, d) ->
      let t = Date.of_ymd ~y ~m ~d in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "%04d-%02d-%02d" y m d)
        (y, m, d) (Date.to_ymd t))
    [
      (1970, 1, 1); (2000, 2, 29); (1900, 3, 1); (1992, 1, 2); (1998, 12, 1);
      (2400, 2, 29); (1600, 12, 31); (1, 1, 1);
    ]

let test_date_strings () =
  let t = Date.of_string "1994-07-15" in
  Alcotest.(check string) "roundtrip" "1994-07-15" (Date.to_string t);
  Alcotest.(check int) "year" 1994 (Date.year t);
  Alcotest.check_raises "bad string" (Invalid_argument "Date.of_string: \"nope\"")
    (fun () -> ignore (Date.of_string "nope"))

let test_date_leap () =
  Alcotest.(check bool) "2000 leap" true (Date.is_leap 2000);
  Alcotest.(check bool) "1900 not leap" false (Date.is_leap 1900);
  Alcotest.(check bool) "1996 leap" true (Date.is_leap 1996);
  Alcotest.(check int) "feb 1996" 29 (Date.days_in_month 1996 2);
  Alcotest.(check int) "feb 1997" 28 (Date.days_in_month 1997 2)

let test_date_arithmetic () =
  let d = Date.of_ymd ~y:1998 ~m:12 ~d:1 in
  Alcotest.(check string) "minus 90 days" "1998-09-02" (Date.to_string (Date.add_days d (-90)));
  let jan31 = Date.of_ymd ~y:1999 ~m:1 ~d:31 in
  Alcotest.(check string) "month clamp" "1999-02-28"
    (Date.to_string (Date.add_months jan31 1));
  Alcotest.(check string) "leap clamp" "2000-02-29"
    (Date.to_string (Date.add_months (Date.of_ymd ~y:2000 ~m:1 ~d:31) 1));
  Alcotest.(check string) "plus year" "1995-01-01"
    (Date.to_string (Date.add_years (Date.of_ymd ~y:1994 ~m:1 ~d:1) 1));
  Alcotest.(check string) "negative months" "1993-11-15"
    (Date.to_string (Date.add_months (Date.of_ymd ~y:1994 ~m:2 ~d:15) (-3)))

(* -- Values ------------------------------------------------------------ *)

let test_value_compare () =
  Alcotest.(check (option int)) "int lt" (Some (-1)) (Value.compare_opt (Value.Int 1) (Value.Int 2));
  Alcotest.(check (option int)) "mixed num" (Some 0)
    (Value.compare_opt (Value.Int 2) (Value.Float 2.0));
  Alcotest.(check (option int)) "null unknown" None
    (Value.compare_opt Value.Null (Value.Int 1));
  Alcotest.(check int) "total null first" (-1)
    (Value.compare_total Value.Null (Value.Int 0));
  Alcotest.check_raises "incomparable" (Value.Type_error "cannot compare 1 with x")
    (fun () -> ignore (Value.compare_opt (Value.Int 1) (Value.Str "x")))

let test_value_arith () =
  Alcotest.(check bool) "int add" true (Value.arith `Add (Value.Int 2) (Value.Int 3) = Value.Int 5);
  Alcotest.(check bool) "int div promotes" true
    (Value.arith `Div (Value.Int 7) (Value.Int 2) = Value.Float 3.5);
  Alcotest.(check bool) "div by zero is null" true
    (Value.arith `Div (Value.Int 1) (Value.Int 0) = Value.Null);
  Alcotest.(check bool) "null propagates" true
    (Value.arith `Add Value.Null (Value.Int 1) = Value.Null);
  Alcotest.(check bool) "date minus date" true
    (Value.arith `Sub (Value.Date 10) (Value.Date 4) = Value.Int 6);
  Alcotest.(check bool) "date plus days" true
    (Value.arith `Add (Value.Date 10) (Value.Int 5) = Value.Date 15)

let test_value_like () =
  let like p s = Value.like ~pattern:p s in
  Alcotest.(check bool) "exact" true (like "abc" "abc");
  Alcotest.(check bool) "pct suffix" true (like "ab%" "abcdef");
  Alcotest.(check bool) "pct prefix" true (like "%def" "abcdef");
  Alcotest.(check bool) "pct both" true (like "%cd%" "abcdef");
  Alcotest.(check bool) "underscore" true (like "a_c" "abc");
  Alcotest.(check bool) "no match" false (like "a_c" "abbc");
  Alcotest.(check bool) "multi pct" true (like "%special%requests%" "x special y requests z");
  Alcotest.(check bool) "multi pct order" false (like "%special%requests%" "requests then special");
  Alcotest.(check bool) "empty pattern" false (like "" "x");
  Alcotest.(check bool) "pct only" true (like "%" "");
  Alcotest.(check bool) "trailing pct empty" true (like "abc%" "abc")

let test_value_encoding () =
  let values =
    [
      Value.Null; Value.Bool true; Value.Bool false; Value.Int 0;
      Value.Int max_int; Value.Int (-42); Value.Float 3.14159;
      Value.Float (-0.0); Value.Str ""; Value.Str "hello";
      Value.Date (Date.of_ymd ~y:1995 ~m:6 ~d:17);
      Value.Date (Date.of_ymd ~y:1960 ~m:1 ~d:1);
    ]
  in
  List.iter
    (fun v ->
      let buf = Buffer.create 16 in
      Value.encode buf v;
      let c = Value.cursor (Buffer.contents buf) 0 in
      let v' = Value.decode c in
      Alcotest.(check bool) (Value.to_string v) true (v = v');
      Alcotest.(check int) "cursor past the value" (Buffer.length buf) c.Value.pos;
      Alcotest.(check int) "encoded_size" (Buffer.length buf) (Value.encoded_size v))
    values

(* -- Rows ---------------------------------------------------------------- *)

let test_row_roundtrip () =
  let row = [| Value.Int 1; Value.Str "x"; Value.Null; Value.Float 2.5 |] in
  let encoded = Row.encode row in
  let c = Value.cursor encoded 0 in
  let row' = Row.decode ~arity:4 c in
  Alcotest.(check bool) "row equal" true (row = row');
  Alcotest.(check int) "consumed all" (String.length encoded) c.Value.pos;
  Alcotest.(check int) "encoded_size" (String.length encoded) (Row.encoded_size row)

(* -- Lexer / Parser --------------------------------------------------------- *)

let test_lexer () =
  let toks = Lexer.tokenize "SELECT a, 'it''s' <> 1.5 -- comment\n <= >=" in
  Alcotest.(check int) "token count" 9 (List.length toks);
  (match toks with
  | Lexer.IDENT "select" :: Lexer.IDENT "a" :: Lexer.COMMA :: Lexer.STRING s :: _ ->
      Alcotest.(check string) "escaped quote" "it's" s
  | _ -> Alcotest.fail "unexpected tokens");
  Alcotest.check_raises "unterminated string" (Lexer.Lex_error "unterminated string literal")
    (fun () -> ignore (Lexer.tokenize "'oops"))

let parses sql =
  match Parser.parse sql with
  | _ -> ()
  | exception Parser.Parse_error e -> Alcotest.failf "%s: %s" sql e

let rejects sql =
  match Parser.parse sql with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.failf "accepted invalid SQL: %s" sql

let test_parser_accepts () =
  List.iter parses
    [
      "select 1 + 2 * 3 from t";
      "select a from t where a between 1 and 2 and b not like 'x%'";
      "select a from t1, t2 where t1.a = t2.b order by a desc limit 3";
      "select count(*), count(distinct a) from t group by b having count(*) > 1";
      "select a from t where exists (select * from u where u.k = t.k)";
      "select a from t where a in (1, 2, 3) and b not in (select c from u)";
      "select case when a = 1 then 'one' else 'other' end from t";
      "select extract(year from d) from t where d >= date '1994-01-01' + interval '3' month";
      "select x.n from (select count(*) as n from t group by k) x";
      "select a from t left outer join u on t.k = u.k and u.v > 0";
      "create table t (a int, b varchar(25), c decimal(15, 2), d date)";
      "insert into t (a, b) values (1, 'x'), (2, 'y')";
      "update t set a = a + 1 where b = 'x'";
      "delete from t where a < 0";
      "drop table t";
      "select distinct a, b from t";
      "select a from t where x is not null and y is null";
    ]

let test_parser_rejects () =
  List.iter rejects
    [
      "select"; "select a"; "select a from"; "select a from t where";
      "select a from t group by"; "frobnicate t"; "select a from t limit x";
      "select sum() from t"; "select a from t order";
      "select a from t; extra tokens";
    ]

(* -- Heap file ----------------------------------------------------------------- *)

let fixture_schema =
  Schema.create ~name:"t" ~columns:[ ("a", Value.TInt); ("b", Value.TStr) ]

let test_heap_file () =
  let pager = Pager.in_memory () in
  let hf = Heap_file.create ~pager ~schema:fixture_schema in
  for i = 1 to 500 do
    Heap_file.append hf [| Value.Int i; Value.Str (String.make (i mod 50) 'x') |]
  done;
  Heap_file.flush hf;
  Alcotest.(check int) "row count" 500 (Heap_file.row_count hf);
  Alcotest.(check bool) "multiple pages" true (Heap_file.page_count hf > 1);
  let sum = ref 0 in
  Heap_file.iter hf ~f:(fun r -> sum := !sum + Value.as_int r.(0));
  Alcotest.(check int) "scan order and completeness" (500 * 501 / 2) !sum

let test_heap_rewrite () =
  let pager = Pager.in_memory () in
  let hf = Heap_file.create ~pager ~schema:fixture_schema in
  for i = 1 to 100 do
    Heap_file.append hf [| Value.Int i; Value.Str "r" |]
  done;
  let affected =
    Heap_file.rewrite hf ~f:(fun r ->
        match r.(0) with
        | Value.Int i when i mod 2 = 0 -> `Delete
        | Value.Int i when i < 10 -> `Replace [| Value.Int (i * 100); Value.Str "r" |]
        | _ -> `Keep)
  in
  Alcotest.(check int) "affected" 55 affected;
  Alcotest.(check int) "rows left" 50 (Heap_file.row_count hf);
  let max_val = ref 0 in
  Heap_file.iter hf ~f:(fun r -> max_val := max !max_val (Value.as_int r.(0)));
  Alcotest.(check int) "replacement applied" 900 !max_val

let test_heap_reload_tamper_vs_tail () =
  (* a pager whose reads can be made to fail like a tampered secure
     page, or to look like a never-durably-written tail allocation *)
  let pages : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let poisoned = ref None in
  let next = ref 0 in
  let pager =
    Pager.make ~capacity:4096
      ~read:(fun i ->
        if !poisoned = Some i then
          raise (Pager.Integrity_failure "page failed integrity check")
        else
          Option.value
            ~default:(String.make 4096 '\000')
            (Hashtbl.find_opt pages i))
      ~write:(fun i data -> Hashtbl.replace pages i data)
      ~allocate:(fun () ->
        let i = !next in
        incr next;
        i)
      ~page_count:(fun () -> !next)
      ()
  in
  let hf = Heap_file.create ~pager ~schema:fixture_schema in
  for i = 1 to 500 do
    Heap_file.append hf [| Value.Int i; Value.Str (String.make (i mod 50) 'x') |]
  done;
  Heap_file.flush hf;
  let all_pages = Heap_file.stored_pages hf in
  Alcotest.(check bool) "multiple pages" true (List.length all_pages >= 3);
  (* a clean reload keeps every row *)
  Heap_file.reload hf;
  Alcotest.(check int) "clean reload keeps rows" 500 (Heap_file.row_count hf);
  (* a tail page the store can no longer serve (rolled-back allocation
     decodes as garbage) is dropped... *)
  let last_page = List.nth all_pages (List.length all_pages - 1) in
  Hashtbl.replace pages last_page (String.make 4096 '\xff');
  Heap_file.reload hf;
  Alcotest.(check bool) "garbage tail dropped" true
    (Heap_file.row_count hf < 500);
  (* ...but a tampered page in the middle is an integrity violation:
     reload must propagate it, not mask it as truncation *)
  Hashtbl.remove pages last_page;
  poisoned := Some (List.nth all_pages 1);
  (match Heap_file.reload hf with
  | () -> Alcotest.fail "tampered middle page masked as a truncated tail"
  | exception Pager.Integrity_failure _ -> ())

(* -- Query semantics on a fixture --------------------------------------------- *)

let fixture () =
  let db = Database.create ~pager:(Pager.in_memory ()) in
  ignore (Database.exec db "create table dept (dkey int, dname varchar, budget double)");
  ignore
    (Database.exec db
       "create table emp (ekey int, ename varchar, dkey int, salary double, hired date, boss int)");
  ignore
    (Database.exec db
       "insert into dept values (1, 'eng', 1000.0), (2, 'sales', 500.0), (3, 'hr', 200.0), (4, 'empty', 0.0)");
  ignore
    (Database.exec db
       "insert into emp values \
        (1, 'ann', 1, 100.0, date '2020-01-15', null), \
        (2, 'bob', 1, 90.0, date '2021-06-01', 1), \
        (3, 'cat', 2, 80.0, date '2019-03-10', null), \
        (4, 'dan', 2, 70.5, date '2022-11-30', 3), \
        (5, 'eve', 3, 60.0, date '2018-07-04', null), \
        (6, 'fox', 1, 100.0, date '2023-02-01', 1)");
  db

let rows db sql =
  (Database.query db sql).Exec.rows |> List.map (fun r -> Array.to_list r |> List.map Value.to_string)

let check_rows msg expected actual =
  Alcotest.(check (list (list string))) msg expected actual

let test_q_filter_order_limit () =
  let db = fixture () in
  check_rows "filter + order + limit"
    [ [ "ann" ]; [ "fox" ]; [ "bob" ] ]
    (rows db "select ename from emp where salary >= 90 order by salary desc, ename limit 3")

let test_q_projection_expr () =
  let db = fixture () in
  check_rows "arith and alias"
    [ [ "ann"; "110.00" ] ]
    (rows db "select ename, salary * 1.1 as bumped from emp where ekey = 1")

let test_q_join_implicit () =
  let db = fixture () in
  check_rows "implicit join"
    [ [ "ann"; "eng" ]; [ "bob"; "eng" ]; [ "fox"; "eng" ] ]
    (rows db
       "select ename, dname from emp, dept where emp.dkey = dept.dkey and dname = 'eng' order by ename")

let test_q_join_self () =
  let db = fixture () in
  check_rows "self join with aliases"
    [ [ "bob"; "ann" ]; [ "dan"; "cat" ]; [ "fox"; "ann" ] ]
    (rows db
       "select e.ename, b.ename from emp e, emp b where e.boss = b.ekey order by e.ename")

let test_q_left_join () =
  let db = fixture () in
  check_rows "left join keeps unmatched"
    [ [ "empty"; "0" ]; [ "eng"; "3" ]; [ "hr"; "1" ]; [ "sales"; "2" ] ]
    (rows db
       "select d.dname, count(e.ekey) as n from dept d left join emp e on e.dkey = d.dkey \
        group by d.dname order by d.dname")

let test_q_left_join_on_filter () =
  let db = fixture () in
  (* ON-clause filter applies before null-extension *)
  check_rows "left join with on filter"
    [ [ "empty"; "0" ]; [ "eng"; "1" ]; [ "hr"; "1" ]; [ "sales"; "2" ] ]
    (rows db
       "select d.dname, count(e.ekey) as n from dept d left join emp e on e.dkey = d.dkey \
        and e.salary < 95 group by d.dname order by d.dname")

let test_q_aggregates () =
  let db = fixture () in
  check_rows "aggregate family"
    [ [ "6"; "500.50"; "83.42"; "60.00"; "100.00" ] ]
    (rows db "select count(*), sum(salary), avg(salary), min(salary), max(salary) from emp");
  check_rows "count distinct"
    [ [ "3" ] ]
    (rows db "select count(distinct salary) from emp where salary >= 80");
  check_rows "count skips nulls" [ [ "3" ] ] (rows db "select count(boss) from emp")

let test_q_group_having () =
  let db = fixture () in
  check_rows "group by + having"
    [ [ "1"; "3" ]; [ "2"; "2" ] ]
    (rows db "select dkey, count(*) as n from emp group by dkey having count(*) > 1 order by dkey")

let test_q_agg_empty_input () =
  let db = fixture () in
  check_rows "aggregates over empty set"
    [ [ "0"; "NULL"; "NULL" ] ]
    (rows db "select count(*), sum(salary), max(salary) from emp where salary > 1000")

let test_q_group_empty_input () =
  let db = fixture () in
  check_rows "group by over empty set yields no rows" []
    (rows db "select dkey, count(*) from emp where salary > 1000 group by dkey")

let test_q_in_subquery () =
  let db = fixture () in
  check_rows "in subquery"
    [ [ "ann" ]; [ "bob" ]; [ "cat" ]; [ "dan" ]; [ "fox" ] ]
    (rows db
       "select ename from emp where dkey in (select dkey from dept where budget >= 500) order by ename");
  check_rows "not in subquery" [ [ "eve" ] ]
    (rows db
       "select ename from emp where dkey not in (select dkey from dept where budget >= 500) order by ename")

let test_q_exists_correlated () =
  let db = fixture () in
  check_rows "correlated exists"
    [ [ "bob" ]; [ "dan" ] ]
    (rows db
       "select ename from emp e where exists (select * from emp e2 where e2.dkey = e.dkey \
        and e2.salary > e.salary) order by ename");
  check_rows "correlated not exists"
    [ [ "ann" ]; [ "cat" ]; [ "eve" ]; [ "fox" ] ]
    (rows db
       "select ename from emp e where not exists (select * from emp e2 where e2.dkey = e.dkey \
        and e2.salary > e.salary) order by ename")

let test_q_scalar_subquery () =
  let db = fixture () in
  check_rows "correlated scalar subquery"
    [ [ "eng"; "100.00" ]; [ "hr"; "60.00" ]; [ "sales"; "80.00" ] ]
    (rows db
       "select d.dname, (select max(salary) from emp where emp.dkey = d.dkey) as top \
        from dept d where d.dname <> 'empty' order by d.dname");
  (* scalar subquery over empty set is NULL *)
  check_rows "empty scalar is null"
    [ [ "empty"; "NULL" ] ]
    (rows db
       "select d.dname, (select max(salary) from emp where emp.dkey = d.dkey) as top \
        from dept d where d.dname = 'empty'")

let test_q_derived_table () =
  let db = fixture () in
  check_rows "derived table with two-level aggregation"
    [ [ "1"; "1" ]; [ "2"; "1" ]; [ "3"; "1" ] ]
    (rows db
       "select n, count(*) as c from (select dkey, count(*) as n from emp group by dkey) x \
        group by n order by n")

let test_q_case_extract () =
  let db = fixture () in
  check_rows "case + extract"
    [ [ "2018"; "lo" ]; [ "2019"; "lo" ]; [ "2020"; "hi" ]; [ "2021"; "hi" ];
      [ "2022"; "lo" ]; [ "2023"; "hi" ] ]
    (rows db
       "select extract(year from hired) as y, case when salary >= 90 then 'hi' else 'lo' end as band \
        from emp order by y")

let test_q_between_in_like () =
  let db = fixture () in
  check_rows "between" [ [ "cat" ]; [ "dan" ] ]
    (rows db "select ename from emp where salary between 70 and 85 order by ename");
  check_rows "not between" [ [ "ann" ]; [ "bob" ]; [ "eve" ]; [ "fox" ] ]
    (rows db "select ename from emp where salary not between 70 and 85 order by ename");
  check_rows "in list" [ [ "ann" ]; [ "cat" ] ]
    (rows db "select ename from emp where ekey in (1, 3) order by ename");
  check_rows "like" [ [ "bob" ] ] (rows db "select ename from emp where ename like 'b%'")

let test_q_date_predicates () =
  let db = fixture () in
  check_rows "date + interval"
    [ [ "ann" ]; [ "bob" ]; [ "dan" ]; [ "fox" ] ]
    (rows db
       "select ename from emp where hired >= date '2019-01-15' + interval '1' year order by ename")

let test_q_is_null () =
  let db = fixture () in
  check_rows "is null" [ [ "ann" ]; [ "cat" ]; [ "eve" ] ]
    (rows db "select ename from emp where boss is null order by ename");
  check_rows "is not null" [ [ "bob" ]; [ "dan" ]; [ "fox" ] ]
    (rows db "select ename from emp where boss is not null order by ename")

let test_q_or_of_ands () =
  let db = fixture () in
  check_rows "disjunctive filter"
    [ [ "ann" ]; [ "eve" ]; [ "fox" ] ]
    (rows db
       "select ename from emp where (dkey = 1 and salary >= 100) or (dkey = 3 and salary <= 60) \
        order by ename")

let test_q_order_by_alias_and_expr () =
  let db = fixture () in
  check_rows "order by alias"
    [ [ "eve"; "60.00" ]; [ "dan"; "70.50" ]; [ "cat"; "80.00" ] ]
    (rows db "select ename, salary as pay from emp order by pay limit 3");
  check_rows "order by expression not in projection"
    [ [ "eve" ]; [ "dan" ] ]
    (rows db "select ename from emp order by salary * 2 limit 2")

let test_q_distinct () =
  let db = fixture () in
  check_rows "select distinct" [ [ "1" ]; [ "2" ]; [ "3" ] ]
    (rows db "select distinct dkey from emp order by dkey")

let test_q_update_delete () =
  let db = fixture () in
  (match Database.exec db "update emp set salary = salary + 10 where dkey = 3" with
  | Database.Affected 1 -> ()
  | _ -> Alcotest.fail "update count");
  check_rows "update applied" [ [ "70.00" ] ]
    (rows db "select salary from emp where ename = 'eve'");
  (match Database.exec db "delete from emp where dkey = 1" with
  | Database.Affected 3 -> ()
  | _ -> Alcotest.fail "delete count");
  check_rows "delete applied" [ [ "3" ] ] (rows db "select count(*) from emp")

let test_q_insert_partial_columns () =
  let db = fixture () in
  ignore (Database.exec db "insert into emp (ekey, ename, dkey, salary, hired) values (7, 'gus', 3, 55.0, date '2024-01-01')");
  check_rows "missing column is null" [ [ "NULL" ] ]
    (rows db "select boss from emp where ename = 'gus'")

let test_q_errors () =
  let db = fixture () in
  let fails sql =
    match Database.exec db sql with
    | exception Exec.Sql_error _ -> ()
    | exception Catalog.Unknown_table _ -> ()
    | _ -> Alcotest.failf "no error for: %s" sql
  in
  fails "select nope from emp";
  fails "select ename from nonexistent";
  fails "select e.nope from emp e";
  fails "insert into emp (nope) values (1)";
  fails "select ekey from emp, dept where dkey = 1" (* ambiguous dkey *)

let test_q_null_not_in_semantics () =
  let db = fixture () in
  (* NOT IN against a set containing NULL selects nothing *)
  check_rows "not in with null set" []
    (rows db "select ename from emp where ekey not in (select boss from emp)")

(* -- Property tests ------------------------------------------------------------ *)

(* Values for the executor's fast paths: every kind, drawn from small
   ranges so that equal and integral values are common, with the float
   edges that a fast path could get wrong. *)
let fast_value_gen =
  let open QCheck.Gen in
  frequency
    [
      (1, return Value.Null);
      (1, map (fun b -> Value.Bool b) bool);
      (4, map (fun i -> Value.Int i) (-20 -- 20));
      (1, map (fun i -> Value.Int i) int);
      (4, map (fun i -> Value.Float (float_of_int i /. 4.0)) (-80 -- 80));
      ( 1,
        oneofl
          (List.map
             (fun f -> Value.Float f)
             [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity;
               1e300; 5e-324 ]) );
      (2, map (fun d -> Value.Date d) (9000 -- 9010));
      (2, map (fun s -> Value.Str s) (oneofl [ ""; "a"; "b"; "ab" ]));
    ]

let try_value f = match f () with v -> Ok v | exception Value.Type_error _ -> Error ()

(* equal results, floats bit for bit *)
let same_outcome a b =
  match (a, b) with
  | Ok (Value.Float x), Ok (Value.Float y) ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Ok v, Ok w -> v = w
  | Error (), Error () -> true
  | _ -> false

(* Value sequences for an aggregate: mostly one family of kinds (a
   numeric mix, strings or dates) with NULLs, sometimes anything. *)
let agg_input_gen =
  let open QCheck.Gen in
  let numeric =
    frequency
      [
        (1, return Value.Null);
        (3, map (fun i -> Value.Int i) (-5 -- 5));
        (3, map (fun i -> Value.Float (float_of_int i /. 3.0)) (-15 -- 15));
      ]
  in
  let strings =
    frequency
      [ (1, return Value.Null); (3, map (fun s -> Value.Str s) (oneofl [ "x"; "y"; "z" ])) ]
  in
  let dates =
    frequency [ (1, return Value.Null); (3, map (fun d -> Value.Date d) (100 -- 105)) ]
  in
  frequency
    [
      (6, list_size (0 -- 12) numeric);
      (1, list_size (0 -- 8) strings);
      (1, list_size (0 -- 8) dates);
      (2, list_size (0 -- 6) fast_value_gen);
    ]

(* SUM/AVG/MIN/MAX/COUNT as a fold of [Value.arith] and
   [Value.compare_opt]: NULLs skipped, DISTINCT dropping values
   key-equal to an earlier one (it never changes MIN or MAX). *)
let reference_agg func ~distinct values =
  let values = List.filter (fun v -> v <> Value.Null) values in
  let values =
    if not distinct then values
    else
      List.rev
        (List.fold_left
           (fun seen v ->
             if List.exists (Value.key_equal v) seen then seen else v :: seen)
           [] values)
  in
  let pick keep =
    List.fold_left
      (fun cur v ->
        match Value.compare_opt v cur with
        | None -> v
        | Some c -> if keep c then v else cur)
      Value.Null values
  in
  match func with
  | Ast.Count -> Value.Int (List.length values)
  | Ast.Sum ->
      List.fold_left
        (fun cur v -> if cur = Value.Null then v else Value.arith `Add cur v)
        Value.Null values
  | Ast.Avg ->
      if values = [] then Value.Null
      else
        let sum = List.fold_left (fun s v -> s +. Value.as_float v) 0.0 values in
        Value.Float (sum /. float_of_int (List.length values))
  | Ast.Min -> pick (fun c -> c < 0)
  | Ast.Max -> pick (fun c -> c > 0)

let qcheck_tests =
  let open QCheck in
  let value_gen =
    Gen.oneof
      [
        Gen.return Value.Null;
        Gen.map (fun b -> Value.Bool b) Gen.bool;
        Gen.map (fun i -> Value.Int i) Gen.int;
        Gen.map (fun f -> Value.Float f) (Gen.float_bound_inclusive 1e9);
        Gen.map (fun s -> Value.Str s) Gen.(string_size (0 -- 40));
        Gen.map (fun d -> Value.Date d) Gen.(-100_000 -- 100_000);
      ]
  in
  (* every value kind, with the edges of each encoding *)
  let edge_gen =
    Gen.oneofl
      [
        Value.Int min_int; Value.Int max_int; Value.Int (-1); Value.Int 0;
        Value.Float (-0.0); Value.Float Float.nan;
        Value.Float (Int64.float_of_bits 0x7ff8_0000_0000_0123L);
        Value.Float Float.infinity; Value.Float Float.neg_infinity;
        Value.Float Float.max_float; Value.Str ""; Value.Date min_int;
      ]
  in
  (* a row of many small values, or one string as long as a row can
     hold: a body of exactly 0xffff bytes, the most [Row.encode]
     accepts *)
  let row_gen =
    Gen.frequency
      [
        ( 9,
          Gen.map Array.of_list
            Gen.(list_size (1 -- 10) (frequency [ (3, value_gen); (1, edge_gen) ]))
        );
        (1, Gen.return [| Value.Str (String.make (0xffff - 3) 'r') |]);
      ]
  in
  (* floats compare by bits, so NaN and -0.0 must survive exactly *)
  let same a b =
    match (a, b) with
    | Value.Float x, Value.Float y ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | _ -> a = b
  in
  let print_row r = Format.asprintf "%a" Row.pp r in
  (* a row and a mask over its values *)
  let masked_gen =
    Gen.(
      row_gen >>= fun row ->
      map (fun mask -> (row, Array.of_list mask)) (list_repeat (Array.length row) bool))
  in
  let print_masked (row, mask) =
    Printf.sprintf "%s mask %s" (print_row row)
      (String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") mask)))
  in
  (* what a decoder raises, by class *)
  let outcome decode =
    match decode () with
    | _ -> "ok"
    | exception Value.Type_error _ -> "Type_error"
    | exception Invalid_argument _ -> "Invalid_argument"
    | exception Failure _ -> "Failure"
  in
  (* [how]: 0 truncates the row, 1 writes a bad tag over a value's, 2
     rewrites a string's length (a row without a string is truncated),
     3 rewrites the low byte of the row's length *)
  let corrupt row ~how ~pick ~byte =
    let enc = Bytes.of_string (Row.encode row) in
    let starts =
      snd
        (Array.fold_left
           (fun (off, acc) v -> (off + Value.encoded_size v, (off, v) :: acc))
           (2, []) row)
      |> List.rev
    in
    let strings = List.filter (function _, Value.Str _ -> true | _ -> false) starts in
    match (how, strings) with
    | 1, _ ->
        let off, _ = List.nth starts (pick mod List.length starts) in
        let tag = Char.chr byte in
        Bytes.set enc off (if String.contains "NTFIDSA" tag then '?' else tag);
        Bytes.to_string enc
    | 2, _ :: _ ->
        let off, _ = List.nth strings (pick mod List.length strings) in
        Bytes.set enc (off + 1) (Char.chr byte);
        Bytes.set enc (off + 2) (Char.chr (pick land 0xff));
        Bytes.to_string enc
    | 3, _ ->
        Bytes.set enc 1 (Char.chr byte);
        Bytes.to_string enc
    | _ -> Bytes.sub_string enc 0 (pick mod Bytes.length enc)
  in
  [
    Test.make ~name:"masked row decode agrees with full decode" ~count:300
      (make ~print:print_masked masked_gen)
      (fun (row, mask) ->
        let encoded = "pg" ^ Row.encode row in
        let arity = Array.length row in
        let full_c = Value.cursor encoded 2 in
        let full = Row.decode ~arity full_c in
        let c = Value.cursor encoded 2 in
        let got = Array.make arity Value.Null in
        let heap = Row.decode_into ~mask c got in
        heap = Row.heap_size full
        && c.Value.pos = full_c.Value.pos
        && Array.for_all Fun.id
             (Array.mapi
                (fun i v -> if mask.(i) then same v full.(i) else v = Value.Null)
                got));
    Test.make ~name:"masked row decode fails as full decode" ~count:500
      (make
         ~print:(fun ((row, mask), (how, pick, byte)) ->
           Printf.sprintf "%s how %d pick %d byte %d" (print_masked (row, mask)) how
             pick byte)
         Gen.(pair masked_gen (triple (0 -- 3) nat (0 -- 255))))
      (fun ((row, mask), (how, pick, byte)) ->
        let encoded = corrupt row ~how ~pick ~byte in
        let arity = Array.length row in
        outcome (fun () -> Row.decode ~arity (Value.cursor encoded 0))
        = outcome (fun () ->
              Row.decode_into ~mask (Value.cursor encoded 0) (Array.make arity Value.Null)));
    Test.make ~name:"row encode/decode roundtrip" ~count:300
      (make ~print:print_row row_gen)
      (fun row ->
        let encoded = Row.encode row in
        (* decode from a non-zero offset, as rows sit inside a page *)
        let c = Value.cursor ("pg" ^ encoded) 2 in
        let row' = Row.decode ~arity:(Array.length row) c in
        Row.encoded_size row = String.length encoded
        && c.Value.pos = 2 + String.length encoded
        && Array.length row' = Array.length row
        && Array.for_all2 same row row');
    (* hash tables key on [Value.key_equal]; equal keys must hash alike,
       across Int/Float/Date and past 2^53 where int->float rounds *)
    Test.make ~name:"value hash agrees with key_equal" ~count:500
      (make
         Gen.(
           pair
             (oneof [ int; int_range (-4) 4; map (fun e -> (1 lsl 53) + e) (int_range (-3) 3) ])
             (int_range 0 3)))
      (fun (n, kind) ->
        let a = Value.Int n in
        let b =
          match kind with
          | 0 -> Value.Float (float_of_int n)
          | 1 -> Value.Date n
          | 2 -> Value.Float (float_of_int n +. 0.5)
          | _ -> Value.Int n
        in
        (not (Value.key_equal a b)) || Value.hash a = Value.hash b);
    Test.make ~name:"compare_sql agrees with compare_opt" ~count:2000
      (make Gen.(pair fast_value_gen fast_value_gen))
      (fun (a, b) ->
        let expected =
          match Value.compare_opt a b with
          | Some c -> Ok c
          | None -> Ok Value.null_cmp
          | exception Value.Type_error _ -> Error ()
        in
        let got =
          match Value.compare_sql a b with
          | c -> Ok c
          | exception Value.Type_error _ -> Error ()
        in
        got = expected);
    Test.make ~name:"arithmetic fast paths equal Value.arith" ~count:2000
      (make Gen.(pair fast_value_gen fast_value_gen))
      (fun (a, b) ->
        List.for_all
          (fun (op, fast) ->
            same_outcome (try_value (fun () -> Value.arith op a b))
              (try_value (fun () -> fast a b)))
          [ (`Add, Value.add); (`Sub, Value.sub); (`Mul, Value.mul);
            (`Div, Value.div) ]);
    Test.make ~name:"aggregates equal a reference fold" ~count:1000
      (make agg_input_gen)
      (fun values ->
        List.for_all
          (fun (func, distinct) ->
            let got =
              try_value (fun () ->
                  let st = Agg_state.create func ~distinct in
                  List.iter (Agg_state.update_value st) values;
                  Agg_state.finish st)
            in
            same_outcome (try_value (fun () -> reference_agg func ~distinct values)) got)
          [ (Ast.Count, false); (Ast.Count, true); (Ast.Sum, false);
            (Ast.Sum, true); (Ast.Avg, false); (Ast.Avg, true);
            (Ast.Min, false); (Ast.Min, true); (Ast.Max, false);
            (Ast.Max, true) ]);
    Test.make ~name:"date ymd roundtrip" ~count:500
      (make Gen.(pair (1 -- 3000) (pair (1 -- 12) (1 -- 28))))
      (fun (y, (m, d)) -> Date.to_ymd (Date.of_ymd ~y ~m ~d) = (y, m, d));
    Test.make ~name:"add_months composes" ~count:200
      (make Gen.(pair (0 -- 20000) (pair (0 -- 24) (0 -- 24))))
      (fun (t, (a, b)) ->
        (* composing month shifts in either order lands in the same month *)
        let m1 = Date.add_months (Date.add_months t a) b in
        let m2 = Date.add_months t (a + b) in
        let y1, mo1, _ = Date.to_ymd m1 and y2, mo2, _ = Date.to_ymd m2 in
        (y1, mo1) = (y2, mo2));
    Test.make ~name:"filter equals manual filter" ~count:30
      (make Gen.(list_size (0 -- 30) (pair (0 -- 100) (0 -- 100))))
      (fun pairs ->
        let db = Database.create ~pager:(Pager.in_memory ()) in
        ignore (Database.exec db "create table p (a int, b int)");
        if pairs <> [] then
          Database.insert_rows db "p"
            (List.map (fun (a, b) -> [| Value.Int a; Value.Int b |]) pairs);
        let got =
          (Database.query db "select a from p where a < b order by a").Exec.rows
          |> List.map (fun r -> Value.as_int r.(0))
        in
        let expected =
          List.filter (fun (a, b) -> a < b) pairs |> List.map fst |> List.sort compare
        in
        got = expected);
  ]

let suite =
  [
    ("date epoch", `Quick, test_date_epoch);
    ("date ymd roundtrip", `Quick, test_date_roundtrip);
    ("date strings", `Quick, test_date_strings);
    ("date leap", `Quick, test_date_leap);
    ("date arithmetic", `Quick, test_date_arithmetic);
    ("value compare", `Quick, test_value_compare);
    ("value arith", `Quick, test_value_arith);
    ("value like", `Quick, test_value_like);
    ("value encoding", `Quick, test_value_encoding);
    ("row roundtrip", `Quick, test_row_roundtrip);
    ("lexer", `Quick, test_lexer);
    ("parser accepts", `Quick, test_parser_accepts);
    ("parser rejects", `Quick, test_parser_rejects);
    ("heap file", `Quick, test_heap_file);
    ("heap rewrite", `Quick, test_heap_rewrite);
    ("heap reload tamper vs tail", `Quick, test_heap_reload_tamper_vs_tail);
    ("q: filter/order/limit", `Quick, test_q_filter_order_limit);
    ("q: projection expr", `Quick, test_q_projection_expr);
    ("q: implicit join", `Quick, test_q_join_implicit);
    ("q: self join", `Quick, test_q_join_self);
    ("q: left join", `Quick, test_q_left_join);
    ("q: left join on filter", `Quick, test_q_left_join_on_filter);
    ("q: aggregates", `Quick, test_q_aggregates);
    ("q: group having", `Quick, test_q_group_having);
    ("q: agg empty input", `Quick, test_q_agg_empty_input);
    ("q: group empty input", `Quick, test_q_group_empty_input);
    ("q: in subquery", `Quick, test_q_in_subquery);
    ("q: exists correlated", `Quick, test_q_exists_correlated);
    ("q: scalar subquery", `Quick, test_q_scalar_subquery);
    ("q: derived table", `Quick, test_q_derived_table);
    ("q: case/extract", `Quick, test_q_case_extract);
    ("q: between/in/like", `Quick, test_q_between_in_like);
    ("q: date predicates", `Quick, test_q_date_predicates);
    ("q: is null", `Quick, test_q_is_null);
    ("q: or of ands", `Quick, test_q_or_of_ands);
    ("q: order by alias/expr", `Quick, test_q_order_by_alias_and_expr);
    ("q: distinct", `Quick, test_q_distinct);
    ("q: update/delete", `Quick, test_q_update_delete);
    ("q: insert partial columns", `Quick, test_q_insert_partial_columns);
    ("q: errors", `Quick, test_q_errors);
    ("q: not in with null", `Quick, test_q_null_not_in_semantics);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
