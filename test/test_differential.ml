(* Differential testing across the five Table-2 configurations: for
   randomly generated SELECTs (filters, projections, aggregates, group
   bys, small joins) over a seeded TPC-H database, every configuration
   (hons, hos, vcs, scs, sos) must return exactly the same rows. This
   is the paper's core functional claim — the security and offloading
   machinery must never change query answers.

   The generator deliberately leans on the small TPC-H tables (region,
   nation, supplier, customer, part): the secure configurations really
   decrypt and verify every page they scan with the pure-OCaml crypto,
   so scan volume, not query count, sets the cost. *)

open Ironsafe
module Sql = Ironsafe_sql
module Tpch = Ironsafe_tpch

(* one shared deployment, built once, at SF 0.01 *)
let deploy =
  lazy
    (Deployment.create ~seed:"differential-test"
       ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:0.01))
       ())

(* order-insensitive canonical form: the row multiset, rendered *)
let canonical (r : Sql.Exec.result) =
  ( r.Sql.Exec.columns,
    List.sort compare
      (List.map
         (fun row ->
           String.concat "|"
             (Array.to_list (Array.map Sql.Value.to_string row)))
         r.Sql.Exec.rows) )

(* -- query generator ---------------------------------------------------- *)

type col = { cname : string; numeric : bool }

type table = {
  tname : string;
  pk : string;
  cols : col list;  (** projectable columns *)
  preds : string list;  (** single-table predicates, SQL text *)
}

let i = fun cname -> { cname; numeric = true }
let s = fun cname -> { cname; numeric = false }

let tables =
  [|
    {
      tname = "region";
      pk = "r_regionkey";
      cols = [ i "r_regionkey"; s "r_name" ];
      preds = [ "r_regionkey < 3"; "r_regionkey >= 2"; "r_name = 'EUROPE'" ];
    };
    {
      tname = "nation";
      pk = "n_nationkey";
      cols = [ i "n_nationkey"; s "n_name"; i "n_regionkey" ];
      preds =
        [
          "n_regionkey = 1"; "n_regionkey <> 3"; "n_nationkey < 12";
          "n_nationkey >= 7"; "n_name < 'K'";
        ];
    };
    {
      tname = "supplier";
      pk = "s_suppkey";
      cols = [ i "s_suppkey"; s "s_name"; i "s_nationkey"; i "s_acctbal" ];
      preds =
        [
          "s_nationkey < 10"; "s_acctbal > 0"; "s_acctbal <= 5000";
          "s_suppkey >= 50"; "s_suppkey < 30";
        ];
    };
    {
      tname = "customer";
      pk = "c_custkey";
      cols = [ i "c_custkey"; i "c_nationkey"; i "c_acctbal"; s "c_mktsegment" ];
      preds =
        [
          "c_mktsegment = 'BUILDING'"; "c_mktsegment <> 'AUTOMOBILE'";
          "c_nationkey = 5"; "c_acctbal < 0"; "c_custkey <= 400";
          "c_custkey > 1200";
        ];
    };
    {
      tname = "part";
      pk = "p_partkey";
      cols = [ i "p_partkey"; s "p_brand"; i "p_size"; i "p_retailprice" ];
      preds =
        [
          "p_size < 15"; "p_size >= 40"; "p_brand = 'Brand#32'";
          "p_retailprice > 1500"; "p_partkey < 500";
        ];
    };
  |]

(* foreign-key joins among the small tables *)
let joins =
  [|
    ("nation", "region", "n_regionkey = r_regionkey", "n_nationkey");
    ("supplier", "nation", "s_nationkey = n_nationkey", "s_suppkey");
    ("customer", "nation", "c_nationkey = n_nationkey", "c_custkey");
  |]

let sample g arr = arr.(QCheck.Gen.int_bound (Array.length arr - 1) g)

let sample_list g l = List.nth l (QCheck.Gen.int_bound (List.length l - 1) g)

let where_of g (t : table) =
  match QCheck.Gen.int_bound 3 g with
  | 0 -> "" (* unfiltered *)
  | 1 -> " where " ^ sample_list g t.preds
  | _ ->
      let a = sample_list g t.preds and b = sample_list g t.preds in
      let conn = if QCheck.Gen.bool g then " and " else " or " in
      " where " ^ a ^ conn ^ b

let numeric_col g t =
  sample_list g (List.filter (fun c -> c.numeric) t.cols)

(* the five query shapes *)
let gen_scan g =
  let t = sample g tables in
  let cols =
    match QCheck.Gen.int_bound 2 g with
    | 0 -> [ t.pk ]
    | 1 -> List.map (fun c -> c.cname) t.cols
    | _ -> [ t.pk; (sample_list g t.cols).cname ]
  in
  let cols = List.sort_uniq compare cols in
  let limit =
    if QCheck.Gen.bool g then
      (* limit needs a total order to be deterministic across configs *)
      Printf.sprintf " order by %s limit %d" t.pk (QCheck.Gen.int_range 1 40 g)
    else ""
  in
  Printf.sprintf "select %s from %s%s%s" (String.concat ", " cols) t.tname
    (where_of g t) limit

let gen_aggregate g =
  let t = sample g tables in
  let c = numeric_col g t in
  let agg =
    sample g
      [|
        "count(*) as n";
        Printf.sprintf "sum(%s) as s" c.cname;
        Printf.sprintf "min(%s) as mn, max(%s) as mx" c.cname c.cname;
        Printf.sprintf "count(*) as n, avg(%s) as a" c.cname;
      |]
  in
  Printf.sprintf "select %s from %s%s" agg t.tname (where_of g t)

let gen_group_by g =
  let t = sample g tables in
  let group_cols =
    List.filter (fun c -> not c.numeric || c.cname <> t.pk) t.cols
  in
  let gc = sample_list g group_cols in
  let c = numeric_col g t in
  Printf.sprintf
    "select %s, count(*) as n, sum(%s) as s from %s%s group by %s order by %s"
    gc.cname c.cname t.tname (where_of g t) gc.cname gc.cname

let gen_join g =
  let a_name, b_name, cond, a_pk = sample g joins in
  let find n = List.find (fun t -> t.tname = n) (Array.to_list tables) in
  let a = find a_name and b = find b_name in
  let pa = if QCheck.Gen.bool g then " and " ^ sample_list g a.preds else "" in
  let pb = if QCheck.Gen.bool g then " and " ^ sample_list g b.preds else "" in
  if QCheck.Gen.bool g then
    Printf.sprintf
      "select %s, count(*) as n from %s, %s where %s%s%s group by %s order by %s"
      b.pk a_name b_name cond pa pb b.pk b.pk
  else
    Printf.sprintf
      "select %s, %s from %s, %s where %s%s%s order by %s limit 30" a_pk b.pk
      a_name b_name cond pa pb a_pk

let query_gen : string QCheck.Gen.t =
 fun g ->
  match QCheck.Gen.int_bound 9 g with
  | 0 | 1 | 2 -> gen_scan g
  | 3 | 4 | 5 -> gen_aggregate g
  | 6 | 7 -> gen_group_by g
  | _ -> gen_join g

(* -- the differential property ------------------------------------------ *)

let differential_count = 220 (* ISSUE: at least 200 generated queries *)

let qcheck_five_configs_agree =
  QCheck.Test.make ~name:"all five configs return identical results"
    ~count:differential_count
    (QCheck.make ~print:Fun.id query_gen)
    (fun sql ->
      let d = Lazy.force deploy in
      let reference = Runner.run_query d Config.Hons sql in
      let want = canonical reference.Runner.result in
      List.for_all
        (fun cfg ->
          let m = Runner.run_query d cfg sql in
          canonical m.Runner.result = want
          || QCheck.Test.fail_reportf "%s diverges from hons on:@.%s@."
               (Config.abbrev cfg) sql)
        [ Config.Hos; Config.Vcs; Config.Scs; Config.Sos ])

(* a fixed smoke query per shape, so a total generator failure cannot
   silently reduce the property to vacuity *)
let test_fixed_queries_agree () =
  let d = Lazy.force deploy in
  List.iter
    (fun sql ->
      let reference =
        canonical (Runner.run_query d Config.Hons sql).Runner.result
      in
      List.iter
        (fun cfg ->
          let got = canonical (Runner.run_query d cfg sql).Runner.result in
          Alcotest.(check (pair (list string) (list string)))
            (Printf.sprintf "%s = hons for %s" (Config.abbrev cfg) sql)
            reference got)
        [ Config.Hos; Config.Vcs; Config.Scs; Config.Sos ])
    [
      "select n_nationkey, n_name from nation where n_regionkey = 1";
      "select count(*) as n, sum(s_acctbal) as s from supplier where \
       s_acctbal > 0";
      "select c_mktsegment, count(*) as n from customer group by \
       c_mktsegment order by c_mktsegment";
      "select n_name, count(*) as n from supplier, nation where s_nationkey \
       = n_nationkey group by n_name order by n_name";
      "select p_partkey, p_size from part where p_size < 15 order by \
       p_partkey limit 25";
    ]

let suite =
  [ ("fixed queries agree", `Quick, test_fixed_queries_agree) ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [ qcheck_five_configs_agree ]
