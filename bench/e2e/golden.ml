(* Result goldens: a SHA-256 of every TPC-H query's result rows, per
   scale factor, computed once from the plain host-only (Hons) path and
   committed under expected/. Every timed query checks its answer
   against them, so a change that returns wrong rows fails the run
   rather than speeding it up. *)

module Sql = Ironsafe_sql
module C = Ironsafe_crypto
module Tpch = Ironsafe_tpch

(* Column names, then each row in the engine's length-prefixed binary
   row encoding: floats are compared bit for bit. *)
let digest (r : Sql.Exec.result) =
  C.Hex.of_string
    (C.Sha256.digest_list
       (String.concat "|" r.Sql.Exec.columns
       :: "\000"
       :: List.map Sql.Row.encode r.Sql.Exec.rows))

(* relative to the repository root, where every run starts *)
let file ~scale = Printf.sprintf "bench/e2e/expected/tpch-sf%g.txt" scale

(* qid -> hex digest *)
let load ~scale =
  let path = file ~scale in
  match open_in path with
  | exception Sys_error e -> Error ("cannot read result goldens: " ^ e)
  | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            Ok (List.rev acc)
        | line -> (
            match String.split_on_char ' ' (String.trim line) with
            | [ q; hex ] -> go ((int_of_string q, hex) :: acc)
            | _ -> go acc)
      in
      go []

(* Regenerate the goldens for [scale] from the Hons path. *)
let write ~scale =
  let d =
    Ironsafe.Deployment.create ~seed:"e2e-golden"
      ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale))
      ()
  in
  let path = file ~scale in
  let oc = open_out path in
  List.iter
    (fun q ->
      let m = Ironsafe.Runner.run_query d Ironsafe.Config.Hons q.Tpch.Queries.sql in
      Printf.fprintf oc "%d %s\n" q.Tpch.Queries.id (digest m.Ironsafe.Runner.result))
    Tpch.Queries.all;
  close_out oc;
  Printf.printf "wrote %s\n" path
