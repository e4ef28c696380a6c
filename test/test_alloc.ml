(* Allocation budget of the split query path. The 17 TPC-H queries run
   under vcs (the split over the plain replica: partitioner, storage
   engine, host engine, no crypto) at SF 0.001, and each query's minor
   and promoted words, read from [Gc.quick_stat], must stay within 2%
   of the committed budget in alloc_budget.txt. Word counts do not
   depend on wall time, so they catch regressions that wall-clock
   floors on a shared machine miss.

   The deployment is built, and every query run once, outside the
   measured region, so lazy set-up allocates there. Each measured query
   starts right after a full major collection, with an empty minor heap,
   and ends with a minor collection, which [quick_stat] needs to count
   the last words allocated. Inside the region the major GC is paced so
   slowly (a huge [space_overhead]) that no major cycle ends during a
   query: a cycle's end empties the minor heap out of turn, and would
   make the promoted count depend on what else the process holds.
   Observability is off inside the region. Both settings are restored
   afterwards, and a run with IRONSAFE_OBS=1 sees the same counts.

   Regenerate (only when a change moves the counts on purpose) with
   IRONSAFE_WRITE_GOLDEN=$PWD/test/alloc_budget.txt, running this suite
   alone. *)

open Ironsafe
module Tpch = Ironsafe_tpch
module Obs = Ironsafe_obs.Obs

let budget_file = "alloc_budget.txt"
let slack = 1.02

let measure () =
  let d =
    Deployment.create ~seed:"alloc-budget"
      ~populate:(fun db -> ignore (Tpch.Dbgen.populate db ~scale:0.001))
      ()
  in
  let run (q : Tpch.Queries.t) = ignore (Runner.run_query d Config.Vcs q.sql) in
  let obs_was_on = Obs.enabled () in
  let gc = Gc.get () in
  Obs.disable ();
  Gc.set { gc with Gc.space_overhead = 1_000_000 };
  Fun.protect
    ~finally:(fun () ->
      Gc.set gc;
      if obs_was_on then Obs.enable ())
    (fun () ->
      List.iter run Tpch.Queries.all;
      List.map
        (fun (q : Tpch.Queries.t) ->
          Gc.full_major ();
          let s0 = Gc.quick_stat () in
          run q;
          Gc.minor ();
          let s1 = Gc.quick_stat () in
          ( Printf.sprintf "q%02d" q.id,
            s1.Gc.minor_words -. s0.Gc.minor_words,
            s1.Gc.promoted_words -. s0.Gc.promoted_words ))
        Tpch.Queries.all)

let render counts =
  String.concat ""
    ("# query minor_words promoted_words (vcs, SF 0.001)\n"
    :: List.map
         (fun (q, minor, promoted) -> Printf.sprintf "%s %.0f %.0f\n" q minor promoted)
         counts)

let load path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line when String.trim line = "" || line.[0] = '#' -> go acc
    | line -> Scanf.sscanf line " %s %f %f" (fun q m p -> go ((q, m, p) :: acc))
  in
  go []

let test_alloc_budget () =
  let counts = measure () in
  match Sys.getenv_opt "IRONSAFE_WRITE_GOLDEN" with
  | Some path when Filename.basename path = budget_file ->
      let oc = open_out path in
      output_string oc (render counts);
      close_out oc
  | _ ->
      let path = List.find Sys.file_exists [ budget_file; "test/" ^ budget_file ] in
      let budget = load path in
      Alcotest.(check (list string)) "budget covers the queries"
        (List.map (fun (q, _, _) -> q) budget)
        (List.map (fun (q, _, _) -> q) counts);
      let over =
        List.concat
          (List.map2
             (fun (q, bm, bp) (_, m, p) ->
               let check kind got limit =
                 if got > limit *. slack then
                   [ Printf.sprintf "%s %s: %.0f words > %.0f x %.2f" q kind got limit slack ]
                 else []
               in
               check "minor" m bm @ check "promoted" p bp)
             budget counts)
      in
      if over <> [] then Alcotest.fail (String.concat "\n" over)

let suite = [ ("tpch vcs words per query", `Quick, test_alloc_budget) ]
