(* End-to-end wall-clock benchmark of the IronSafe engine. Run it from
   the repository root (run.sh does):

     e2e.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
     e2e.exe --smoke
     e2e.exe --compare A... -- B...
     e2e.exe --write-expected

   A run prints a header line, notes, every metric it computed with its
   unit, and as its last line one JSON object with the keys correct,
   attempted, failed and metrics: the end-to-end metrics BENCHMARK.json
   declares when untraced, its per-layer metrics when traced. The
   traced run also writes its spans as JSONL to
   _build/e2e/trace-<workload>-s<seed>.jsonl. See README.md. *)

let workloads =
  [
    ("tpch-scs", Tpch_load.run Ironsafe.Config.Scs);
    ("tpch-vcs", Tpch_load.run Ironsafe.Config.Vcs);
    ("oltp-wal", Oltp_load.run);
    ("sched-saturation", Sched_load.run);
  ]

(* TPC-H scale factor of the measured runs and of the smoke run *)
let scale = 0.01
let smoke_scale = 0.001

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("e2e: " ^ m); exit 2) fmt
let names = String.concat ", " (List.map fst workloads)

let goldens scale =
  match Golden.load ~scale with Ok g -> g | Error m -> die "%s" m

(* The declared metrics of the run's kind with their values; a
   per-layer metric the workload does not exercise reads 0, an
   end-to-end metric it did not measure reads nan. *)
let reported decls ~traced (o : Harness.outcome) =
  List.filter_map
    (fun (m : Metric.t) ->
      if m.end_to_end = traced then None
      else
        match List.assoc_opt m.name o.metrics with
        | Some v -> Some (m, v)
        | None -> Some (m, if traced then 0.0 else Float.nan))
    decls

let correct (o : Harness.outcome) = o.failed = 0 && List.for_all snd o.checks

let not_finite metrics =
  List.filter_map
    (fun ((m : Metric.t), v) -> if Float.is_finite v then None else Some m.name)
    metrics

let result_json ~traced decls (o : Harness.outcome) =
  let metrics = reported decls ~traced o in
  (match not_finite metrics with
  | [] -> ()
  | bad -> die "not measured or not finite: %s" (String.concat ", " bad));
  let metric ((m : Metric.t), v) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name v m.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct o) o.attempted o.failed
    (String.concat ", " (List.map metric metrics))

let print_outcome decls (o : Harness.outcome) =
  List.iter (fun l -> Printf.printf "# %s\n" l) o.notes;
  List.iter
    (fun (name, ok) ->
      Printf.printf "# check %-40s %s\n" name (if ok then "ok" else "FAILED"))
    o.checks;
  Printf.printf "# %d attempted, %d failed (error_rate %g)\n" o.attempted o.failed
    (Stats.ratio (float_of_int o.failed) (float_of_int o.attempted));
  List.iter
    (fun (name, v) ->
      let unit_ =
        match List.find_opt (fun (m : Metric.t) -> m.name = name) decls with
        | Some m -> m.unit_
        | None -> ""
      in
      Printf.printf "  %-36s %16.6g %s\n" name v unit_)
    o.metrics

let run_workload decls ~name ~seed ~seconds ~traced =
  let f =
    match List.assoc_opt name workloads with
    | Some f -> f
    | None -> die "unknown workload %s (%s)" name names
  in
  let goldens = goldens scale in
  Printf.printf "e2e workload=%s seed=%d trace=%d seconds=%g scale=%g\n%!" name seed
    (if traced then 1 else 0) seconds scale;
  let tracer = if traced then Some (Tracer.create ()) else None in
  let o = f { Harness.seed; seconds; scale; smoke = false; tracer; goldens } in
  print_outcome decls o;
  Option.iter
    (fun t ->
      if not (Sys.file_exists "_build/e2e") then Sys.mkdir "_build/e2e" 0o755;
      let path = Printf.sprintf "_build/e2e/trace-%s-s%d.jsonl" name seed in
      Tracer.write_jsonl t path;
      Printf.printf "# %d spans written to %s\n" (Tracer.span_count t) path)
    tracer;
  print_endline (result_json ~traced decls o)

(* The runtest smoke: every workload at the smoke scale with the
   smallest run, untraced and traced. Asserts correctness, no failed
   op, that every metric BENCHMARK.json declares is reported and
   finite, and that the traced run recorded spans; no timing is
   asserted. *)
let smoke decls =
  let goldens = goldens smoke_scale in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun (name, f) ->
      List.iter
        (fun traced ->
          let tracer = if traced then Some (Tracer.create ()) else None in
          let (o : Harness.outcome), ms =
            Harness.time (fun () ->
                f
                  {
                    Harness.seed = 42; seconds = 0.0; scale = smoke_scale; smoke = true;
                    tracer; goldens;
                  })
          in
          Printf.printf "%-17s trace=%d  %4d ops  %3d failed  %6.2f s\n%!" name
            (if traced then 1 else 0) o.attempted o.failed (ms /. 1e3);
          List.iter (fun l -> Printf.printf "    %s\n" l) o.notes;
          if o.failed > 0 then
            problem "%s trace=%b: %d of %d ops failed" name traced o.failed o.attempted;
          if not (List.for_all snd o.checks) then problem "%s trace=%b: a check failed" name traced;
          List.iter
            (fun m -> problem "%s trace=%b: %s not measured or not finite" name traced m)
            (not_finite (reported decls ~traced o));
          Option.iter
            (fun t -> if Tracer.span_count t = 0 then problem "%s: no spans" name)
            tracer)
        [ false; true ])
    workloads;
  match !problems with
  | [] -> print_endline "e2e smoke: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("e2e smoke: " ^ p)) (List.rev ps);
      exit 1

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 12.0 in
  let traced = ref false in
  let int_arg k v =
    match int_of_string_opt v with Some n -> n | None -> die "%s: not an integer: %s" k v
  in
  let float_arg k v =
    match float_of_string_opt v with Some f -> f | None -> die "%s: not a number: %s" k v
  in
  let rec parse = function
    | [] -> `Run
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_arg "--seconds" v; parse rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> traced := false
        | "1" -> traced := true
        | _ -> die "--trace takes 0 or 1");
        parse rest
    | [ "--smoke" ] -> `Smoke
    | [ "--write-expected" ] -> `Write
    | "--compare" :: rest ->
        let rec split acc = function
          | "--" :: b -> (List.rev acc, b)
          | x :: r -> split (x :: acc) r
          | [] -> die "--compare needs A... -- B..."
        in
        let a, b = split [] rest in
        `Compare (a, b)
    | other :: _ -> die "unknown argument %s" other
  in
  let mode = parse (List.tl (Array.to_list Sys.argv)) in
  let decls () =
    try Metric.load "BENCHMARK.json"
    with Sys_error m | Failure m | Json.Error m -> die "BENCHMARK.json: %s" m
  in
  match mode with
  | `Smoke -> smoke (decls ())
  | `Write -> List.iter (fun scale -> Golden.write ~scale) [ scale; smoke_scale ]
  | `Compare (a, b) -> if Compare.run (decls ()) a b > 0 then exit 1
  | `Run -> (
      match !workload with
      | None -> die "--workload is required (%s)" names
      | Some name ->
          run_workload (decls ()) ~name ~seed:!seed ~seconds:!seconds ~traced:!traced)
