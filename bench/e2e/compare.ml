(* e2e.exe --compare A... -- B...: parent runs A against change runs B.

   Each file is the captured standard output of one run (its header
   line names the workload; its last line is the result JSON). Runs of
   a workload are paired in the order given. For every workload and
   metric this prints both sides' median and quartiles, the share of
   pairs the change won, and a verdict:

   - improved: at least ten pairs, the change won at least 9/10 of
     them (ties count for neither side), and the medians differ by
     more than the parent's own quartile spread;
   - regressed: the change's median is worse than the parent's by more
     than the metric's BENCHMARK.json bound (per-layer metrics, which
     have no bound: at least ten pairs, the parent won 9/10 of them,
     by more than its spread);
   - unresolved: either side's quartile spread is wider than the bound
     and not every change run beats every parent run;
   - unchanged: otherwise. *)

type run = { workload : string; metrics : (string * float) list }

let header_field line key =
  String.split_on_char ' ' line
  |> List.find_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i when String.sub kv 0 i = key ->
             Some (String.sub kv (i + 1) (String.length kv - i - 1))
         | _ -> None)

let load path =
  let lines =
    String.split_on_char '\n' (Json.read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  let workload =
    List.find_map
      (fun l ->
        if String.length l > 4 && String.sub l 0 4 = "e2e " then header_field l "workload"
        else None)
      lines
    |> Option.value ~default:"?"
  in
  let result =
    List.find_map
      (fun l -> Option.bind (Json.parse_opt l) (Json.member "metrics"))
      (List.rev lines)
  in
  match result with
  | Some (Json.Obj ms) ->
      {
        workload;
        metrics =
          List.filter_map
            (fun (name, v) ->
              Option.map
                (fun x -> (name, x))
                (Option.bind (Json.member "value" v) Json.to_num))
            ms;
      }
  | _ -> failwith (path ^ ": no result line")

let verdict (d : Metric.t) a b =
  let better x y = if d.lower then x < y else x > y in
  let ma = Stats.median a and mb = Stats.median b in
  let q1a, q3a = Stats.quartiles a and q1b, q3b = Stats.quartiles b in
  let pairs = min (Array.length a) (Array.length b) in
  let count f = List.length (List.filter f (List.init pairs Fun.id)) in
  let wins = count (fun i -> better b.(i) a.(i)) in
  let losses = count (fun i -> better a.(i) b.(i)) in
  let share x = Stats.ratio (float_of_int x) (float_of_int pairs) in
  let gain = if d.lower then ma -. mb else mb -. ma in
  let spread_a = q3a -. q1a in
  let all_better = Array.for_all (fun x -> Array.for_all (better x) a) b in
  let v =
    if pairs >= 10 && share wins >= 0.9 && gain > spread_a then "improved"
    else
      match d.bound with
      | Some bound ->
          let rel spread m = Stats.ratio spread (Float.abs m) in
          if Stats.ratio (-.gain) (Float.abs ma) > bound then "regressed"
          else if (rel spread_a ma > bound || rel (q3b -. q1b) mb > bound) && not all_better
          then "unresolved"
          else "unchanged"
      | None ->
          if pairs >= 10 && share losses >= 0.9 && -.gain > spread_a then "regressed"
          else "unchanged"
  in
  (ma, (q1a, q3a), mb, (q1b, q3b), share wins, v)

(* Prints the table; returns the number of regressions. *)
let run decls parent change =
  let parent = List.map load parent and change = List.map load change in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change))
  in
  let regressions = ref 0 in
  Printf.printf "%-16s %-34s %30s %30s %6s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun w ->
      let values runs name =
        runs
        |> List.filter (fun r -> r.workload = w)
        |> List.filter_map (fun r -> List.assoc_opt name r.metrics)
        |> Array.of_list
      in
      List.iter
        (fun (d : Metric.t) ->
          let a = values parent d.name and b = values change d.name in
          if Array.length a > 0 && Array.length b > 0 then begin
            let ma, (q1a, q3a), mb, (q1b, q3b), won, v = verdict d a b in
            if v = "regressed" then incr regressions;
            let cell m q1 q3 = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
            Printf.printf "%-16s %-34s %30s %30s %5.0f%%  %s\n" w d.name (cell ma q1a q3a)
              (cell mb q1b q3b) (100.0 *. won) v
          end)
        decls)
    workloads;
  !regressions
