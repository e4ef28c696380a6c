(* The metrics of the benchmark, read from BENCHMARK.json, their only
   declaration: an untraced run reports every end-to-end metric, a
   traced run every per-layer metric. *)

type t = {
  name : string;
  unit_ : string;
  lower : bool;  (** lower is better *)
  bound : float option;  (** end-to-end metrics only *)
  end_to_end : bool;
}

let load path =
  let j = Json.parse (Json.read_file path) in
  let decl ~end_to_end m =
    let str k =
      match Option.bind (Json.member k m) Json.to_str with
      | Some s -> s
      | None -> failwith (Printf.sprintf "%s: a metric has no %S" path k)
    in
    {
      name = str "name";
      unit_ = str "unit";
      lower = str "better" = "lower";
      bound = Option.bind (Json.member "bound" m) Json.to_num;
      end_to_end;
    }
  in
  List.map (decl ~end_to_end:true) (Json.items "end_to_end" j)
  @ List.map (decl ~end_to_end:false) (Json.items "per_layer" j)
