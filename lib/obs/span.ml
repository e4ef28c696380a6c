(* Hierarchical spans over the *virtual* clock: each span records
   begin/end timestamps read from a caller-supplied clock (a simulated
   node's nanosecond clock), its parent, free-form attributes, and the
   per-category virtual time charged while it was the innermost open
   span.

   Because every query run resets the simulated clocks to zero, the
   collector maintains an epoch offset: [new_epoch] (called whenever a
   deployment resets its counters) moves the offset to the highest
   timestamp recorded so far, keeping the collected timeline monotonic
   across consecutive queries — exactly what a Chrome trace needs. *)

type kind =
  | Complete
  | Instant
  | Flow_out of int  (** start of a cross-node causal arrow (flow id) *)
  | Flow_in of int  (** matching end of the arrow on the other node *)

type t = {
  id : int;
  name : string;
  scope : string;  (** the node/component this span belongs to *)
  kind : kind;
  begin_ns : float;
  mutable end_ns : float;
  mutable attrs : (string * string) list;
  mutable charges : (string * float) list;  (** category -> virtual ns *)
  mutable children_rev : t list;
}

let children s = List.rev s.children_rev
let duration_ns s = s.end_ns -. s.begin_ns

(* -- collector -------------------------------------------------------- *)

let next_id = ref 0
let next_flow_id = ref 0
let stack : t list ref = ref []
let roots_rev : t list ref = ref []
let epoch = ref 0.0
let high_water = ref 0.0

let reset_collector () =
  next_id := 0;
  next_flow_id := 0;
  stack := [];
  roots_rev := [];
  epoch := 0.0;
  high_water := 0.0

let stamp clock =
  let ts = !epoch +. clock () in
  if ts > !high_water then high_water := ts;
  ts

let new_epoch () = epoch := !high_water

let roots () = List.rev !roots_rev
let last_root () = match !roots_rev with [] -> None | s :: _ -> Some s
let open_depth () = List.length !stack
let current_epoch () = !epoch

(* Install an externally-built span tree as a root of the collected
   timeline (the workload scheduler synthesizes per-session lanes this
   way). The high-water mark advances so a later [new_epoch] clears the
   added spans too. *)
let add_root s =
  if s.end_ns > !high_water then high_water := s.end_ns;
  roots_rev := s :: !roots_rev

let attach s =
  match !stack with
  | parent :: _ -> parent.children_rev <- s :: parent.children_rev
  | [] -> roots_rev := s :: !roots_rev

let make ~name ~scope ~kind ~attrs ts =
  incr next_id;
  {
    id = !next_id;
    name;
    scope;
    kind;
    begin_ns = ts;
    end_ns = ts;
    attrs;
    charges = [];
    children_rev = [];
  }

(* Run [f] inside a span named [name]; begin/end timestamps are read
   from [clock] (virtual nanoseconds). No-op when collection is off. *)
let with_ ?(attrs = []) ~name ~scope ~clock f =
  if not (Control.spans_on ()) then f ()
  else begin
    let s = make ~name ~scope ~kind:Complete ~attrs (stamp clock) in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.end_ns <- stamp clock;
        (match !stack with
        | top :: rest when top == s -> stack := rest
        | other ->
            (* unbalanced exit (an exception skipped a child's finally):
               drop everything above this span *)
            let rec drop = function
              | top :: rest when top == s -> rest
              | _ :: rest -> drop rest
              | [] -> []
            in
            stack := drop other);
        attach s)
      f
  end

(* A zero-duration marker at the current point of the timeline (or of
   [clock], when given). *)
let instant ?(attrs = []) ?clock ~name ~scope () =
  if Control.spans_on () then begin
    let ts =
      match clock with Some c -> stamp c | None -> !high_water
    in
    attach (make ~name ~scope ~kind:Instant ~attrs ts)
  end

let timeline_now () = !high_water

(* -- cross-node flows -------------------------------------------------- *)

(* A flow is a causal arrow between two nodes' timelines: [flow_out]
   marks the departure (inside the sender's innermost open span) and
   returns a fresh flow id; [flow_in ... id] marks the arrival on the
   receiver. Chrome trace renders the pair as an arrow between the two
   lanes, which is what links host- and storage-side spans of one split
   query into a single causal tree. The two marks must share [name]
   (trace viewers bind flows by name + id). Returns 0 when spans are
   off; [flow_in] ignores id 0. *)
let flow_out ?(attrs = []) ~clock ~name ~scope () =
  if not (Control.spans_on ()) then 0
  else begin
    incr next_flow_id;
    let fid = !next_flow_id in
    attach (make ~name ~scope ~kind:(Flow_out fid) ~attrs (stamp clock));
    fid
  end

let flow_in ?(attrs = []) ~clock ~name ~scope fid =
  if Control.spans_on () && fid <> 0 then
    attach (make ~name ~scope ~kind:(Flow_in fid) ~attrs (stamp clock))

let set_attr s key v = s.attrs <- (key, v) :: List.remove_assoc key s.attrs

(* Attribute [ns] of charged virtual time to the innermost open span. *)
let add_charge ~category ns =
  match !stack with
  | [] -> ()
  | s :: _ ->
      let cur = Option.value ~default:0.0 (List.assoc_opt category s.charges) in
      s.charges <- (category, cur +. ns) :: List.remove_assoc category s.charges

(* Total charged time in [s] and its subtree. *)
let rec total_charged s =
  List.fold_left (fun acc (_, ns) -> acc +. ns) 0.0 s.charges
  +. List.fold_left (fun acc c -> acc +. total_charged c) 0.0 (children s)

(* -- rendering -------------------------------------------------------- *)

let pp_charges ppf charges =
  match charges with
  | [] -> ()
  | l ->
      Fmt.pf ppf "  {%s}"
        (String.concat ", "
           (List.map
              (fun (c, ns) -> Printf.sprintf "%s %.3fms" c (ns /. 1e6))
              (List.sort compare l)))

let pp_attrs ppf = function
  | [] -> ()
  | attrs ->
      Fmt.pf ppf "  [%s]"
        (String.concat ", "
           (List.map (fun (k, v) -> k ^ "=" ^ v) (List.rev attrs)))

let rec pp_node ppf ~indent s =
  (match s.kind with
  | Complete ->
      Fmt.pf ppf "%s%-24s %-10s %10.3f ms%a%a@." indent s.name
        ("[" ^ s.scope ^ "]")
        (duration_ns s /. 1e6)
        pp_attrs s.attrs pp_charges s.charges
  | Instant ->
      Fmt.pf ppf "%s%-24s %-10s   @@ %.3f ms%a@." indent ("*" ^ s.name)
        ("[" ^ s.scope ^ "]")
        (s.begin_ns /. 1e6) pp_attrs s.attrs
  | Flow_out fid ->
      Fmt.pf ppf "%s%-24s %-10s   @@ %.3f ms  flow #%d ->%a@." indent
        (">" ^ s.name)
        ("[" ^ s.scope ^ "]")
        (s.begin_ns /. 1e6) fid pp_attrs s.attrs
  | Flow_in fid ->
      Fmt.pf ppf "%s%-24s %-10s   @@ %.3f ms  -> flow #%d%a@." indent
        ("<" ^ s.name)
        ("[" ^ s.scope ^ "]")
        (s.begin_ns /. 1e6) fid pp_attrs s.attrs);
  List.iter (pp_node ppf ~indent:(indent ^ "  ")) (children s)

let pp_tree ppf s = pp_node ppf ~indent:"" s
