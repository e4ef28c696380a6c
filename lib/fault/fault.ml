(* Deterministic fault-injection plans (see fault.mli).

   Determinism contract: all randomness comes from one splitmix64
   stream ({!Ironsafe_sim.Prng}, the same implementation workload
   arrivals draw from) seeded from the plan seed, advanced once per
   consulted rule (plus once per [rand_int]). Replaying the same
   workload against the same seed therefore reproduces the exact
   incident timeline — the property the CLI's --fault-seed flag and
   the CI seed matrix rely on. *)

module Obs = Ironsafe_obs.Obs
module Prng = Ironsafe_sim.Prng

type site =
  | Channel_corrupt
  | Channel_drop
  | Channel_handshake
  | Device_bit_rot
  | Device_torn_write
  | Device_read_transient
  | Rpmb_desync
  | Sgx_abort
  | Sgx_quote_reject
  | Sgx_epc_storm
  | Tz_world_switch
  | Tz_ta_crash
  | Wal_crash_before_append
  | Wal_crash_mid_append
  | Wal_crash_after_append
  | Wal_crash_mid_flush
  | Wal_crash_before_anchor
  | Wal_torn_checkpoint

let site_name = function
  | Channel_corrupt -> "channel.corrupt"
  | Channel_drop -> "channel.drop"
  | Channel_handshake -> "channel.handshake"
  | Device_bit_rot -> "device.bit_rot"
  | Device_torn_write -> "device.torn_write"
  | Device_read_transient -> "device.read_transient"
  | Rpmb_desync -> "rpmb.desync"
  | Sgx_abort -> "sgx.abort"
  | Sgx_quote_reject -> "sgx.quote_reject"
  | Sgx_epc_storm -> "sgx.epc_storm"
  | Tz_world_switch -> "trustzone.world_switch"
  | Tz_ta_crash -> "trustzone.ta_crash"
  | Wal_crash_before_append -> "wal.crash_before_append"
  | Wal_crash_mid_append -> "wal.crash_mid_append"
  | Wal_crash_after_append -> "wal.crash_after_append"
  | Wal_crash_mid_flush -> "wal.crash_mid_flush"
  | Wal_crash_before_anchor -> "wal.crash_before_anchor"
  | Wal_torn_checkpoint -> "wal.torn_checkpoint"

let all_sites =
  [
    Channel_corrupt; Channel_drop; Channel_handshake; Device_bit_rot;
    Device_torn_write; Device_read_transient; Rpmb_desync; Sgx_abort;
    Sgx_quote_reject; Sgx_epc_storm; Tz_world_switch; Tz_ta_crash;
    Wal_crash_before_append; Wal_crash_mid_append; Wal_crash_after_append;
    Wal_crash_mid_flush; Wal_crash_before_anchor; Wal_torn_checkpoint;
  ]

(* WAL crash points, in log order: the crash-at-every-point property
   iterates this list and proves recovery for each. *)
let wal_sites =
  [
    Wal_crash_before_append; Wal_crash_mid_append; Wal_crash_after_append;
    Wal_crash_mid_flush; Wal_crash_before_anchor; Wal_torn_checkpoint;
  ]

type rule = { prob : float; max_fires : int; after_ns : float }

let rule ?(prob = 1.0) ?(max_fires = max_int) ?(after_ns = 0.0) () =
  if prob < 0.0 || prob > 1.0 then invalid_arg "Fault.rule: prob not in [0,1]";
  { prob; max_fires; after_ns }

type incident = {
  inc_site : site;
  inc_at_ns : float;
  mutable inc_recovered : bool;
}

type stats = {
  mutable injected : int;
  mutable recovered : int;
  mutable rejected : int;
  mutable retries : int;
  mutable reattestations : int;
}

type t = {
  plan_seed : int;
  rules : (site * rule) list;
  rng : Prng.t;
  fired : (site, int) Hashtbl.t;
  mutable clock : unit -> float;
  mutable incidents : incident list; (* newest first *)
  mutable n_incidents : int;
  st : stats;
}

let fresh_stats () =
  { injected = 0; recovered = 0; rejected = 0; retries = 0; reattestations = 0 }

let make ?(clock = fun () -> 0.0) ~seed rules =
  {
    plan_seed = seed;
    rules;
    rng = Prng.create ~seed;
    fired = Hashtbl.create 8;
    clock;
    incidents = [];
    n_incidents = 0;
    st = fresh_stats ();
  }

let none = make ~seed:0 []

let enabled t = t.rules <> []
let seed t = t.plan_seed
let set_clock t clock = t.clock <- clock
let stats t = t.st
let incident_count t = t.n_incidents

let incidents_since t mark =
  let rec take n acc = function
    | [] -> acc
    | _ when n <= 0 -> acc
    | i :: rest -> take (n - 1) (i :: acc) rest
  in
  take (t.n_incidents - mark) [] t.incidents

let last_unrecovered t = List.find_opt (fun i -> not i.inc_recovered) t.incidents

(* All randomness delegates to the shared splitmix64 stream, which the
   plan seed feeds unmixed: one seed, one incident timeline. *)
let uniform t = Prng.uniform t.rng
let rand_int t bound = Prng.rand_int t.rng bound

let fire t site =
  match List.assoc_opt site t.rules with
  | None -> false
  | Some r ->
      let now = t.clock () in
      if now < r.after_ns then false
      else begin
        let n = Option.value ~default:0 (Hashtbl.find_opt t.fired site) in
        if n >= r.max_fires then false
        else if uniform t < r.prob then begin
          Hashtbl.replace t.fired site (n + 1);
          t.st.injected <- t.st.injected + 1;
          t.incidents <-
            { inc_site = site; inc_at_ns = now; inc_recovered = false }
            :: t.incidents;
          t.n_incidents <- t.n_incidents + 1;
          Obs.count ~scope:"fault" "injected";
          Obs.count ~scope:"fault" ("injected." ^ site_name site);
          if Obs.enabled () then
            Obs.event ~ts_ns:now ~scope:"fault" ~kind:"fault.injected"
              [
                ("site", Ironsafe_obs.Event_log.S (site_name site));
                ("incident", Ironsafe_obs.Event_log.I t.n_incidents);
              ];
          true
        end
        else false
      end

(* -- recovery notes --------------------------------------------------- *)

let note_retry ?(n = 1) t ~action =
  if enabled t then begin
    t.st.retries <- t.st.retries + n;
    Obs.count ~scope:"recovery" ~n "retries";
    Obs.count ~scope:"recovery" ~n ("retries." ^ action)
  end

let note_reattestation t =
  if enabled t then begin
    t.st.reattestations <- t.st.reattestations + 1;
    Obs.count ~scope:"recovery" "reattestations"
  end

let note_recovered t =
  if enabled t then begin
    t.st.recovered <- t.st.recovered + 1;
    Obs.count ~scope:"recovery" "recovered";
    (* mark the oldest outstanding incident as healed *)
    match
      List.fold_left
        (fun acc i -> if i.inc_recovered then acc else Some i)
        None t.incidents
    with
    | Some i -> i.inc_recovered <- true
    | None -> ()
  end

let note_recovered_since t mark =
  if enabled t then begin
    let healed =
      List.fold_left
        (fun n i ->
          if i.inc_recovered then n
          else begin
            i.inc_recovered <- true;
            n + 1
          end)
        0
        (incidents_since t mark)
    in
    if healed > 0 then begin
      t.st.recovered <- t.st.recovered + healed;
      Obs.count ~scope:"recovery" ~n:healed "recovered"
    end
  end

let note_rejected t =
  if enabled t then begin
    t.st.rejected <- t.st.rejected + 1;
    Obs.count ~scope:"fault" "rejected"
  end

let backoff_ns ~base_ns ~attempt =
  Float.min (base_ns *. (2.0 ** float_of_int attempt)) (1000.0 *. base_ns)

let pp_incident ppf i =
  Fmt.pf ppf "%s at %.0fns (%s)" (site_name i.inc_site) i.inc_at_ns
    (if i.inc_recovered then "recovered" else "unrecovered")

let pp_stats ppf s =
  Fmt.pf ppf
    "injected=%d recovered=%d rejected=%d retries=%d reattestations=%d"
    s.injected s.recovered s.rejected s.retries s.reattestations

(* -- named profiles --------------------------------------------------- *)

type profile = Profile_none | Flaky_net | Bit_rot | Hostile

let profile_name = function
  | Profile_none -> "none"
  | Flaky_net -> "flaky-net"
  | Bit_rot -> "bit-rot"
  | Hostile -> "hostile"

let all_profiles = [ Profile_none; Flaky_net; Bit_rot; Hostile ]

let profile_of_string s =
  List.find_opt (fun p -> profile_name p = s) all_profiles

let flaky_net_rules =
  [
    (Channel_drop, rule ~prob:0.15 ());
    (Channel_corrupt, rule ~prob:0.10 ());
    (Channel_handshake, rule ~prob:0.25 ~max_fires:6 ());
  ]

let bit_rot_rules =
  [
    (Device_read_transient, rule ~prob:0.02 ());
    (Device_bit_rot, rule ~prob:0.002 ~max_fires:2 ());
    (Device_torn_write, rule ~prob:0.01 ~max_fires:2 ());
  ]

let hostile_rules =
  [
    (Channel_drop, rule ~prob:0.10 ());
    (Channel_corrupt, rule ~prob:0.10 ());
    (Channel_handshake, rule ~prob:0.20 ~max_fires:4 ());
    (Device_read_transient, rule ~prob:0.01 ());
    (Device_bit_rot, rule ~prob:0.001 ~max_fires:3 ());
    (Device_torn_write, rule ~prob:0.01 ~max_fires:3 ());
    (Rpmb_desync, rule ~prob:0.3 ~max_fires:4 ());
    (Sgx_abort, rule ~prob:0.05 ~max_fires:3 ());
    (Sgx_quote_reject, rule ~prob:0.3 ~max_fires:3 ());
    (Sgx_epc_storm, rule ~prob:0.05 ~max_fires:3 ());
    (Tz_world_switch, rule ~prob:0.05 ~max_fires:3 ());
    (Tz_ta_crash, rule ~prob:0.3 ~max_fires:3 ());
  ]

let of_profile ?clock ~seed = function
  | Profile_none -> none
  | Flaky_net -> make ?clock ~seed flaky_net_rules
  | Bit_rot -> make ?clock ~seed bit_rot_rules
  | Hostile -> make ?clock ~seed hostile_rules
