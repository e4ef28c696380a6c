(* Tamper-evident audit log (§3.3, §4.3): entries form a hash chain
   keyed under the monitor's log key; any modification, deletion or
   reordering breaks verification from that point on. The designated
   regulatory authority (actor D in the paper's workflow) audits by
   fetching the entries and the chain head. *)

module C = Ironsafe_crypto

type entry = {
  seq : int;
  date : Ironsafe_sql.Date.t;
  actor : string;  (** client identity key label *)
  action : string;  (** e.g. "read", "write", "denied" *)
  detail : string;  (** typically the query text *)
  prev : string;
  digest : string;
}

type t = {
  name : string;
  key : string;
  mutable entries : entry list; (* newest first *)
  mutable length : int; (* = List.length entries, the next seq *)
  mutable head : string;
}

let genesis = String.make 32 '\000'

let create ~name ~key = { name; key; entries = []; length = 0; head = genesis }
let name t = t.name

let entry_digest t ~seq ~date ~actor ~action ~detail ~prev =
  C.Hmac.mac ~key:t.key
    (String.concat "\x00"
       [ string_of_int seq; string_of_int date; actor; action; detail; prev ])

let append t ~date ~actor ~action ~detail =
  let seq = t.length in
  let digest = entry_digest t ~seq ~date ~actor ~action ~detail ~prev:t.head in
  let e = { seq; date; actor; action; detail; prev = t.head; digest } in
  t.entries <- e :: t.entries;
  t.length <- seq + 1;
  t.head <- digest;
  e

let entries t = List.rev t.entries
let length t = t.length
let head t = t.head

(* Full chain verification; returns the first bad sequence number. *)
let verify t =
  let rec check prev = function
    | [] -> if C.Constant_time.equal prev t.head then Ok () else Error (-1)
    | e :: rest ->
        let expected =
          entry_digest t ~seq:e.seq ~date:e.date ~actor:e.actor ~action:e.action
            ~detail:e.detail ~prev
        in
        if
          (not (C.Constant_time.equal e.prev prev))
          || not (C.Constant_time.equal e.digest expected)
        then Error e.seq
        else check e.digest rest
  in
  check genesis (entries t)

(* Adversarial helper for tests: silently alter a logged detail. *)
let tamper_entry t ~seq ~detail =
  t.entries <-
    List.map (fun e -> if e.seq = seq then { e with detail } else e) t.entries

let filter t ~actor = List.filter (fun e -> e.actor = actor) (entries t)
