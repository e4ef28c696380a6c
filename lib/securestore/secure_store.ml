(* Encrypted, integrity- and freshness-protected page store (§4.1).

   On-device layout:
     pages [0, data_pages)                   data region
     pages [data_pages, data_pages + meta)   Merkle leaf-tag region

   Each data page holds:  IV(16) | MAC(32) | len(2) | ciphertext | fill
   MAC = HMAC(page_mac_key, index | IV | ciphertext): binds the
   ciphertext to its slot. Leaf tags feed a keyed Merkle tree whose
   root, HMACed under TASK (a key derived from the hardware unique
   key), lives in RPMB — so rollback of either data or metadata region
   is caught against the replay-protected counter'd slot at boot. The
   tree itself is held in the storage TEE's trusted memory: a read
   checks a page's MAC against its leaf there, so a replayed older page
   is caught on the live store too.

   [stats] counts every crypto operation so the simulator can charge
   freshness/decryption time exactly as incurred. *)

module C = Ironsafe_crypto
module S = Ironsafe_storage
module Obs = Ironsafe_obs.Obs
module Fault = Ironsafe_fault.Fault

(* metrics scope for the observability registry *)
let obs_scope = "securestore"

let header_len = 16 + 32 + 2

(* Plaintext capacity: page minus header minus up-to-one-block CBC
   padding expansion. *)
let capacity = S.Block_device.page_size - header_len - 16

type stats = {
  mutable page_decrypts : int;
  mutable page_encrypts : int;
  mutable page_mac_checks : int;
  mutable merkle_hashes : int;
  mutable rpmb_accesses : int;
  mutable device_reads : int;
  mutable device_writes : int;
}

let fresh_stats () =
  {
    page_decrypts = 0;
    page_encrypts = 0;
    page_mac_checks = 0;
    merkle_hashes = 0;
    rpmb_accesses = 0;
    device_reads = 0;
    device_writes = 0;
  }

type error =
  | Tampered_page of int
  | Stale_root
  | Rpmb_error of S.Rpmb.error
  | Corrupt_page of int * string

let pp_error ppf = function
  | Tampered_page i -> Fmt.pf ppf "page %d failed integrity/freshness check" i
  | Stale_root -> Fmt.string ppf "Merkle root does not match RPMB anchor (rollback?)"
  | Rpmb_error e -> Fmt.pf ppf "RPMB: %a" S.Rpmb.pp_error e
  | Corrupt_page (i, msg) -> Fmt.pf ppf "page %d corrupt: %s" i msg

(* Key management scheme (§4.1: "IronSafe uses a single secret
   (symmetric) key to encrypt all the data units, but other management
   schemes can be adopted (e.g., one key per unit)"). [Per_page]
   derives each page's AES key from the data key and the page index,
   bounding the blast radius of a single page-key compromise. *)
type key_mode = Single_key | Per_page_keys

type t = {
  device : S.Block_device.t;
  rpmb : S.Rpmb.t;
  keys : Keyslot.t;
  key_mode : key_mode;
  enc_key : C.Aes.key; (* Single_key mode *)
  mutable page_keys : C.Aes.key option array; (* Per_page_keys cache *)
  merkle : C.Merkle.t;
  drbg : C.Drbg.t;
  data_pages : int;
  stats : stats;
  mutable anchored_root : string; (* last root HMAC written to RPMB *)
  page_mac_prekey : C.Hmac.prekey; (* page MAC key, ipad/opad absorbed once *)
  task_prekey : C.Hmac.prekey; (* TASK key, for the anchored-root MAC *)
  mutable root_mac_memo : (string * string) option;
      (* (root, HMAC_TASK(root)) of the last root MAC computed: every
         page read must compare the current root's MAC against the
         RPMB anchor, but between writes the root does not move, so
         the HMAC is recomputed only when the root value changes. Keyed
         on the root bytes themselves, the memo can never serve a MAC
         for a root other than the current one — a write or an RPMB
         resync changes the root (or the anchor) and misses the memo. *)
  mutable faults : Fault.t;
      (* fault plan shared with the device/RPMB; gates the recovery
         paths (re-read, counter re-sync) so they stay inert — and
         genuine attacks stay hard failures — without a plan *)
}

let set_faults t plan = t.faults <- plan

(* Bounded retry budgets of the recovery layer (§ robustness): how many
   times a failed page read is re-attempted and a desynced RPMB write
   is re-synced before the error is surfaced as a typed violation. *)
let read_retry_budget = 3
let rpmb_retry_budget = 3

let page_key t index =
  match t.key_mode with
  | Single_key -> t.enc_key
  | Per_page_keys -> (
      match t.page_keys.(index) with
      | Some k -> k
      | None ->
          let k =
            C.Aes.expand_key
              (C.Hkdf.derive
                 ~ikm:(Keyslot.data_key t.keys)
                 ~info:(Printf.sprintf "page-enc-%d" index)
                 32)
          in
          t.page_keys.(index) <- Some k;
          k)

let data_key_slot = 0
let root_slot = 1
let tags_per_page = S.Block_device.page_size / 32

let meta_pages_for data_pages = (data_pages + tags_per_page - 1) / tags_per_page
let device_pages_for ~data_pages = data_pages + meta_pages_for data_pages
let data_page_count t = t.data_pages
let stats t = t.stats

let reset_stats t =
  let s = t.stats in
  s.page_decrypts <- 0;
  s.page_encrypts <- 0;
  s.page_mac_checks <- 0;
  s.merkle_hashes <- 0;
  s.rpmb_accesses <- 0;
  s.device_reads <- 0;
  s.device_writes <- 0

(* Memoized [root_mac t.keys (Merkle.root t.merkle)]: hit when the
   root is unchanged since the last computation, recomputed (and
   re-memoized) otherwise. *)
let current_root_mac t =
  let root = C.Merkle.root t.merkle in
  match t.root_mac_memo with
  | Some (r, m) when String.equal r root -> m
  | _ ->
      let m = C.Hmac.mac_pre t.task_prekey root in
      t.root_mac_memo <- Some (root, m);
      m

let anchor_root t =
  let mac = current_root_mac t in
  let mark = Fault.incident_count t.faults in
  let rec attempt n =
    let frame =
      S.Rpmb.make_write_frame
        ~key:(Keyslot.rpmb_auth_key t.keys)
        ~slot:root_slot ~payload:mac
        ~write_counter:(S.Rpmb.read_counter t.rpmb)
    in
    t.stats.rpmb_accesses <- t.stats.rpmb_accesses + 1;
    Obs.count ~scope:obs_scope "rpmb_accesses";
    match S.Rpmb.write t.rpmb frame with
    | Ok _ ->
        if n > 0 then Fault.note_recovered_since t.faults mark;
        t.anchored_root <- mac;
        Ok ()
    | Error (S.Rpmb.Counter_mismatch _)
      when Fault.enabled t.faults && n < rpmb_retry_budget ->
        (* counter desync: re-read the device counter and rebuild the
           frame (the frame above always refetches [read_counter]) *)
        Fault.note_retry t.faults ~action:"rpmb.resync";
        attempt (n + 1)
    | Error e -> Error (Rpmb_error e)
  in
  attempt 0

let persist_leaf_tag t index =
  let tag = C.Merkle.leaf t.merkle index in
  let meta_page = t.data_pages + (index / tags_per_page) in
  let page = Bytes.of_string (S.Block_device.read_page t.device meta_page) in
  t.stats.device_reads <- t.stats.device_reads + 1;
  Bytes.blit_string tag 0 page (index mod tags_per_page * 32) 32;
  S.Block_device.write_page t.device meta_page (Bytes.to_string page);
  t.stats.device_writes <- t.stats.device_writes + 1

(* MAC input: index | IV | ciphertext, fed to the prekeyed HMAC as
   sub-ranges, so a read MACs the raw page without copying fields out
   of it. *)
let page_mac t index iv iv_off ct ct_off clen =
  let c = C.Hmac.start t.page_mac_prekey in
  C.Hmac.feed c (Printf.sprintf "%08d" index);
  C.Hmac.feed_sub c iv iv_off 16;
  C.Hmac.feed_sub c ct ct_off clen;
  C.Hmac.finish c

(* Decrypt the [clen]-byte ciphertext of a raw page in place: the IV
   sits at offset 0, the ciphertext at [header_len]. *)
let decrypt_payload t index raw clen =
  match
    C.Modes.cbc_decrypt_sub ~key:(page_key t index) ~iv:raw ~iv_off:0 raw
      header_len clen
  with
  | Ok plain -> Ok plain
  | Error msg -> Error (Corrupt_page (index, msg))

(* Encrypt and store [plain] (<= capacity bytes) at data page [index]. *)
let write_page t index plain =
  if index < 0 || index >= t.data_pages then
    invalid_arg "Secure_store.write_page: index out of range";
  if String.length plain > capacity then
    invalid_arg "Secure_store.write_page: payload exceeds page capacity";
  Obs.count ~scope:obs_scope "pages_written";
  let iv = C.Drbg.generate t.drbg 16 in
  let ciphertext = C.Modes.cbc_encrypt ~key:(page_key t index) ~iv plain in
  t.stats.page_encrypts <- t.stats.page_encrypts + 1;
  Obs.count ~scope:obs_scope "page_encrypts";
  let clen = String.length ciphertext in
  let mac = page_mac t index iv 0 ciphertext 0 clen in
  t.stats.page_mac_checks <- t.stats.page_mac_checks + 1;
  Obs.count ~scope:obs_scope "hmac_checks";
  let page = Bytes.make S.Block_device.page_size '\000' in
  Bytes.blit_string iv 0 page 0 16;
  Bytes.blit_string mac 0 page 16 32;
  Bytes.set page 48 (Char.chr (clen lsr 8));
  Bytes.set page 49 (Char.chr (clen land 0xff));
  Bytes.blit_string ciphertext 0 page header_len clen;
  S.Block_device.write_page t.device index (Bytes.to_string page);
  t.stats.device_writes <- t.stats.device_writes + 1;
  C.Merkle.reset_hash_ops t.merkle;
  C.Merkle.set_leaf t.merkle index mac;
  t.stats.merkle_hashes <- t.stats.merkle_hashes + C.Merkle.hash_ops t.merkle;
  persist_leaf_tag t index;
  anchor_root t

(* One verified read of data page [index], in one pass over the raw
   page the device returns: the MAC is fed from the page's own IV and
   ciphertext ranges and compared with the stored MAC in place, then
   with the trusted leaf, and the ciphertext is decrypted from its
   offset. *)
let read_page_once t index =
  Obs.count ~scope:obs_scope "pages_read";
  let raw = S.Block_device.read_page t.device index in
  t.stats.device_reads <- t.stats.device_reads + 1;
  let clen = (Char.code raw.[48] lsl 8) lor Char.code raw.[49] in
  if clen > S.Block_device.page_size - header_len then
    Error (Corrupt_page (index, "ciphertext length field out of range"))
  else begin
    (* 1. page integrity: MAC over index|IV|ciphertext *)
    t.stats.page_mac_checks <- t.stats.page_mac_checks + 1;
    Obs.count ~scope:obs_scope "hmac_checks";
    let mac = page_mac t index raw 0 raw header_len clen in
    if not (C.Constant_time.equal_sub mac raw 16) then Error (Tampered_page index)
    else begin
      (* 2. freshness: the tag must be the one the tree holds for this
         page. An older version of the page carries a valid MAC, but
         not the current one. The tree sits in trusted memory, so its
         path is not re-hashed here (see DESIGN.md); [merkle_hashes]
         still counts the [depth] nodes of the path walk the cost
         model charges. *)
      t.stats.merkle_hashes <- t.stats.merkle_hashes + C.Merkle.depth t.merkle;
      Obs.count ~scope:obs_scope "merkle_verifies";
      if not (C.Constant_time.equal mac (C.Merkle.leaf t.merkle index)) then
        Error (Tampered_page index)
      else if not (C.Constant_time.equal (current_root_mac t) t.anchored_root)
      then Error Stale_root
      else begin
        (* 3. decrypt *)
        t.stats.page_decrypts <- t.stats.page_decrypts + 1;
        Obs.count ~scope:obs_scope "page_decrypts";
        decrypt_payload t index raw clen
      end
    end
  end

(* Read with recovery: a MAC/Merkle mismatch or corrupt page is
   re-read and re-verified up to [read_retry_budget] times (transient
   media faults heal; genuine tampering and bit rot keep failing and
   surface as the typed error). Only active under a fault plan, so
   attack-path semantics without one are exactly one attempt. *)
let read_page t index =
  if index < 0 || index >= t.data_pages then
    invalid_arg "Secure_store.read_page: index out of range";
  let mark = Fault.incident_count t.faults in
  let rec attempt n =
    match read_page_once t index with
    | Ok plain ->
        if n > 0 then Fault.note_recovered_since t.faults mark;
        Ok plain
    | Error (Tampered_page _ | Corrupt_page _)
      when Fault.enabled t.faults && n < read_retry_budget ->
        Fault.note_retry t.faults ~action:"securestore.reread";
        Obs.count ~scope:obs_scope "page_rereads";
        attempt (n + 1)
    | Error e -> Error e
  in
  attempt 0

(* The store's in-memory state under [keys], its tree all empty leaves. *)
let make ~key_mode ~device ~rpmb ~keys ~data_pages ~drbg =
  {
    device;
    rpmb;
    keys;
    key_mode;
    enc_key = C.Aes.expand_key (Keyslot.page_enc_key keys);
    page_keys = Array.make data_pages None;
    page_mac_prekey = C.Hmac.precompute ~key:(Keyslot.page_mac_key keys);
    task_prekey = C.Hmac.precompute ~key:(Keyslot.task_key keys);
    root_mac_memo = None;
    merkle = C.Merkle.create ~key:(Keyslot.page_mac_key keys) ~leaves:data_pages;
    drbg;
    data_pages;
    stats = fresh_stats ();
    anchored_root = "";
    faults = Fault.none;
  }

(* First-time initialization: generate data key, persist it to RPMB,
   build an empty Merkle tree over zeroed leaf tags. *)
let initialize ?(key_mode = Single_key) ~device ~rpmb
    ~hardware_key ~data_pages ~drbg () =
  if device_pages_for ~data_pages > S.Block_device.page_count device then
    invalid_arg "Secure_store.initialize: device too small for data + metadata";
  let keys = Keyslot.generate ~hardware_key drbg in
  (match S.Rpmb.program_key rpmb (Keyslot.rpmb_auth_key keys) with
  | Ok () | Error S.Rpmb.Key_already_programmed -> ()
  | Error e -> invalid_arg (Fmt.str "Secure_store.initialize: %a" S.Rpmb.pp_error e));
  let key_frame =
    S.Rpmb.make_write_frame
      ~key:(Keyslot.rpmb_auth_key keys)
      ~slot:data_key_slot
      ~payload:(Keyslot.data_key keys)
      ~write_counter:(S.Rpmb.read_counter rpmb)
  in
  match S.Rpmb.write rpmb key_frame with
  | Error e -> Error (Rpmb_error e)
  | Ok _ ->
      let t =
        make ~key_mode ~device ~rpmb ~keys ~data_pages ~drbg
      in
      (* persist initial (empty) leaf tags *)
      for i = 0 to data_pages - 1 do
        persist_leaf_tag t i
      done;
      (match anchor_root t with Ok () -> () | Error _ -> assert false);
      reset_stats t;
      Ok t

(* Re-open after reboot: recover the data key from RPMB, rebuild the
   Merkle tree from the on-device leaf tags, and require the resulting
   root to match the RPMB anchor. A rolled-back or forked medium fails
   here with [Stale_root]. *)
let open_existing ?(key_mode = Single_key) ~device ~rpmb
    ~hardware_key ~data_pages ~drbg () =
  let rpmb_key = Keyslot.derive_rpmb_auth_key ~hardware_key in
  let nonce = C.Drbg.generate drbg 16 in
  match S.Rpmb.read rpmb ~nonce data_key_slot with
  | Error e -> Error (Rpmb_error e)
  | Ok key_frame ->
      if not (S.Rpmb.verify_read_response ~key:rpmb_key ~nonce key_frame) then
        Error (Rpmb_error S.Rpmb.Bad_mac)
      else begin
        let data_key = String.sub key_frame.S.Rpmb.payload 0 32 in
        let keys = Keyslot.of_data_key ~hardware_key ~data_key in
        let t =
          make ~key_mode ~device ~rpmb ~keys ~data_pages ~drbg
        in
        for i = 0 to data_pages - 1 do
          let meta_page = data_pages + (i / tags_per_page) in
          let raw = S.Block_device.read_page device meta_page in
          C.Merkle.set_leaf t.merkle i
            (String.sub raw (i mod tags_per_page * 32) 32)
        done;
        let nonce = C.Drbg.generate drbg 16 in
        match S.Rpmb.read rpmb ~nonce root_slot with
        | Error e -> Error (Rpmb_error e)
        | Ok root_frame ->
            if not (S.Rpmb.verify_read_response ~key:rpmb_key ~nonce root_frame)
            then Error (Rpmb_error S.Rpmb.Bad_mac)
            else begin
              let anchored = String.sub root_frame.S.Rpmb.payload 0 32 in
              if not (C.Constant_time.equal (current_root_mac t) anchored)
              then Error Stale_root
              else begin
                t.anchored_root <- anchored;
                reset_stats t;
                Ok t
              end
            end
      end
