(* Untrusted storage medium: a flat array of 4 KiB pages.

   This is the component the adversary of §3.3 fully controls, so the
   API deliberately includes attack entry points (tamper, rollback,
   fork) used by the security tests and the attack-demo example. The
   device also counts reads/writes — those counters are the ground
   truth for the data-movement figures. *)

module Fault = Ironsafe_fault.Fault

let page_size = 4096

type t = {
  pages : Bytes.t array;
  mutable reads : int;
  mutable writes : int;
  mutable snapshots : (string * Bytes.t array) list;
  mutable faults : Fault.t;
}

let create ~pages:n =
  if n <= 0 then invalid_arg "Block_device.create: page count must be positive";
  {
    pages = Array.init n (fun _ -> Bytes.make page_size '\000');
    reads = 0;
    writes = 0;
    snapshots = [];
    faults = Fault.none;
  }

let set_faults t plan = t.faults <- plan

let page_count t = Array.length t.pages

let check t i =
  if i < 0 || i >= Array.length t.pages then
    invalid_arg (Printf.sprintf "Block_device: page %d out of range" i)

(* Injected media faults decay a whole 16-byte ECC block: real devices
   fail at block granularity, and a burst reliably overlaps live bytes
   on a well-filled page (a single-bit model can land in unused
   padding and go unobserved). *)
let ecc_block = 16

let corrupt_block b off =
  let off = min off (page_size - ecc_block) in
  for k = off to off + ecc_block - 1 do
    Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor 0x40))
  done

let read_page t i =
  check t i;
  t.reads <- t.reads + 1;
  (* injected media faults (plan-driven, deterministic): bit rot decays
     the stored page; a transient error corrupts only this read *)
  if Fault.enabled t.faults && Fault.fire t.faults Fault.Device_bit_rot then
    corrupt_block t.pages.(i) (Fault.rand_int t.faults page_size);
  if Fault.enabled t.faults && Fault.fire t.faults Fault.Device_read_transient
  then begin
    let copy = Bytes.copy t.pages.(i) in
    corrupt_block copy (Fault.rand_int t.faults page_size);
    Bytes.unsafe_to_string copy
  end
  else Bytes.to_string t.pages.(i)

let write_page t i data =
  check t i;
  if String.length data <> page_size then
    invalid_arg "Block_device.write_page: data must be exactly one page";
  t.writes <- t.writes + 1;
  if Fault.enabled t.faults && Fault.fire t.faults Fault.Device_torn_write
  then begin
    (* torn write: only the first half of the page reaches the medium *)
    Bytes.blit_string data 0 t.pages.(i) 0 (page_size / 2);
    Bytes.fill t.pages.(i) (page_size / 2) (page_size / 2) '\000'
  end
  else Bytes.blit_string data 0 t.pages.(i) 0 page_size

let reads t = t.reads
let writes t = t.writes

let reset_counters t =
  t.reads <- 0;
  t.writes <- 0

(* -- Adversarial interface (threat model §3.3) --------------------- *)

(* Flip one byte of a page without going through the storage engine. *)
let tamper t ~page ~offset =
  check t page;
  if offset < 0 || offset >= page_size then
    invalid_arg "Block_device.tamper: offset out of range";
  let b = Bytes.get t.pages.(page) offset in
  Bytes.set t.pages.(page) offset (Char.chr (Char.code b lxor 0xff))

(* Swap two pages in place (displacement attack). *)
let swap_pages t i j =
  check t i;
  check t j;
  let tmp = t.pages.(i) in
  t.pages.(i) <- Bytes.copy t.pages.(j);
  Bytes.blit tmp 0 t.pages.(j) 0 page_size

let snapshot t ~name =
  t.snapshots <-
    (name, Array.map Bytes.copy t.pages)
    :: List.remove_assoc name t.snapshots

(* Rollback attack: silently revert the medium to an earlier state. *)
let rollback t ~name =
  match List.assoc_opt name t.snapshots with
  | None -> Error (Printf.sprintf "no snapshot %S" name)
  | Some saved ->
      Array.iteri (fun i p -> Bytes.blit p 0 t.pages.(i) 0 page_size) saved;
      Ok ()

(* Forking attack: a full replica of the medium the adversary can run
   a second storage-system instance against. *)
let fork t =
  {
    pages = Array.map Bytes.copy t.pages;
    reads = 0;
    writes = 0;
    snapshots = [];
    faults = Fault.none;
  }
