(* Heap files: a table's rows packed into pager pages in insertion
   order. Page payload layout: u16 row count, then encoded rows. Rows
   never span pages (every supported row fits one page).

   A resident heap file instead holds an immutable row list in memory,
   with no pager behind it: the host engine registers the rows the
   storage engine shipped this way, so they are neither re-encoded
   into pages nor decoded back out of them. *)

type paged = {
  pager : Pager.t;
  mutable pages : int list; (* in reverse order of allocation *)
  mutable row_count : int;
  (* write cursor over the last page *)
  mutable cur_page : int option;
  mutable cur_buf : Buffer.t;
  mutable cur_rows : int;
  mutable dirty : bool;
}

type store = Paged of paged | Resident of Row.t list

type t = { schema : Schema.t; store : store }

let create ~pager ~schema =
  {
    schema;
    store =
      Paged
        {
          pager;
          pages = [];
          row_count = 0;
          cur_page = None;
          cur_buf = Buffer.create 512;
          cur_rows = 0;
          dirty = false;
        };
  }

let resident ~schema rows =
  let arity = Schema.arity schema in
  if List.exists (fun r -> Array.length r <> arity) rows then
    invalid_arg "Heap_file.resident: row arity mismatch";
  { schema; store = Resident rows }

(* The paged store of [t]; resident files support only scans. *)
let paged t fn =
  match t.store with
  | Paged p -> p
  | Resident _ -> invalid_arg ("Heap_file." ^ fn ^ ": resident table")

let schema t = t.schema

let row_count t =
  match t.store with Paged p -> p.row_count | Resident rows -> List.length rows

let is_resident t = match t.store with Resident _ -> true | Paged _ -> false

let page_count t =
  match t.store with Paged p -> List.length p.pages | Resident _ -> 0

let flush_current t =
  match t.cur_page with
  | None -> ()
  | Some page when t.dirty ->
      let buf = Buffer.create (Buffer.length t.cur_buf + 2) in
      Buffer.add_char buf (Char.chr ((t.cur_rows lsr 8) land 0xff));
      Buffer.add_char buf (Char.chr (t.cur_rows land 0xff));
      Buffer.add_buffer buf t.cur_buf;
      Pager.write t.pager page (Buffer.contents buf);
      t.dirty <- false
  | Some _ -> ()

let append_paged schema t row =
  if Array.length row <> Schema.arity schema then
    invalid_arg "Heap_file.append: row arity mismatch";
  let encoded = Row.encode row in
  if String.length encoded + 2 > Pager.capacity t.pager then
    invalid_arg "Heap_file.append: row exceeds page capacity";
  (match t.cur_page with
  | Some _ when Buffer.length t.cur_buf + String.length encoded + 2
                <= Pager.capacity t.pager ->
      ()
  | Some _ ->
      flush_current t;
      let page = Pager.allocate t.pager in
      t.pages <- page :: t.pages;
      t.cur_page <- Some page;
      Buffer.clear t.cur_buf;
      t.cur_rows <- 0
  | None ->
      let page = Pager.allocate t.pager in
      t.pages <- page :: t.pages;
      t.cur_page <- Some page;
      Buffer.clear t.cur_buf;
      t.cur_rows <- 0);
  Buffer.add_string t.cur_buf encoded;
  t.cur_rows <- t.cur_rows + 1;
  t.row_count <- t.row_count + 1;
  t.dirty <- true

let append t row = append_paged t.schema (paged t "append") row

(* Like {!append} but reports the page the row landed on (used for
   index maintenance). *)
let append_page t row =
  let p = paged t "append_page" in
  append_paged t.schema p row;
  match p.cur_page with Some page -> page | None -> assert false

let append_all t rows = List.iter (append t) rows

(* Make pending rows durable. Scans always flush first so they see a
   consistent on-storage image. *)
let flush t = match t.store with Paged p -> flush_current p | Resident _ -> ()

let stored_pages t =
  match t.store with Paged p -> List.rev p.pages | Resident _ -> []

(* Rebuild the volatile write cursor and row count from the on-storage
   image. After a crash-and-recover of the backing store, the pages
   hold only durably committed rows while the in-memory cursor may
   still carry rows whose commit was lost — without this, the next
   append would resurrect them. A page the recovered store can no
   longer serve (allocated by a rolled-back transaction, so never
   durably written) is dropped from the file; allocations are monotone,
   so such pages can only form a tail. Only the exceptions that shape
   produces — a read past the recovered store's extent
   ([Invalid_argument]) or a row that fails the decoder's checks on
   never-written content ([Invalid_argument]/[Failure]/
   [Value.Type_error]) — are treated as the tail; rows are checked
   with an all-false mask, so none is built; an integrity violation
   ({!Pager.Integrity_failure}) is tamper detection and must
   propagate, never masquerade as truncation. *)
let reload_paged arity t =
  let kept = ref [] in
  let count = ref 0 in
  let last = ref None in
  let check_only = Array.make arity false in
  (try
     List.iter
       (fun page ->
         let payload = Pager.read t.pager page in
         let nrows =
           (Char.code payload.[0] lsl 8) lor Char.code payload.[1]
         in
         let c = Value.cursor payload 2 in
         for _ = 1 to nrows do
           ignore (Row.decode_into ~mask:check_only c [||])
         done;
         kept := page :: !kept;
         count := !count + nrows;
         last := Some (page, nrows, String.sub payload 2 (c.Value.pos - 2)))
       (List.rev t.pages)
   with Invalid_argument _ | Failure _ | Value.Type_error _ ->
     () (* unreadable tail: rolled-back allocation *));
  t.pages <- !kept;
  t.row_count <- !count;
  Buffer.clear t.cur_buf;
  (match !last with
  | None ->
      t.cur_page <- None;
      t.cur_rows <- 0
  | Some (page, nrows, rows_bytes) ->
      t.cur_page <- Some page;
      t.cur_rows <- nrows;
      Buffer.add_string t.cur_buf rows_bytes);
  t.dirty <- false

let reload t =
  match t.store with
  | Resident _ -> ()
  | Paged p -> reload_paged (Schema.arity t.schema) p

let iter_pages ?mask t pages ~f =
  let p = paged t "iter_pages" in
  flush_current p;
  let arity = Schema.arity t.schema in
  let mask = match mask with Some m -> m | None -> Array.make arity true in
  if Array.length mask <> arity then
    invalid_arg "Heap_file.iter_pages: mask arity mismatch";
  List.iter
    (fun page ->
      let payload = Pager.read p.pager page in
      let nrows = (Char.code payload.[0] lsl 8) lor Char.code payload.[1] in
      let c = Value.cursor payload 2 in
      for _ = 1 to nrows do
        let row = Array.make arity Value.Null in
        let heap = Row.decode_into ~mask c row in
        f ~page row heap
      done)
    pages

let scan ?mask t ~f =
  match t.store with
  | Resident rows -> List.iter (fun row -> f row (Row.heap_size row)) rows
  | Paged _ ->
      iter_pages ?mask t (stored_pages t) ~f:(fun ~page:_ row heap ->
          f row heap)

let iter t ~f =
  match t.store with
  | Resident rows -> List.iter f rows
  | Paged _ -> scan t ~f:(fun row _ -> f row)

let to_list t =
  match t.store with
  | Resident rows -> rows
  | Paged _ ->
      let acc = ref [] in
      iter t ~f:(fun row -> acc := row :: !acc);
      List.rev !acc

(* Rewrite the file with [f] applied to every row ([None] deletes).
   Used by UPDATE/DELETE: pages are rewritten in place, surplus pages
   left allocated but empty. Returns number of affected rows. *)
let rewrite t ~f =
  let p = paged t "rewrite" in
  let rows = to_list t in
  let affected = ref 0 in
  let kept =
    List.filter_map
      (fun row ->
        match f row with
        | `Keep -> Some row
        | `Replace row' ->
            incr affected;
            Some row'
        | `Delete ->
            incr affected;
            None)
      rows
  in
  (* reset and re-append into the existing page list *)
  let old_pages = stored_pages t in
  p.pages <- [];
  p.row_count <- 0;
  p.cur_page <- None;
  Buffer.clear p.cur_buf;
  p.cur_rows <- 0;
  p.dirty <- false;
  let available = ref old_pages in
  let take_page () =
    match !available with
    | page :: rest ->
        available := rest;
        page
    | [] -> Pager.allocate p.pager
  in
  List.iter
    (fun row ->
      let encoded = Row.encode row in
      (match p.cur_page with
      | Some _ when Buffer.length p.cur_buf + String.length encoded + 2
                    <= Pager.capacity p.pager ->
          ()
      | Some _ | None ->
          flush_current p;
          let page = take_page () in
          p.pages <- page :: p.pages;
          p.cur_page <- Some page;
          Buffer.clear p.cur_buf;
          p.cur_rows <- 0);
      Buffer.add_string p.cur_buf encoded;
      p.cur_rows <- p.cur_rows + 1;
      p.row_count <- p.row_count + 1;
      p.dirty <- true)
    kept;
  flush t;
  (* zero out any now-unused pages *)
  List.iter (fun page -> Pager.write p.pager page "\000\000") !available;
  !affected
