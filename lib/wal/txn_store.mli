(** Transactional façade over the secure page store: writes are
    WAL-logged and versioned, commits are group-committed on the
    virtual clock, reads resolve through the MVCC overlay, and the
    whole thing survives a crash at any WAL fault site.

    Layering (top to bottom): MVCC overlay → [base] (optionally a
    {!Ironsafe_sql.Bufpool} the deployment routes through) → secure
    store → block device + RPMB. The WAL lives on its own device.

    Commit protocol: page writes are logged ({!Record.Page_write}) as
    they happen, [commit] logs the {!Record.Commit} and installs the
    transaction's versions in the overlay (visible immediately), but
    the commit is only {e acknowledged} — [`Durable] — once a WAL
    flush covering its LSN completes (records on the log device {e
    and} RPMB anchor advanced). With a group-commit window, commits
    return [`Queued] and a later [flush] / [tick] / window-expiry
    acknowledges the whole batch with a single anchor update. *)

type t

exception Base_failure of string
(** A base-store page operation failed (integrity violation surfaced
    from the secure store during checkpoint write-back or base read). *)

type error = Wal_error of Wal.error | Store_error of string

val pp_error : Format.formatter -> error -> unit

type stats = {
  mutable commits : int;  (** commit records logged *)
  mutable durable_commits : int;  (** commits acknowledged durable *)
  mutable group_flushes : int;  (** flushes covering >= 1 commit *)
  mutable max_group : int;  (** largest commit batch one flush covered *)
  mutable checkpoints : int;
  mutable snapshot_reads : int;
  mutable redo_pages : int;  (** page images re-applied at recovery *)
}

val attach :
  store:Ironsafe_securestore.Secure_store.t ->
  wal:Wal.t ->
  device:Ironsafe_storage.Block_device.t ->
  ?window_ns:float ->
  ?max_group:int ->
  unit ->
  t
(** Wrap [store] (whose pages live on [device] — needed by the
    torn-checkpoint fault site). [window_ns] (default 0 = synchronous
    commit) is the group-commit window on the virtual clock;
    [max_group] (default 64) bounds a batch. The store starts in
    pass-through mode — see {!engage}. *)

val engage : t -> unit
(** Turn logging/versioning on. Until then reads and writes go
    straight to the base store: nothing is logged or versioned, so
    population writes exactly the pages a store without a WAL would. *)

val engaged : t -> bool

val set_clock : t -> (unit -> float) -> unit
val set_faults : t -> Ironsafe_fault.Fault.t -> unit

val store : t -> Ironsafe_securestore.Secure_store.t
val wal : t -> Wal.t
val mvcc_latest : t -> int

val route_base :
  t ->
  read:(int -> string) ->
  write:(int -> string -> unit) ->
  flush:(unit -> unit) ->
  cached:(int -> bool) ->
  unit
(** Interpose a caching layer (the deployment's buffer pool) between
    the overlay and the secure store. The default base accesses the
    store directly. *)

(** {2 Pager-shaped access (implicit statement transactions)} *)

val pager_read : t -> int -> string
(** Own uncommitted write, else newest overlay version visible at the
    pinned snapshot (or the latest commit), else the base store. *)

val pager_write : t -> int -> string -> unit
(** Log + buffer the write under the current implicit transaction
    (opened on demand); nothing reaches the base store until a
    checkpoint writes back committed versions. *)

val pager_cached : t -> int -> bool

val commit_current :
  ?sync:bool -> t -> ([ `Durable of int | `Queued of int | `Empty ], error) result
(** Commit the implicit transaction. [sync] (default [false]) forces
    the flush regardless of the group-commit window. [`Empty] when no
    write happened since the last commit. *)

val abort_current : t -> unit

(** {2 Explicit transactions} *)

type txn

val begin_txn : t -> txn
val txn_write : t -> txn -> page:int -> string -> unit
val txn_read : t -> txn -> int -> string

val commit_txn :
  ?sync:bool -> t -> txn -> ([ `Durable of int | `Queued of int ], error) result

(** {2 Group commit} *)

val tick : t -> (unit, error) result
(** Flush if the group-commit window deadline has passed (the flush
    daemon's beat — the runner calls this with the virtual clock). *)

val flush : t -> (unit, error) result
(** Force the pending group durable now. On [Log_full] the queued
    records can never reach the device: they are discarded and their
    commits rolled back out of the overlay (the same outcome a crash
    before the ack would have — none was acknowledged [`Durable]), an
    open transaction is kept re-loggable at commit, and the error is
    returned; a following {!checkpoint} truncates and unwedges the
    log. A failed RPMB anchor write leaves the affected commits
    pending: the frames are on the device and a later flush retries
    the anchor over them. *)

val unacked_commits : t -> int

(** {2 Snapshots} *)

val snapshot : t -> int
val release_snapshot : t -> int -> unit

val with_snapshot : t -> (int -> 'a) -> 'a
(** Pin a snapshot, route {!pager_read}s through it for the duration
    of the callback, release it after. *)

(** {2 Checkpoint and recovery} *)

val checkpoint : t -> (unit, error) result
(** Flush the WAL, write the newest committed versions back to the
    base store (preserving old base images for older pinned
    snapshots), then truncate the log and collect overlay garbage.
    If the flush fails with [Log_full], the never-persisted tail has
    already been rolled back (see {!flush}) and the checkpoint
    proceeds over the durable prefix — truncation then frees the log.
    The [Wal_torn_checkpoint] fault site fires here: it persists a
    torn base page and crashes. *)

val adopt :
  t ->
  store:Ironsafe_securestore.Secure_store.t ->
  wal:Wal.t ->
  records:Record.t list ->
  (unit, error) result
(** In-place recovery: replace the crashed store/WAL with freshly
    reopened ones, redo-apply the committed [records] (in LSN order,
    applied at their commit points), truncate the log and reset the
    overlay. Existing pager closures over this [t] stay valid — this
    is what lets a deployment reboot its secure medium without
    rebuilding the SQL layer. The WAL inherits this store's fault plan
    and clock. *)

val state_hash : t -> pages:int list -> string
(** SHA-256 over the latest committed plaintext of [pages] plus the
    durable LSN — the recovery-idempotence fingerprint. The log epoch
    is excluded: truncation bumps it on every recovery while the
    logical state stays identical. *)

val stats : t -> stats
