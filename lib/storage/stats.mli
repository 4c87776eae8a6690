(** I/O accounting.

    The paper's entire evaluation is in units of page I/Os, so the storage
    layer counts every physical page read and write.  Buffer-pool hits are
    tracked separately: a hit is a logical access that costs no I/O.

    Every block belongs to one instance (each [Pager] owns one); there are
    no process-wide totals.  A caller that spans several databases sums
    their blocks itself.  [t] is private: fields are readable everywhere,
    but only {!add}, {!bump}, {!reset} and the gauge setters change them
    ({!record_read}/{!record_write} fill [by_file]). *)

type t = private {
  mutable page_reads : int;  (** physical page reads from disk *)
  mutable page_writes : int;  (** physical page writes to disk *)
  mutable buffer_hits : int;  (** logical accesses served from the pool *)
  mutable pages_allocated : int;
  mutable objects_read : int;
  mutable objects_written : int;
  mutable wal_appends : int;  (** records appended to the write-ahead log *)
  mutable wal_bytes : int;  (** bytes written to the write-ahead log *)
  mutable recovery_replays : int;  (** log records redone by [Db.recover] *)
  mutable txn_commits : int;  (** transactions committed *)
  mutable txn_aborts : int;  (** transactions rolled back (any reason) *)
  mutable lock_waits : int;  (** lock requests that blocked *)
  mutable deadlocks : int;  (** wait-for cycles broken by aborting a victim *)
  mutable undo_applied : int;  (** before-images restored by abort/recovery *)
  mutable checksum_failures : int;
      (** physical reads rejected because the page checksum did not match *)
  mutable scrub_pages : int;  (** pages verified by {!Scrub} sweeps *)
  mutable repairs : int;  (** replicated values / link objects rebuilt *)
  mutable degraded_reads : int;
      (** queries that fell back to the functional join because a replica
          page was quarantined *)
  mutable read_retries : int;
      (** physical reads retried after a transient fault *)
  mutable failed_reads : int;
      (** buffer-pool installs whose physical read failed after retries;
          the victim frame is kept, so [buffer_hits + page_reads +
          failed_reads] accounts for every lookup *)
  mutable prefetch_issued : int;
      (** pages read ahead of demand by the sequential prefetcher *)
  mutable prefetch_hits : int;
      (** lookups served by a frame the prefetcher loaded *)
  mutable wal_flushes : int;
      (** physical flushes of the write-ahead log (group commit batches
          many appends per flush) *)
  mutable frames_shipped : int;
      (** log frames shipped to replication peers by a master *)
  mutable frames_applied : int;
      (** log frames applied through the redo path by a replica *)
  mutable acks_waited : int;
      (** ack-mode commit barriers: syncs that blocked on replica acks *)
  mutable replica_lag_bytes : int;
      (** gauge (not a counter): bytes buffered for the slowest async
          replication peer at the last update *)
  mutable maint_steps : int;
      (** background-maintenance quanta executed (lib/maint) *)
  mutable maint_pages_walked : int;
      (** heap pages processed by maintenance cursors *)
  mutable maint_lock_yields : int;
      (** maintenance quanta that released their locks and backed off
          because a foreground transaction held a conflicting lock *)
  mutable maint_backfill_pending : int;
      (** gauge (not a counter): heap pages the queued maintenance jobs
          have still to walk, at the last update *)
  mutable peer_deaths : int;
      (** replication peers declared Dead: heartbeat deadline missed or
          transport disconnected *)
  mutable ack_demotions : int;
      (** ack-mode commits that proceeded without a replica because its ack
          deadline expired (the peer is demoted to async) *)
  mutable heartbeats_missed : int;
      (** heartbeat deadlines missed by a peer (each miss moves the peer
          one step along Live -> Suspect -> Dead) *)
  mutable failovers : int;
      (** replica promotions to master (epoch bumps) *)
  mutable reconnects : int;
      (** transport reconnect attempts made by the backoff dialer *)
  by_file : (int, int * int) Hashtbl.t;
      (** per-file (reads, writes) attribution, keyed by disk file id *)
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

(** One constructor per counter field of {!t}.  The two gauges
    ([replica_lag_bytes], [maint_backfill_pending]) are deliberately
    absent: they are set, not accumulated — use {!set_replica_lag} and
    {!set_maint_backlog}. *)
type counter =
  | Page_reads
  | Page_writes
  | Buffer_hits
  | Pages_allocated
  | Objects_read
  | Objects_written
  | Wal_appends
  | Wal_bytes
  | Recovery_replays
  | Txn_commits
  | Txn_aborts
  | Lock_waits
  | Deadlocks
  | Undo_applied
  | Checksum_failures
  | Scrub_pages
  | Repairs
  | Degraded_reads
  | Read_retries
  | Failed_reads
  | Prefetch_issued
  | Prefetch_hits
  | Wal_flushes
  | Frames_shipped
  | Frames_applied
  | Acks_waited
  | Maint_steps
  | Maint_pages_walked
  | Maint_lock_yields
  | Peer_deaths
  | Ack_demotions
  | Heartbeats_missed
  | Failovers
  | Reconnects

val add : t -> counter -> int -> unit
(** [add t c n] adds [n] to counter [c].  This is the only place in the
    tree that mutates a counter field (enforced by the private type), so
    the representation can later move to [Atomic] fetch-and-add without
    touching call sites. *)

val bump : t -> counter -> unit
(** [bump t c] is [add t c 1]. *)

val diff : t -> t -> t
(** [diff now before] is the per-counter difference (per file too); the two
    gauges carry [now]'s value. *)

val total_io : t -> int
(** [page_reads + page_writes] — the quantity the paper's C functions
    estimate. *)

val record_read : t -> file:int -> unit
val record_write : t -> file:int -> unit

val file_io : t -> file:int -> int * int
(** (reads, writes) charged to one file since the last reset. *)

val set_replica_lag : t -> bytes:int -> unit
(** Set the replication-lag gauge: bytes buffered for the slowest async
    peer.  A gauge, so {!diff} reports the current value, not a delta. *)

val set_maint_backlog : t -> pages:int -> unit
(** Set the maintenance-backlog gauge: heap pages still to walk across all
    queued jobs.  A gauge, so {!diff} reports the current value. *)

val pp : Format.formatter -> t -> unit
