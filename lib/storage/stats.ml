type t = {
  mutable page_reads : int;
  mutable page_writes : int;
  mutable buffer_hits : int;
  mutable pages_allocated : int;
  mutable objects_read : int;
  mutable objects_written : int;
  mutable wal_appends : int;
  mutable wal_bytes : int;
  mutable recovery_replays : int;
  mutable txn_commits : int;
  mutable txn_aborts : int;
  mutable lock_waits : int;
  mutable deadlocks : int;
  mutable undo_applied : int;
  mutable checksum_failures : int;
  mutable scrub_pages : int;
  mutable repairs : int;
  mutable degraded_reads : int;
  mutable read_retries : int;
  mutable failed_reads : int;
  mutable prefetch_issued : int;
  mutable prefetch_hits : int;
  mutable wal_flushes : int;
  mutable frames_shipped : int;
  mutable frames_applied : int;
  mutable acks_waited : int;
  mutable replica_lag_bytes : int;
  mutable maint_steps : int;
  mutable maint_pages_walked : int;
  mutable maint_lock_yields : int;
  mutable maint_backfill_pending : int;
  mutable peer_deaths : int;
  mutable ack_demotions : int;
  mutable heartbeats_missed : int;
  mutable failovers : int;
  mutable reconnects : int;
  by_file : (int, int * int) Hashtbl.t;
}

let create () =
  {
    page_reads = 0;
    page_writes = 0;
    buffer_hits = 0;
    pages_allocated = 0;
    objects_read = 0;
    objects_written = 0;
    wal_appends = 0;
    wal_bytes = 0;
    recovery_replays = 0;
    txn_commits = 0;
    txn_aborts = 0;
    lock_waits = 0;
    deadlocks = 0;
    undo_applied = 0;
    checksum_failures = 0;
    scrub_pages = 0;
    repairs = 0;
    degraded_reads = 0;
    read_retries = 0;
    failed_reads = 0;
    prefetch_issued = 0;
    prefetch_hits = 0;
    wal_flushes = 0;
    frames_shipped = 0;
    frames_applied = 0;
    acks_waited = 0;
    replica_lag_bytes = 0;
    maint_steps = 0;
    maint_pages_walked = 0;
    maint_lock_yields = 0;
    maint_backfill_pending = 0;
    peer_deaths = 0;
    ack_demotions = 0;
    heartbeats_missed = 0;
    failovers = 0;
    reconnects = 0;
    by_file = Hashtbl.create 16;
  }

let reset t =
  t.page_reads <- 0;
  t.page_writes <- 0;
  t.buffer_hits <- 0;
  t.pages_allocated <- 0;
  t.objects_read <- 0;
  t.objects_written <- 0;
  t.wal_appends <- 0;
  t.wal_bytes <- 0;
  t.recovery_replays <- 0;
  t.txn_commits <- 0;
  t.txn_aborts <- 0;
  t.lock_waits <- 0;
  t.deadlocks <- 0;
  t.undo_applied <- 0;
  t.checksum_failures <- 0;
  t.scrub_pages <- 0;
  t.repairs <- 0;
  t.degraded_reads <- 0;
  t.read_retries <- 0;
  t.failed_reads <- 0;
  t.prefetch_issued <- 0;
  t.prefetch_hits <- 0;
  t.wal_flushes <- 0;
  t.frames_shipped <- 0;
  t.frames_applied <- 0;
  t.acks_waited <- 0;
  t.replica_lag_bytes <- 0;
  t.maint_steps <- 0;
  t.maint_pages_walked <- 0;
  t.maint_lock_yields <- 0;
  t.maint_backfill_pending <- 0;
  t.peer_deaths <- 0;
  t.ack_demotions <- 0;
  t.heartbeats_missed <- 0;
  t.failovers <- 0;
  t.reconnects <- 0;
  Hashtbl.reset t.by_file

(* The one mutation point for the counter fields.  [t] is private outside
   this module, so every increment in the tree goes through [add]; moving
   the counters to [Atomic] fetch-and-add later is a change to this single
   match, not to every call site. *)
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

let add t c n =
  match c with
  | Page_reads -> t.page_reads <- t.page_reads + n
  | Page_writes -> t.page_writes <- t.page_writes + n
  | Buffer_hits -> t.buffer_hits <- t.buffer_hits + n
  | Pages_allocated -> t.pages_allocated <- t.pages_allocated + n
  | Objects_read -> t.objects_read <- t.objects_read + n
  | Objects_written -> t.objects_written <- t.objects_written + n
  | Wal_appends -> t.wal_appends <- t.wal_appends + n
  | Wal_bytes -> t.wal_bytes <- t.wal_bytes + n
  | Recovery_replays -> t.recovery_replays <- t.recovery_replays + n
  | Txn_commits -> t.txn_commits <- t.txn_commits + n
  | Txn_aborts -> t.txn_aborts <- t.txn_aborts + n
  | Lock_waits -> t.lock_waits <- t.lock_waits + n
  | Deadlocks -> t.deadlocks <- t.deadlocks + n
  | Undo_applied -> t.undo_applied <- t.undo_applied + n
  | Checksum_failures -> t.checksum_failures <- t.checksum_failures + n
  | Scrub_pages -> t.scrub_pages <- t.scrub_pages + n
  | Repairs -> t.repairs <- t.repairs + n
  | Degraded_reads -> t.degraded_reads <- t.degraded_reads + n
  | Read_retries -> t.read_retries <- t.read_retries + n
  | Failed_reads -> t.failed_reads <- t.failed_reads + n
  | Prefetch_issued -> t.prefetch_issued <- t.prefetch_issued + n
  | Prefetch_hits -> t.prefetch_hits <- t.prefetch_hits + n
  | Wal_flushes -> t.wal_flushes <- t.wal_flushes + n
  | Frames_shipped -> t.frames_shipped <- t.frames_shipped + n
  | Frames_applied -> t.frames_applied <- t.frames_applied + n
  | Acks_waited -> t.acks_waited <- t.acks_waited + n
  | Maint_steps -> t.maint_steps <- t.maint_steps + n
  | Maint_pages_walked -> t.maint_pages_walked <- t.maint_pages_walked + n
  | Maint_lock_yields -> t.maint_lock_yields <- t.maint_lock_yields + n
  | Peer_deaths -> t.peer_deaths <- t.peer_deaths + n
  | Ack_demotions -> t.ack_demotions <- t.ack_demotions + n
  | Heartbeats_missed -> t.heartbeats_missed <- t.heartbeats_missed + n
  | Failovers -> t.failovers <- t.failovers + n
  | Reconnects -> t.reconnects <- t.reconnects + n

let bump t c = add t c 1

(* The two gauges are set, not accumulated, so they sit outside [add]. *)
let set_replica_lag t ~bytes = t.replica_lag_bytes <- bytes
let set_maint_backlog t ~pages = t.maint_backfill_pending <- pages

let record_read t ~file =
  let r, w = Option.value ~default:(0, 0) (Hashtbl.find_opt t.by_file file) in
  Hashtbl.replace t.by_file file (r + 1, w)

let record_write t ~file =
  let r, w = Option.value ~default:(0, 0) (Hashtbl.find_opt t.by_file file) in
  Hashtbl.replace t.by_file file (r, w + 1)

let file_io t ~file = Option.value ~default:(0, 0) (Hashtbl.find_opt t.by_file file)

let copy t = { t with by_file = Hashtbl.copy t.by_file }

let diff now before =
  let by_file = Hashtbl.copy now.by_file in
  Hashtbl.iter
    (fun file (r0, w0) ->
      let r1, w1 = Option.value ~default:(0, 0) (Hashtbl.find_opt by_file file) in
      Hashtbl.replace by_file file (r1 - r0, w1 - w0))
    before.by_file;
  {
    page_reads = now.page_reads - before.page_reads;
    page_writes = now.page_writes - before.page_writes;
    buffer_hits = now.buffer_hits - before.buffer_hits;
    pages_allocated = now.pages_allocated - before.pages_allocated;
    objects_read = now.objects_read - before.objects_read;
    objects_written = now.objects_written - before.objects_written;
    wal_appends = now.wal_appends - before.wal_appends;
    wal_bytes = now.wal_bytes - before.wal_bytes;
    recovery_replays = now.recovery_replays - before.recovery_replays;
    txn_commits = now.txn_commits - before.txn_commits;
    txn_aborts = now.txn_aborts - before.txn_aborts;
    lock_waits = now.lock_waits - before.lock_waits;
    deadlocks = now.deadlocks - before.deadlocks;
    undo_applied = now.undo_applied - before.undo_applied;
    checksum_failures = now.checksum_failures - before.checksum_failures;
    scrub_pages = now.scrub_pages - before.scrub_pages;
    repairs = now.repairs - before.repairs;
    degraded_reads = now.degraded_reads - before.degraded_reads;
    read_retries = now.read_retries - before.read_retries;
    failed_reads = now.failed_reads - before.failed_reads;
    prefetch_issued = now.prefetch_issued - before.prefetch_issued;
    prefetch_hits = now.prefetch_hits - before.prefetch_hits;
    wal_flushes = now.wal_flushes - before.wal_flushes;
    frames_shipped = now.frames_shipped - before.frames_shipped;
    frames_applied = now.frames_applied - before.frames_applied;
    acks_waited = now.acks_waited - before.acks_waited;
    maint_steps = now.maint_steps - before.maint_steps;
    maint_pages_walked = now.maint_pages_walked - before.maint_pages_walked;
    maint_lock_yields = now.maint_lock_yields - before.maint_lock_yields;
    peer_deaths = now.peer_deaths - before.peer_deaths;
    ack_demotions = now.ack_demotions - before.ack_demotions;
    heartbeats_missed = now.heartbeats_missed - before.heartbeats_missed;
    failovers = now.failovers - before.failovers;
    reconnects = now.reconnects - before.reconnects;
    (* gauges, not counters: report the current value, not a delta *)
    replica_lag_bytes = now.replica_lag_bytes;
    maint_backfill_pending = now.maint_backfill_pending;
    by_file;
  }

let total_io t = t.page_reads + t.page_writes

let pp fmt t =
  Format.fprintf fmt
    "reads=%d writes=%d hits=%d allocated=%d obj_read=%d obj_written=%d \
     wal_appends=%d wal_bytes=%d wal_flushes=%d replays=%d commits=%d \
     aborts=%d lock_waits=%d deadlocks=%d undone=%d checksum_failures=%d \
     scrub_pages=%d repairs=%d degraded_reads=%d read_retries=%d \
     failed_reads=%d prefetch_issued=%d prefetch_hits=%d frames_shipped=%d \
     frames_applied=%d acks_waited=%d replica_lag_bytes=%d maint_steps=%d \
     maint_pages_walked=%d maint_lock_yields=%d maint_backfill_pending=%d \
     peer_deaths=%d ack_demotions=%d heartbeats_missed=%d failovers=%d \
     reconnects=%d"
    t.page_reads t.page_writes t.buffer_hits t.pages_allocated t.objects_read
    t.objects_written t.wal_appends t.wal_bytes t.wal_flushes
    t.recovery_replays t.txn_commits t.txn_aborts t.lock_waits t.deadlocks
    t.undo_applied t.checksum_failures t.scrub_pages t.repairs
    t.degraded_reads t.read_retries t.failed_reads t.prefetch_issued
    t.prefetch_hits t.frames_shipped t.frames_applied t.acks_waited
    t.replica_lag_bytes t.maint_steps t.maint_pages_walked
    t.maint_lock_yields t.maint_backfill_pending t.peer_deaths
    t.ack_demotions t.heartbeats_missed t.failovers t.reconnects
