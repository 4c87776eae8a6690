(* Transactions: strict two-phase locking, undo, deadlock detection —
   and the two acceptance tests of the transaction subsystem:

   - the randomized interleaved-client run is equivalent to the serial
     execution of its committed transactions in commit order, for all
     three replication strategies;
   - a crash in the middle of a multi-client run recovers to exactly the
     state produced by the transactions that committed before it. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Stats = Fieldrep_storage.Stats
module Disk = Fieldrep_storage.Disk
module Pager = Fieldrep_storage.Pager
module Wal = Fieldrep_wal.Wal
module Value = Fieldrep_model.Value
module Key = Fieldrep_btree.Key
module Params = Fieldrep_costmodel.Params
module Lock = Fieldrep_txn.Lock
module Txn = Fieldrep_txn.Txn
module Gen = Fieldrep_workload.Gen
module Multi = Fieldrep_workload.Multi

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checksl = Alcotest.(check (list string))
let value_testable = Alcotest.testable Value.pp Value.equal
let checkv = Alcotest.check value_testable

let tmp name ext =
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) ("fieldrep_txn_" ^ name ^ ext)
  in
  if Sys.file_exists path then Sys.remove path;
  path

let small_spec ?(frames = 64) ?(durable = false) strategy seed =
  {
    Gen.default_spec with
    Gen.s_count = 20;
    sharing = 3;
    strategy;
    page_size = 1024;
    frames;
    seed;
    durable;
  }

(* Resolve a generation key to its OID by scanning (keys are immutable
   identifiers of the generated objects; OIDs are run-specific). *)
let oid_of db ~set ~field key =
  let found = ref None in
  Db.scan db ~set (fun oid record ->
      match Db.field_value db ~set record field with
      | Value.VInt k when k = key -> found := Some oid
      | _ -> ());
  match !found with
  | Some oid -> oid
  | None -> Alcotest.failf "no %s object with %s = %d" set field key

let r_of db key = oid_of db ~set:"R" ~field:"field_r" key
let s_of db key = oid_of db ~set:"S" ~field:"field_s" key

let sref_of db r =
  match Db.field_value db ~set:"R" (Db.get db ~set:"R" r) "sref" with
  | Value.VRef s -> s
  | v -> Alcotest.failf "sref is not a reference: %s" (Value.to_string v)

(* ------------------------------------------------------------------ *)
(* Lock manager units                                                  *)

let test_lock_compat () =
  let l = Lock.create () in
  let t = Lock.Set "T" in
  Lock.acquire l ~txn:1 t Lock.IS;
  Lock.acquire l ~txn:2 t Lock.IX;
  (* already covered: re-acquiring a weaker mode is a no-op *)
  Lock.acquire l ~txn:2 t Lock.IS;
  checkb "IX retained" true (Lock.holds l ~txn:2 t Lock.IX);
  (match Lock.acquire l ~txn:3 t Lock.X with
  | () -> Alcotest.fail "X should block on IS+IX holders"
  | exception Lock.Would_block { txn; holders } ->
      checki "blocked txn is the requester" 3 txn;
      checki "both holders reported" 2 (List.length holders));
  Lock.release_all l ~txn:1;
  Lock.release_all l ~txn:2;
  Lock.acquire l ~txn:3 t Lock.X;
  checkb "X granted once holders release" true (Lock.holds l ~txn:3 t Lock.X);
  Lock.release_all l ~txn:3;
  checki "lock table drained" 0 (Lock.active_locks l)

let test_lock_upgrade () =
  let l = Lock.create () in
  let t = Lock.Set "T" in
  Lock.acquire l ~txn:1 t Lock.S;
  Lock.acquire l ~txn:1 t Lock.X;
  checkb "sole reader upgrades in place" true (Lock.holds l ~txn:1 t Lock.X);
  Lock.release_all l ~txn:1;
  Lock.acquire l ~txn:1 t Lock.S;
  Lock.acquire l ~txn:2 t Lock.S;
  match Lock.acquire l ~txn:1 t Lock.X with
  | () -> Alcotest.fail "upgrade should block on the second reader"
  | exception Lock.Would_block { holders; _ } ->
      checki "blocked only by the other reader" 1 (List.length holders);
      checki "the other reader" 2 (List.hd holders)

(* An upgrade re-grants a resource its transaction already holds: the
   held list keeps it once, and release still drains the table. *)
let test_lock_upgrade_held_once () =
  let l = Lock.create () in
  let r = Lock.Obj { Oid.file = 1; page = 2; slot = 3 } in
  let fresh = Lock.Obj { Oid.file = 1; page = 2; slot = 4 } in
  for txn = 1 to 3 do
    List.iter (fun m -> Lock.acquire l ~txn r m) [ Lock.IS; Lock.IX; Lock.X; Lock.IS; Lock.X ];
    Lock.grant l ~txn r Lock.X;
    checki "upgraded resource held once" 1 (Lock.held_count l ~txn);
    Lock.grant l ~txn fresh Lock.X;
    Lock.grant l ~txn fresh Lock.S;
    checki "granted resource held once" 2 (Lock.held_count l ~txn);
    Lock.release_all l ~txn;
    checki "nothing held after release" 0 (Lock.held_count l ~txn);
    checki "lock table drained" 0 (Lock.active_locks l)
  done

let test_lock_deadlock () =
  let stats = Stats.create () in
  let l = Lock.create ~stats () in
  let a = Lock.Set "A" and b = Lock.Set "B" in
  Lock.acquire l ~txn:1 a Lock.X;
  Lock.acquire l ~txn:2 b Lock.X;
  (try
     Lock.acquire l ~txn:1 b Lock.X;
     Alcotest.fail "t1 should block on t2"
   with Lock.Would_block _ -> ());
  (match Lock.acquire l ~txn:2 a Lock.X with
  | () -> Alcotest.fail "t2 closing the cycle should deadlock"
  | exception Lock.Deadlock { victim; cycle } ->
      checki "the requester is the victim" 2 victim;
      checkb "cycle names both parties" true (List.mem 1 cycle && List.mem 2 cycle));
  checki "deadlock counted" 1 stats.Stats.deadlocks;
  checki "both waits counted" 2 stats.Stats.lock_waits;
  (* the victim aborts; the survivor's blocked request now succeeds *)
  Lock.release_all l ~txn:2;
  Lock.acquire l ~txn:1 b Lock.X;
  checkb "survivor proceeds" true (Lock.holds l ~txn:1 b Lock.X)

(* ------------------------------------------------------------------ *)
(* Commit / abort semantics through Db                                 *)

let test_commit_applies () =
  let built = Gen.build (small_spec Params.Inplace 3) in
  let db = built.Gen.db in
  let r0 = r_of db 0 and s0 = s_of db 0 in
  let tx = Db.begin_txn db in
  checki "one active txn" 1 (Db.active_txn_count db);
  Db.update_field ~txn:tx db ~set:"S" s0 ~field:"repfield"
    (Value.VString "committed");
  Db.update_field ~txn:tx db ~set:"R" r0 ~field:"field_r" (Value.VInt 4242);
  let fresh =
    Db.insert ~txn:tx db ~set:"R"
      [ Value.VInt 777; Value.VString "new"; Value.VRef s0 ]
  in
  Db.commit db tx;
  checki "no active txn after commit" 0 (Db.active_txn_count db);
  checki "commit counted" 1 (Db.stats db).Stats.txn_commits;
  checki "all locks released" 0 (Lock.active_locks (Db.lock_manager db));
  checkv "scalar update durable" (Value.VString "committed")
    (Db.field_value db ~set:"S" (Db.get db ~set:"S" s0) "repfield");
  checkv "indexed field updated" (Value.VInt 4242)
    (Db.field_value db ~set:"R" (Db.get db ~set:"R" r0) "field_r");
  checki "index follows the update" 1
    (List.length (Db.index_lookup db ~index:Gen.r_index (Key.Int 4242)));
  checkv "insert visible through the replicated path" (Value.VString "committed")
    (Db.deref db ~set:"R" fresh "sref.repfield");
  Db.check_integrity db

let abort_restores strategy () =
  let built = Gen.build (small_spec strategy 7) in
  let db = built.Gen.db in
  let before = Multi.observe db in
  let r0 = r_of db 0 and r1 = r_of db 1 and r2 = r_of db 2 in
  let s0 = s_of db 0 and s1 = s_of db 1 in
  let retarget = if Oid.equal (sref_of db r1) s0 then s1 else s0 in
  let tx = Db.begin_txn db in
  Db.update_field ~txn:tx db ~set:"S" s0 ~field:"repfield"
    (Value.VString "doomed");
  Db.update_field ~txn:tx db ~set:"R" r0 ~field:"field_r" (Value.VInt 999_999);
  Db.update_field ~txn:tx db ~set:"R" r1 ~field:"sref" (Value.VRef retarget);
  let fresh =
    Db.insert ~txn:tx db ~set:"R"
      [ Value.VInt 888; Value.VString "x"; Value.VRef s1 ]
  in
  Db.delete ~txn:tx db ~set:"R" r2;
  (* the deleted slot is pinned until the transaction resolves: a later
     insert cannot recycle the OID *)
  let fresh2 =
    Db.insert ~txn:tx db ~set:"R"
      [ Value.VInt 889; Value.VString "y"; Value.VRef s1 ]
  in
  checkb "tombstone pins the slot" true (not (Oid.equal fresh2 r2));
  ignore fresh;
  let snap = Stats.copy (Db.stats db) in
  Db.abort db tx;
  let d = Stats.diff (Db.stats db) snap in
  checki "abort counted" 1 d.Stats.txn_aborts;
  checkb "before-images restored" true (d.Stats.undo_applied >= 4);
  checki "no active txn after abort" 0 (Db.active_txn_count db);
  checki "all locks released" 0 (Lock.active_locks (Db.lock_manager db));
  checksl "logical state restored exactly" before (Multi.observe db);
  checkb "revived object keeps its original OID" true
    (Oid.equal (r_of db 2) r2);
  checki "index entry for the old key restored" 1
    (List.length (Db.index_lookup db ~index:Gen.r_index (Key.Int 0)));
  checki "index entry for the aborted update gone" 0
    (List.length (Db.index_lookup db ~index:Gen.r_index (Key.Int 999_999)));
  Db.check_integrity db

let test_isolation_blocks () =
  let built = Gen.build (small_spec Params.Inplace 9) in
  let db = built.Gen.db in
  let s0 = s_of db 0 in
  (* a source reaching s0 (its hidden copy is part of the write's fan-out)
     and a bystander reaching some other S object *)
  let src = ref None and other = ref None in
  Db.scan db ~set:"R" (fun oid _ ->
      if Oid.equal (sref_of db oid) s0 then begin
        if !src = None then src := Some oid
      end
      else if !other = None then other := Some oid);
  let src = Option.get !src and other = Option.get !other in
  let t1 = Db.begin_txn db in
  let t2 = Db.begin_txn db in
  Db.update_field ~txn:t1 db ~set:"S" s0 ~field:"repfield"
    (Value.VString "uncommitted");
  (try
     ignore (Db.get ~txn:t2 db ~set:"S" s0);
     Alcotest.fail "reading an uncommitted write should block"
   with Lock.Would_block _ -> ());
  (try
     ignore (Db.deref ~txn:t2 db ~set:"R" src "sref.repfield");
     Alcotest.fail "reading an uncommitted hidden copy should block"
   with Lock.Would_block _ -> ());
  (* readers do not block readers *)
  ignore (Db.get ~txn:t2 db ~set:"R" other);
  ignore (Db.get ~txn:t1 db ~set:"R" other);
  checkb "waits were counted" true ((Db.stats db).Stats.lock_waits >= 2);
  Db.commit db t1;
  checkv "committed value now readable" (Value.VString "uncommitted")
    (Db.field_value db ~set:"S" (Db.get ~txn:t2 db ~set:"S" s0) "repfield");
  Db.commit db t2;
  checki "all locks released" 0 (Lock.active_locks (Db.lock_manager db))

let test_db_deadlock () =
  let built = Gen.build (small_spec Params.No_replication 11) in
  let db = built.Gen.db in
  let ra = r_of db 0 and rb = r_of db 1 in
  let t1 = Db.begin_txn db in
  let t2 = Db.begin_txn db in
  Db.update_field ~txn:t1 db ~set:"R" ra ~field:"field_r" (Value.VInt 100_000);
  Db.update_field ~txn:t2 db ~set:"R" rb ~field:"field_r" (Value.VInt 100_001);
  (try
     Db.update_field ~txn:t1 db ~set:"R" rb ~field:"field_r"
       (Value.VInt 100_002);
     Alcotest.fail "t1 should block on t2"
   with Lock.Would_block _ -> ());
  (match
     Db.update_field ~txn:t2 db ~set:"R" ra ~field:"field_r"
       (Value.VInt 100_003)
   with
  | () -> Alcotest.fail "t2 closing the cycle should deadlock"
  | exception Lock.Deadlock { victim; _ } ->
      checki "the requester is chosen as victim" (Txn.id t2) victim);
  checki "deadlock counted" 1 (Db.stats db).Stats.deadlocks;
  Db.abort db t2;
  (* the survivor's blocked update now goes through; strict 2PL made the
     victim's update vanish without a trace *)
  Db.update_field ~txn:t1 db ~set:"R" rb ~field:"field_r" (Value.VInt 100_002);
  Db.commit db t1;
  checkv "survivor's writes stand" (Value.VInt 100_002)
    (Db.field_value db ~set:"R" (Db.get db ~set:"R" rb) "field_r");
  Db.check_integrity db

(* Undo I/O is real I/O — counted in the database's own stats block and
   attributed to the aborting transaction (regression for the bug where
   rollback page writes escaped the transaction's I/O charge). *)
let test_abort_io_attribution () =
  let built = Gen.build (small_spec ~frames:4 Params.Inplace 13) in
  let db = built.Gen.db in
  let soids = Array.init 20 (fun k -> s_of db k) in
  let tx = Db.begin_txn db in
  Array.iteri
    (fun k s ->
      Db.update_field ~txn:tx db ~set:"S" s ~field:"repfield"
        (Value.VString (Printf.sprintf "doomed-%04d" k)))
    soids;
  let io_forward = Txn.io tx in
  checkb "forward work charged to the txn" true (io_forward > 0);
  let snap = Stats.copy (Db.stats db) in
  Db.abort db tx;
  let d = Stats.diff (Db.stats db) snap in
  checki "every image restored" 20 d.Stats.undo_applied;
  checkb "rollback performs physical I/O" true (Stats.total_io d > 0);
  checki "undo I/O attributed to the aborting txn"
    (io_forward + Stats.total_io d)
    (Txn.io tx);
  Db.check_integrity db

(* ------------------------------------------------------------------ *)
(* Randomized interleaved clients: the serializability acceptance test *)

let serializable ?(clients = 4) ?(mix = Multi.update_mix) strategy seed () =
  let spec =
    {
      Gen.default_spec with
      Gen.s_count = 40;
      sharing = 3;
      strategy;
      page_size = 1024;
      frames = 64;
      seed;
    }
  in
  let built = Gen.build spec in
  let res =
    Multi.run ~abort_prob:0.15 ~clients ~txns_per_client:6 ~ops_per_txn:5 ~mix
      ~seed:((seed * 17) + 1) built
  in
  checkb "run completed" true (not res.Multi.crashed);
  checkb "made progress" true (res.Multi.commits > 0);
  checki "every program resolved exactly once" (clients * 6)
    (res.Multi.commits + res.Multi.voluntary_aborts + res.Multi.discarded);
  checki "no transaction left active" 0 (Db.active_txn_count built.Gen.db);
  checki "no lock left behind" 0
    (Lock.active_locks (Db.lock_manager built.Gen.db));
  Db.check_integrity built.Gen.db;
  (* strict 2PL promises equivalence to the serial execution of the
     committed programs in commit order — run exactly that on a fresh
     identical database and compare the logical states *)
  let serial = Gen.build spec in
  Multi.replay_serial serial.Gen.db res.Multi.committed;
  Db.check_integrity serial.Gen.db;
  checksl "equivalent to serial commit order"
    (Multi.observe serial.Gen.db)
    (Multi.observe built.Gen.db)

(* ------------------------------------------------------------------ *)
(* Crash during a multi-client run: recovery keeps exactly the
   transactions that committed                                         *)

let test_crash_during_run () =
  let spec =
    {
      Gen.default_spec with
      Gen.s_count = 24;
      sharing = 2;
      strategy = Params.Inplace;
      page_size = 1024;
      frames = 12;
      seed = 21;
      durable = true;
    }
  in
  let built = Gen.build spec in
  let db = built.Gen.db in
  let img = tmp "crash_run" ".img" in
  Db.checkpoint db img;
  (* arm the failpoint just before the fifth commit: the crash lands
     inside or shortly after it, with other transactions in flight *)
  let res =
    Multi.run ~abort_prob:0.1 ~clients:3 ~txns_per_client:4 ~ops_per_txn:4
      ~mix:Multi.update_mix ~seed:99
      ~before_commit:(fun k ->
        if k = 4 then
          Disk.set_failpoint (Pager.disk (Db.pager db)) ~after_writes:3)
      built
  in
  checkb "the failpoint fired" true res.Multi.crashed;
  checkb "some transactions committed first" true (res.Multi.commits >= 4);
  Wal.close (Option.get (Db.wal db));
  let db2 = Db.recover ~frames:spec.Gen.frames img in
  checki "losers resolved at recovery" 0 (Db.active_txn_count db2);
  Db.check_integrity db2;
  (* reference: serial execution of exactly the committed programs *)
  let serial = Gen.build { spec with Gen.durable = false } in
  Multi.replay_serial serial.Gen.db res.Multi.committed;
  checksl "recovered state = committed transactions only"
    (Multi.observe serial.Gen.db)
    (Multi.observe db2);
  Wal.close (Option.get (Db.wal db2));
  Sys.remove img

(* A transaction captures one before-image per object, named by set and
   OID together: equal OIDs in two sets are two first touches, a repeat
   touch builds and logs nothing, and an image that fails to build leaves
   the object untouched. *)
let test_first_touch () =
  let tx = Txn.make 1 in
  let oid = { Oid.file = 3; page = 7; slot = 2 } in
  let built = ref 0 in
  let image set () =
    incr built;
    { Txn.u_set = set; u_oid = oid; u_present = true; u_values = [] }
  in
  Txn.record_touch tx ~set:"A" oid (image "A");
  Txn.record_touch tx ~set:"B" { oid with Oid.slot = 2 } (image "B");
  Txn.record_touch tx ~set:"A" { Oid.file = 3; page = 7; slot = 2 } (image "A");
  checki "one image per (set, oid)" 2 !built;
  checksl "newest first" [ "B"; "A" ]
    (List.map (fun i -> i.Txn.u_set) (Txn.undo_images tx));
  let other = { oid with Oid.page = 8 } in
  (try Txn.record_touch tx ~set:"A" other (fun () -> failwith "no image")
   with Failure _ -> ());
  Txn.record_touch tx ~set:"A" other (image "A");
  checki "a failed capture is retried" 3 (List.length (Txn.undo_images tx));
  (* Through the engine: updating one object twice and deleting it logs a
     single Undo_image for it. *)
  let db = (Gen.build (small_spec ~durable:true Params.Inplace 4)).Gen.db in
  let victim = oid_of db ~set:"R" ~field:"field_r" 5 in
  let tx = Db.begin_txn db in
  Db.update_field ~txn:tx db ~set:"R" victim ~field:"field_r" (Value.VInt 90_001);
  Db.update_field ~txn:tx db ~set:"R" victim ~field:"field_r" (Value.VInt 90_002);
  Db.delete ~txn:tx db ~set:"R" victim;
  Db.commit db tx;
  let w = Option.get (Db.wal db) in
  let images =
    List.filter
      (fun (_, frame) ->
        match Wal.decode_frame frame with
        | _, Wal.Undo_image { oid; _ } -> Oid.equal oid victim
        | _ -> false)
      (Wal.read_frames (Wal.path w) ~after:0L)
  in
  checki "one logged before-image" 1 (List.length images);
  Wal.close w

let () =
  Alcotest.run "fieldrep_txn"
    [
      ( "lock manager",
        [
          Alcotest.test_case "granularity compatibility" `Quick test_lock_compat;
          Alcotest.test_case "upgrade" `Quick test_lock_upgrade;
          Alcotest.test_case "upgrade holds once" `Quick test_lock_upgrade_held_once;
          Alcotest.test_case "deadlock detection" `Quick test_lock_deadlock;
        ] );
      ( "commit/abort",
        [
          Alcotest.test_case "commit applies" `Quick test_commit_applies;
          Alcotest.test_case "abort restores (no replication)" `Quick
            (abort_restores Params.No_replication);
          Alcotest.test_case "abort restores (in-place)" `Quick
            (abort_restores Params.Inplace);
          Alcotest.test_case "abort restores (separate)" `Quick
            (abort_restores Params.Separate);
          Alcotest.test_case "isolation blocks readers" `Quick
            test_isolation_blocks;
          Alcotest.test_case "deadlock through the engine" `Quick
            test_db_deadlock;
          Alcotest.test_case "abort I/O attribution" `Quick
            test_abort_io_attribution;
          Alcotest.test_case "first touch per (set, oid)" `Quick test_first_touch;
        ] );
      ( "interleaved serializability",
        [
          Alcotest.test_case "no replication, seed 1" `Slow
            (serializable Params.No_replication 1);
          Alcotest.test_case "no replication, seed 2" `Slow
            (serializable Params.No_replication 2);
          Alcotest.test_case "in-place, seed 1" `Slow
            (serializable Params.Inplace 1);
          Alcotest.test_case "in-place, seed 2" `Slow
            (serializable Params.Inplace 2);
          Alcotest.test_case "separate, seed 1" `Slow
            (serializable Params.Separate 1);
          Alcotest.test_case "separate, seed 2" `Slow
            (serializable Params.Separate 2);
          Alcotest.test_case "read mix, 6 clients" `Slow
            (serializable ~clients:6 ~mix:Multi.read_mix Params.Inplace 5);
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "crash during multi-client run" `Slow
            test_crash_during_run;
        ] );
    ]
