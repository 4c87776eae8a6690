(* Tests for observability (per-structure I/O attribution) and the
   referential-integrity audit. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Pager = Fieldrep_storage.Pager
module Stats = Fieldrep_storage.Stats
module Heap_file = Fieldrep_storage.Heap_file
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Ast = Fieldrep_query.Ast
module Exec = Fieldrep_query.Exec
module Gen = Fieldrep_workload.Gen

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_file = Alcotest.(check (pair int int))
let vstr s = Value.VString s

let test_per_file_stats () =
  let stats = Stats.create () in
  Stats.record_read stats ~file:3;
  Stats.record_read stats ~file:3;
  Stats.record_write stats ~file:3;
  Stats.record_read stats ~file:7;
  Alcotest.(check (pair int int)) "file 3" (2, 1) (Stats.file_io stats ~file:3);
  Alcotest.(check (pair int int)) "file 7" (1, 0) (Stats.file_io stats ~file:7);
  Alcotest.(check (pair int int)) "untouched" (0, 0) (Stats.file_io stats ~file:9);
  Stats.reset stats;
  Alcotest.(check (pair int int)) "reset" (0, 0) (Stats.file_io stats ~file:3)

let test_copy_is_independent () =
  let stats = Stats.create () in
  Stats.bump stats Stats.Page_reads;
  Stats.record_read stats ~file:3;
  let snap = Stats.copy stats in
  Stats.bump stats Stats.Page_reads;
  Stats.record_read stats ~file:3;
  Stats.record_read stats ~file:5;
  checki "counter frozen" 1 snap.Stats.page_reads;
  check_file "file frozen" (1, 0) (Stats.file_io snap ~file:3);
  check_file "new file absent" (0, 0) (Stats.file_io snap ~file:5);
  checki "original moved on" 2 stats.Stats.page_reads;
  check_file "original file" (2, 0) (Stats.file_io stats ~file:3)

let test_diff_deltas_and_gauges () =
  let stats = Stats.create () in
  Stats.add stats Stats.Page_writes 4;
  Stats.record_write stats ~file:2;
  Stats.set_replica_lag stats ~bytes:500;
  Stats.set_maint_backlog stats ~pages:9;
  let before = Stats.copy stats in
  Stats.add stats Stats.Page_writes 3;
  Stats.bump stats Stats.Repairs;
  Stats.record_write stats ~file:2;
  Stats.record_read stats ~file:6;
  Stats.set_replica_lag stats ~bytes:120;
  Stats.set_maint_backlog stats ~pages:2;
  let d = Stats.diff stats before in
  checki "counter delta" 3 d.Stats.page_writes;
  checki "new counter delta" 1 d.Stats.repairs;
  checki "untouched counter" 0 d.Stats.page_reads;
  check_file "file delta" (0, 1) (Stats.file_io d ~file:2);
  check_file "new file delta" (1, 0) (Stats.file_io d ~file:6);
  checki "lag gauge is current" 120 d.Stats.replica_lag_bytes;
  checki "backlog gauge is current" 2 d.Stats.maint_backfill_pending

let test_io_breakdown_attributes_structures () =
  let built =
    Gen.build
      { Gen.default_spec with Gen.s_count = 400; sharing = 4; strategy = Fieldrep_costmodel.Params.Inplace }
  in
  let db = built.Gen.db in
  (* A cold update query touches the S index, S, the link file, and R (for
     propagation) — the breakdown must name each structure. *)
  Pager.run_cold (Db.pager db) (fun () ->
      ignore
        (Exec.replace db
           {
             Ast.target_set = "S";
             assignments = [ ("repfield", Ast.Const (vstr "xxxxxxxxxxxxxxxxxxxx")) ];
             rwhere = Some (Ast.eq "field_s" (Value.VInt 7));
           }));
  let breakdown = Db.io_breakdown db in
  let labels = List.map (fun (l, _, _) -> l) breakdown in
  let has prefix =
    List.exists (fun l -> String.length l >= String.length prefix
                          && String.sub l 0 (String.length prefix) = prefix) labels
  in
  checkb "touches S" true (has "set S");
  checkb "touches R (propagation)" true (has "set R");
  checkb "touches the S index" true (has ("index " ^ Gen.s_index));
  checkb "touches a link file" true (has "link file");
  (* The breakdown sums to the global counters. *)
  let stats = Db.stats db in
  let sum_r, sum_w =
    List.fold_left (fun (r, w) (_, r', w') -> (r + r', w + w')) (0, 0) breakdown
  in
  checki "reads add up" stats.Stats.page_reads sum_r;
  checki "writes add up" stats.Stats.page_writes sum_w

let test_breakdown_read_query_strategies () =
  (* A read query under in-place touches only R + index; under separate it
     also touches the S' file; with no replication it touches S. *)
  let probe strategy =
    let built =
      Gen.build { Gen.default_spec with Gen.s_count = 400; sharing = 4; strategy }
    in
    let db = built.Gen.db in
    Pager.run_cold (Db.pager db) (fun () ->
        let res =
          Exec.retrieve db
            {
              Ast.from_set = "R";
              projections = [ "field_r"; "sref.repfield" ];
              where = Some (Ast.between "field_r" (Value.VInt 10) (Value.VInt 29));
            }
        in
        Exec.drop_output db res.Exec.output_file);
    List.map (fun (l, _, _) -> l) (Db.io_breakdown db)
  in
  let mem prefix labels =
    List.exists
      (fun l -> String.length l >= String.length prefix
                && String.sub l 0 (String.length prefix) = prefix)
      labels
  in
  let none = probe Fieldrep_costmodel.Params.No_replication in
  checkb "none: reads S" true (mem "set S" none);
  let inplace = probe Fieldrep_costmodel.Params.Inplace in
  checkb "inplace: no S" false (mem "set S" inplace);
  checkb "inplace: no S'" false (mem "S' file" inplace);
  let separate = probe Fieldrep_costmodel.Params.Separate in
  checkb "separate: S' instead of S" true
    (mem "S' file" separate && not (mem "set S" separate))

let test_dangling_references () =
  let db = Db.create () in
  Db.define_type db
    (Ty.make ~name:"D" [ { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString } ]);
  Db.define_type db
    (Ty.make ~name:"E"
       [
         { Ty.fname = "name"; ftype = Ty.Scalar Ty.SString };
         { Ty.fname = "d"; ftype = Ty.Ref "D" };
       ]);
  Db.create_set db ~name:"Ds" ~elem_type:"D" ();
  Db.create_set db ~name:"Es" ~elem_type:"E" ();
  let d = Db.insert db ~set:"Ds" [ vstr "d" ] in
  let e = Db.insert db ~set:"Es" [ vstr "e"; Value.VRef d ] in
  checki "clean database" 0 (List.length (Db.dangling_references db));
  (* Delete the target: no replication path protects it, so the reference
     dangles — exactly what the audit is for. *)
  Db.delete db ~set:"Ds" d;
  (match Db.dangling_references db with
  | [ ("Es", oid, "d") ] -> checkb "right object" true (Oid.equal oid e)
  | l -> Alcotest.failf "expected one dangling ref, got %d" (List.length l));
  (* Nulling the reference clears the audit. *)
  Db.update_field db ~set:"Es" e ~field:"d" Value.VNull;
  checki "clean again" 0 (List.length (Db.dangling_references db))

let () =
  Alcotest.run "fieldrep_observability"
    [
      ( "io attribution",
        [
          Alcotest.test_case "per-file stats" `Quick test_per_file_stats;
          Alcotest.test_case "copy is independent" `Quick
            test_copy_is_independent;
          Alcotest.test_case "diff: deltas and gauges" `Quick
            test_diff_deltas_and_gauges;
          Alcotest.test_case "update query breakdown" `Quick
            test_io_breakdown_attributes_structures;
          Alcotest.test_case "read query per strategy" `Quick
            test_breakdown_read_query_strategies;
        ] );
      ( "referential integrity",
        [ Alcotest.test_case "dangling references" `Quick test_dangling_references ] );
    ]
