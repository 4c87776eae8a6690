(* Tests for the query layer: planning (index selection, replication-aware
   projection), execution (retrieve/replace, output files), and the
   EXTRA-style surface language. *)

module Db = Fieldrep.Db
module Oid = Fieldrep_storage.Oid
module Disk = Fieldrep_storage.Disk
module Pager = Fieldrep_storage.Pager
module Ty = Fieldrep_model.Ty
module Value = Fieldrep_model.Value
module Schema = Fieldrep_model.Schema
module Path = Fieldrep_model.Path
module Ast = Fieldrep_query.Ast
module Exec = Fieldrep_query.Exec
module Lang = Fieldrep_query.Lang
module Wgen = Fieldrep_workload.Gen
module Record = Fieldrep_model.Record
module Stats = Fieldrep_storage.Stats
module Heap_file = Fieldrep_storage.Heap_file
module Splitmix = Fieldrep_util.Splitmix
module Key = Db.Key
module Lock = Db.Lock

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let value_testable = Alcotest.testable Value.pp Value.equal
let checkv = Alcotest.check value_testable

(* The paper's §3.1 example database, via the surface language. *)
let paper_db () =
  let db = Db.create ~page_size:2048 ~frames:128 () in
  List.iter
    (fun stmt -> ignore (Lang.exec db stmt))
    [
      "define type ORG (name: char[], budget: int)";
      "define type DEPT (name: char[], budget: int, org: ref ORG)";
      "define type EMP (name: char[], age: int, salary: int, dept: ref DEPT)";
      "create Org: {own ref ORG}";
      "create Dept: {own ref DEPT}";
      "create Emp1: {own ref EMP}";
    ];
  let org =
    Db.insert db ~set:"Org" [ Value.VString "acme"; Value.VInt 1_000_000 ]
  in
  let depts =
    Array.init 3 (fun i ->
        Db.insert db ~set:"Dept"
          [
            Value.VString (Printf.sprintf "dept-%d" i);
            Value.VInt (100 * (i + 1));
            Value.VRef org;
          ])
  in
  let emps =
    Array.init 12 (fun i ->
        Db.insert db ~set:"Emp1"
          [
            Value.VString (Printf.sprintf "emp-%d" i);
            Value.VInt (25 + i);
            Value.VInt (50_000 + (10_000 * i));
            Value.VRef depts.(i mod 3);
          ])
  in
  (db, org, depts, emps)

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)

let test_planner_picks_index () =
  let db, _, _, _ = paper_db () in
  let q =
    {
      Ast.from_set = "Emp1";
      projections = [ "name" ];
      where = Some (Ast.between "salary" (Value.VInt 0) (Value.VInt 60_000));
    }
  in
  (match (Exec.explain_retrieve db q).Exec.access with
  | Exec.File_scan -> ()
  | Exec.Index_scan _ -> Alcotest.fail "no index yet");
  ignore (Lang.exec db "build btree on Emp1.salary");
  match (Exec.explain_retrieve db q).Exec.access with
  | Exec.Index_scan name -> Alcotest.(check string) "index" "btree_Emp1_salary" name
  | Exec.File_scan -> Alcotest.fail "index not chosen"

let test_planner_join_counts_follow_replication () =
  let db, _, _, _ = paper_db () in
  let q =
    { Ast.from_set = "Emp1"; projections = [ "name"; "dept.name" ]; where = None }
  in
  let joins () = List.assoc "dept.name" (Exec.explain_retrieve db q).Exec.join_counts in
  checki "join before replication" 1 (joins ());
  ignore (Lang.exec db "replicate Emp1.dept.name");
  checki "no join after replication" 0 (joins ())

(* Ground truth for Emp1.dept.org.name: follow the references by hand. *)
let join_org_name db emp =
  let follow set oid field =
    match Db.field_value db ~set (Db.get db ~set oid) field with
    | Value.VRef o -> o
    | v -> Alcotest.failf "%s.%s is not a reference: %s" set field (Value.to_string v)
  in
  let org = follow "Dept" (follow "Emp1" emp "dept") "org" in
  Db.field_value db ~set:"Org" (Db.get db ~set:"Org" org) "name"

(* Deref plans are cached per (set, expr) and schema epoch: every
   replication state flip must reach the next read, inline or online, and
   a loaded image must plan against its own catalog. *)
let test_plan_cache_follows_schema_epoch () =
  let db, _, _, emps = paper_db () in
  let path = Path.parse "Emp1.dept.org.name" in
  let q = { Ast.from_set = "Emp1"; projections = [ "dept.org.name" ]; where = None } in
  let check step db joins =
    checki (step ^ ": deref_would_join") joins
      (Db.deref_would_join db ~set:"Emp1" "dept.org.name");
    checki (step ^ ": explain") joins
      (List.assoc "dept.org.name" (Exec.explain_retrieve db q).Exec.join_counts);
    Array.iter
      (fun e ->
        checkv (step ^ ": deref = join") (join_org_name db e)
          (Db.deref db ~set:"Emp1" e "dept.org.name"))
      emps
  in
  let state db = Db.replication_state db path in
  check "unreplicated" db 2;
  (* No transaction is active: replicate and unreplicate run inline. *)
  Db.replicate db ~strategy:Schema.Inplace path;
  check "replicated inline" db 0;
  Db.unreplicate db path;
  check "unreplicated inline" db 2;
  (* An open transaction sends both through background maintenance. *)
  let tx = Db.begin_txn db in
  Db.replicate db ~strategy:Schema.Inplace path;
  checkb "Building" true (state db = Some Schema.Building);
  check "building" db 2;
  Db.commit db tx;
  Db.maint_drain db;
  checkb "Active" true (state db = Some Schema.Active);
  check "backfilled" db 0;
  let tx = Db.begin_txn db in
  Db.unreplicate db path;
  checkb "Dropping" true (state db = Some Schema.Dropping);
  check "dropping" db 2;
  Db.commit db tx;
  Db.maint_drain db;
  checkb "Dropped" true (state db = None);
  check "dropped" db 2;
  Db.replicate db ~strategy:Schema.Separate path;
  check "separate" db 1;
  let image = Filename.temp_file "fieldrep_plan" ".img" in
  Db.save db image;
  let loaded = Db.load image in
  Sys.remove image;
  check "loaded" loaded 1;
  Db.unreplicate loaded path;
  check "loaded, unreplicated" loaded 2;
  check "original unaffected" db 1

(* ------------------------------------------------------------------ *)
(* Retrieve                                                            *)

let test_retrieve_with_predicate () =
  let db, _, _, _ = paper_db () in
  ignore (Lang.exec db "build btree on Emp1.salary");
  let rows =
    Exec.retrieve_values db
      {
        Ast.from_set = "Emp1";
        projections = [ "name"; "salary"; "dept.name" ];
        where = Some { Ast.pfield = "salary"; lo = Some (Value.VInt 100_000); hi = None };
      }
  in
  checki "rows" 7 (List.length rows);
  List.iter
    (fun row ->
      match row with
      | [ _; Value.VInt salary; Value.VString dept ] ->
          checkb "salary filter" true (salary >= 100_000);
          checkb "dept projected" true (String.length dept > 0)
      | _ -> Alcotest.fail "bad row shape")
    rows

let test_retrieve_full_scan () =
  let db, _, _, _ = paper_db () in
  let rows =
    Exec.retrieve_values db
      { Ast.from_set = "Emp1"; projections = [ "name" ]; where = None }
  in
  checki "all rows" 12 (List.length rows)

let test_retrieve_empty_result () =
  let db, _, _, _ = paper_db () in
  let rows =
    Exec.retrieve_values db
      {
        Ast.from_set = "Emp1";
        projections = [ "name" ];
        where = Some (Ast.eq "salary" (Value.VInt 1));
      }
  in
  checki "no rows" 0 (List.length rows)

let test_retrieve_output_file_counted () =
  let db, _, _, _ = paper_db () in
  let res =
    Exec.retrieve db { Ast.from_set = "Emp1"; projections = [ "name" ]; where = None }
  in
  checkb "output pages" true (res.Exec.output_pages >= 1);
  checki "rows" 12 res.Exec.rows;
  Exec.drop_output db res.Exec.output_file

(* A scan that hits a quarantined page mid-retrieve must not leak the
   half-written output file or its pool frames. *)
let test_retrieve_failure_drops_output () =
  let db, _, depts, emps = paper_db () in
  for i = 0 to 299 do
    ignore
      (Db.insert db ~set:"Emp1"
         [
           Value.VString (Printf.sprintf "extra-%d" i);
           Value.VInt 30;
           Value.VInt 40_000;
           Value.VRef depts.(i mod 3);
         ])
  done;
  let pager = Db.pager db in
  let file = emps.(0).Oid.file in
  let last = Db.set_pages db "Emp1" - 1 in
  checkb "several data pages" true (last >= 2);
  Pager.flush pager;
  Disk.corrupt_page (Pager.disk pager) ~file ~page:last [ 100 ];
  Pager.invalidate pager ~file ~page:last;
  let pages = Pager.total_pages pager and resident = Pager.resident pager in
  let q = { Ast.from_set = "Emp1"; projections = [ "name"; "dept.org.name" ]; where = None } in
  (match Exec.retrieve db q with
  | _ -> Alcotest.fail "expected Corrupt_page"
  | exception Disk.Corrupt_page _ -> ());
  checki "disk pages" pages (Pager.total_pages pager);
  checki "resident frames" resident (Pager.resident pager)

let test_retrieve_same_result_with_and_without_replication () =
  let db, _, _, _ = paper_db () in
  let q =
    {
      Ast.from_set = "Emp1";
      projections = [ "name"; "dept.name"; "dept.org.name" ];
      where = None;
    }
  in
  let before = Exec.retrieve_values db q in
  ignore (Lang.exec db "replicate Emp1.dept.name");
  ignore (Lang.exec db "replicate Emp1.dept.org.name using separate");
  let after = Exec.retrieve_values db q in
  checkb "identical results" true
    (List.equal (List.equal Value.equal) before after)

(* ------------------------------------------------------------------ *)
(* Replace                                                             *)

let test_replace_updates_and_propagates () =
  let db, _, depts, emps = paper_db () in
  ignore depts;
  ignore (Lang.exec db "replicate Emp1.dept.budget");
  let n =
    Exec.replace db
      {
        Ast.target_set = "Dept";
        assignments = [ ("budget", Ast.Const (Value.VInt 777)) ];
        rwhere = Some (Ast.eq "name" (Value.VString "dept-0"));
      }
  in
  checki "one dept updated" 1 n;
  checkv "propagated to employees" (Value.VInt 777)
    (Db.deref db ~set:"Emp1" emps.(0) "dept.budget");
  Db.check_integrity db

let test_replace_computed_rhs () =
  let db, _, _, _ = paper_db () in
  let n =
    Exec.replace db
      {
        Ast.target_set = "Emp1";
        assignments =
          [ ("salary", Ast.Computed (fun oid -> Value.VInt (1000 + oid.Oid.slot))) ];
        rwhere = None;
      }
  in
  checki "all employees" 12 n;
  Db.check_integrity db

(* ------------------------------------------------------------------ *)
(* Surface language                                                    *)

let test_lang_retrieve_paper_example () =
  let db, _, _, _ = paper_db () in
  ignore (Lang.exec db "replicate Emp1.dept.name");
  match
    Lang.exec db
      "retrieve (Emp1.name, Emp1.salary, Emp1.dept.name) where Emp1.salary > 100000"
  with
  | Lang.Rows rows ->
      (* salaries 50k + 10k*i for i in 0..11: strictly above 100k are i = 6..11 *)
      checki "rows" 6 (List.length rows);
      List.iter
        (fun row -> checki "three columns" 3 (List.length row))
        rows
  | _ -> Alcotest.fail "expected rows"

let test_lang_replace () =
  let db, _, _, _ = paper_db () in
  (match Lang.exec db {|replace (Dept.budget = 5) where Dept.name = "dept-1"|} with
  | Lang.Updated 1 -> ()
  | _ -> Alcotest.fail "expected Updated 1");
  match Lang.exec db {|retrieve (Dept.budget) where Dept.name = "dept-1"|} with
  | Lang.Rows [ [ Value.VInt 5 ] ] -> ()
  | _ -> Alcotest.fail "update not visible"

let test_lang_between_and_comparisons () =
  let db, _, _, _ = paper_db () in
  let count stmt =
    match Lang.exec db stmt with
    | Lang.Rows rows -> List.length rows
    | _ -> Alcotest.fail "expected rows"
  in
  checki "between" 3 (count "retrieve (Emp1.name) where Emp1.age between 25 and 27");
  checki "lt" 2 (count "retrieve (Emp1.name) where Emp1.age < 27");
  checki "ge" 11 (count "retrieve (Emp1.name) where Emp1.age >= 26");
  checki "eq" 1 (count "retrieve (Emp1.name) where Emp1.age = 30")

let test_lang_replication_modifiers () =
  let db, _, _, emps = paper_db () in
  ignore (Lang.exec db "replicate Emp1.dept.budget using separate");
  ignore (Lang.exec db "replicate Emp1.dept.org.name collapsed");
  ignore (Lang.exec db "replicate Emp1.dept.name threshold 0");
  checki "separate hop" 1 (Db.deref_would_join db ~set:"Emp1" "dept.budget");
  checki "collapsed covered" 0 (Db.deref_would_join db ~set:"Emp1" "dept.org.name");
  checkv "value intact" (Value.VString "dept-0") (Db.deref db ~set:"Emp1" emps.(0) "dept.name");
  Db.check_integrity db

let test_lang_script () =
  let db = Db.create () in
  let outcomes =
    Lang.exec_script db
      {|
      -- the paper's schema
      define type DEPT (name: char[], budget: int);
      define type EMP (name: char[], salary: int, dept: ref DEPT);
      create Dept: {own ref DEPT};
      create Emp1: {own ref EMP}
      |}
  in
  checki "four statements" 4 (List.length outcomes)

let test_lang_errors () =
  let db, _, _, _ = paper_db () in
  List.iter
    (fun stmt ->
      try
        ignore (Lang.exec db stmt);
        Alcotest.failf "accepted %S" stmt
      with Lang.Parse_error _ -> ())
    [
      "frobnicate Emp1";
      "retrieve ()";
      "retrieve (Emp1.name) where Emp1.name ~ 3";
      "define type X (a: blob)";
      {|retrieve (Emp1.name) where Emp1.name < "x"|};
      "retrieve (Emp1.name, Dept.name)";
    ]


(* ------------------------------------------------------------------ *)
(* Predicates on path expressions (§3.3.4 associative lookups)         *)

let test_path_predicate_file_scan () =
  let db, _, _, _ = paper_db () in
  (* No index, no replication: evaluated by scan + functional joins. *)
  let rows =
    Exec.retrieve_values db
      {
        Ast.from_set = "Emp1";
        projections = [ "name" ];
        where = Some (Ast.eq "dept.name" (Value.VString "dept-1"));
      }
  in
  checki "matching employees" 4 (List.length rows)

let test_path_predicate_uses_path_index () =
  let db, _, _, _ = paper_db () in
  ignore (Lang.exec db "replicate Emp1.dept.org.name");
  ignore (Lang.exec db "build btree on Emp1.dept.org.name");
  let q =
    {
      Ast.from_set = "Emp1";
      projections = [ "name" ];
      where = Some (Ast.eq "dept.org.name" (Value.VString "acme"));
    }
  in
  (match (Exec.explain_retrieve db q).Exec.access with
  | Exec.Index_scan name ->
      Alcotest.(check string) "path index chosen" "btree_Emp1_dept_org_name" name
  | Exec.File_scan -> Alcotest.fail "path index not chosen");
  checki "all employees of acme" 12 (List.length (Exec.retrieve_values db q));
  (* Same answer without the index. *)
  let db2, _, _, _ = paper_db () in
  checki "scan agrees" 12 (List.length (Exec.retrieve_values db2 q))

let test_lang_path_predicate () =
  let db, _, _, _ = paper_db () in
  match Lang.exec db {|retrieve (Emp1.name) where Emp1.dept.name = "dept-0"|} with
  | Lang.Rows rows -> checki "rows" 4 (List.length rows)
  | _ -> Alcotest.fail "expected rows"

(* ------------------------------------------------------------------ *)
(* Aggregates, ordering, limits                                        *)

let test_aggregates () =
  let db, _, _, _ = paper_db () in
  let vals =
    Exec.aggregate db ~set:"Emp1" ~where:None
      [
        (Exec.Count, "name");
        (Exec.Sum, "salary");
        (Exec.Avg, "salary");
        (Exec.Min, "salary");
        (Exec.Max, "salary");
      ]
  in
  (* salaries are 50k + 10k*i, i = 0..11 *)
  Alcotest.(check (list string))
    "aggregate values"
    [ "12"; string_of_int (12 * 50_000 + 10_000 * 66); "105000"; "50000"; "160000" ]
    (List.map Value.to_string vals)

let test_aggregate_with_predicate_and_path () =
  let db, _, _, _ = paper_db () in
  ignore (Lang.exec db "replicate Emp1.dept.name");
  let vals =
    Exec.aggregate db ~set:"Emp1"
      ~where:(Some { Ast.pfield = "salary"; lo = Some (Value.VInt 100_000); hi = None })
      [ (Exec.Count, "dept.name"); (Exec.Max, "dept.name") ]
  in
  checki "count over path" 7 (Value.as_int (List.nth vals 0));
  checkb "max over strings" true (match List.nth vals 1 with Value.VString _ -> true | _ -> false)

let test_aggregate_empty_selection () =
  let db, _, _, _ = paper_db () in
  let vals =
    Exec.aggregate db ~set:"Emp1"
      ~where:(Some (Ast.eq "salary" (Value.VInt 1)))
      [ (Exec.Count, "name"); (Exec.Sum, "salary"); (Exec.Min, "salary") ]
  in
  Alcotest.(check (list string)) "empty aggregates" [ "0"; "null"; "null" ]
    (List.map Value.to_string vals)

let test_retrieve_sorted_and_limit () =
  let db, _, _, _ = paper_db () in
  let rows =
    Exec.retrieve_sorted db
      { Ast.from_set = "Emp1"; projections = [ "name" ]; where = None }
      ~order_by:"salary" ~descending:true ~limit:3 ()
  in
  Alcotest.(check (list (list string)))
    "top three earners"
    [ [ {|"emp-11"|} ]; [ {|"emp-10"|} ]; [ {|"emp-9"|} ] ]
    (List.map (List.map Value.to_string) rows)

let test_lang_aggregates () =
  let db, _, _, _ = paper_db () in
  (match Lang.exec db "retrieve (count(Emp1.name), avg(Emp1.salary)) where Emp1.salary >= 100000" with
  | Lang.Rows [ [ Value.VInt 7; Value.VInt 130000 ] ] -> ()
  | Lang.Rows rows ->
      Alcotest.failf "unexpected rows: %s"
        (String.concat ";"
           (List.map (fun r -> String.concat "," (List.map Value.to_string r)) rows))
  | _ -> Alcotest.fail "expected rows");
  match Lang.exec db "retrieve (Emp1.name) order by Emp1.salary desc limit 2" with
  | Lang.Rows [ [ Value.VString "emp-11" ]; [ Value.VString "emp-10" ] ] -> ()
  | _ -> Alcotest.fail "order by desc limit failed"

let test_lang_aggregate_mix_rejected () =
  let db, _, _, _ = paper_db () in
  try
    ignore (Lang.exec db "retrieve (Emp1.name, count(Emp1.name))");
    Alcotest.fail "mixed projections accepted"
  with Lang.Parse_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Group-by, insert/delete statements                                  *)

let test_group_by_api () =
  let db, _, _, _ = paper_db () in
  let groups =
    Exec.group_by db ~set:"Emp1" ~where:None ~key:"dept.name"
      [ (Exec.Count, "name"); (Exec.Max, "salary") ]
  in
  (* 12 employees round-robin over three departments. *)
  checki "three groups" 3 (List.length groups);
  List.iter
    (fun (_, vals) -> checki "four per group" 4 (Value.as_int (List.nth vals 0)))
    groups;
  (* Keys ascend. *)
  let keys = List.map fst groups in
  checkb "sorted keys" true (keys = List.sort Value.compare keys)

let test_group_by_replicated_path_no_joins () =
  let db, _, _, _ = paper_db () in
  ignore (Lang.exec db "replicate Emp1.dept.org.name");
  checki "grouping key fully covered" 0
    (Db.deref_would_join db ~set:"Emp1" "dept.org.name");
  match Lang.exec db "retrieve (count(Emp1.name)) group by Emp1.dept.org.name" with
  | Lang.Rows [ [ Value.VString "acme"; Value.VInt 12 ] ] -> ()
  | Lang.Rows rows ->
      Alcotest.failf "unexpected: %s"
        (String.concat ";"
           (List.map (fun r -> String.concat "," (List.map Value.to_string r)) rows))
  | _ -> Alcotest.fail "expected rows"

let test_lang_group_by_validation () =
  let db, _, _, _ = paper_db () in
  List.iter
    (fun stmt ->
      try
        ignore (Lang.exec db stmt);
        Alcotest.failf "accepted %S" stmt
      with Lang.Parse_error _ -> ())
    [
      "retrieve (Emp1.name) group by Emp1.dept.name";  (* no aggregate *)
      "retrieve (Emp1.age, count(Emp1.name)) group by Emp1.dept.name";  (* col <> key *)
      "retrieve (count(Emp1.name)) group by Emp1.dept.name limit 2";
    ]

let test_lang_insert_with_ref_lookup () =
  let db, _, _, _ = paper_db () in
  (match
     Lang.exec db {|insert into Emp1 values ("zoe", 28, 70000, ref(Dept.name = "dept-2"))|}
   with
  | Lang.Inserted _ -> ()
  | _ -> Alcotest.fail "expected Inserted");
  checki "13 employees now" 13 (Db.set_size db "Emp1");
  (match Lang.exec db {|retrieve (Emp1.dept.name) where Emp1.name = "zoe"|} with
  | Lang.Rows [ [ Value.VString "dept-2" ] ] -> ()
  | _ -> Alcotest.fail "reference not resolved");
  (* Ambiguous and empty lookups rejected. *)
  List.iter
    (fun stmt ->
      try
        ignore (Lang.exec db stmt);
        Alcotest.failf "accepted %S" stmt
      with Lang.Parse_error _ -> ())
    [
      {|insert into Emp1 values ("x", 1, 1, ref(Dept.name = "nope"))|};
      {|insert into Emp1 values ("x", 1, 1, ref(Dept.budget >= 0))|};
    ]

let test_lang_delete_from () =
  let db, _, _, _ = paper_db () in
  (match Lang.exec db "delete from Emp1 where Emp1.salary >= 120000" with
  | Lang.Deleted 5 -> ()
  | Lang.Deleted n -> Alcotest.failf "deleted %d" n
  | _ -> Alcotest.fail "expected Deleted");
  checki "7 left" 7 (Db.set_size db "Emp1");
  Db.check_integrity db;
  (match Lang.exec db "delete from Emp1" with
  | Lang.Deleted 7 -> ()
  | _ -> Alcotest.fail "unfiltered delete");
  checki "empty" 0 (Db.set_size db "Emp1")

let test_delete_from_respects_replication_protection () =
  let db, _, _, _ = paper_db () in
  ignore (Lang.exec db "replicate Emp1.dept.name");
  try
    ignore (Lang.exec db "delete from Dept");
    Alcotest.fail "deleted referenced departments"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Slice projection                                                    *)

(* A small Org <- Dept <- Emp1 database whose replication layout is
   drawn at random.  [org_path] replicates Emp1.dept.org: 0 none, 1 name
   in place, 2 name separate, 3 name in place with lazy propagation, 4
   the whole object in place, 5 the whole object separate.  [dept_path]
   replicates Emp1.dept.name: 0 none, 1 in place, 2 separate.  Without
   [reserve] the replicate spills most Emp1 heads into chains.  Some
   employees have no department and some departments no org, so there are
   null S' references and records too short to hold the hidden fields;
   updates after the replicate leave lazy invalidations pending. *)
type shape = { seed : int; org_path : int; dept_path : int; reserve : bool }

let shaped_db sh =
  let rng = Splitmix.create sh.seed in
  let db = Db.create ~page_size:1024 ~frames:64 () in
  let field fname ftype = { Ty.fname; ftype } in
  Db.define_type db
    (Ty.make ~name:"ORG"
       [ field "name" (Ty.Scalar Ty.SString); field "budget" (Ty.Scalar Ty.SInt) ]);
  Db.define_type db
    (Ty.make ~name:"DEPT" [ field "name" (Ty.Scalar Ty.SString); field "org" (Ty.Ref "ORG") ]);
  Db.define_type db
    (Ty.make ~name:"EMP"
       [
         field "name" (Ty.Scalar Ty.SString);
         field "age" (Ty.Scalar Ty.SInt);
         field "salary" (Ty.Scalar Ty.SInt);
         field "dept" (Ty.Ref "DEPT");
       ]);
  Db.create_set db ~name:"Org" ~elem_type:"ORG" ();
  Db.create_set db ~name:"Dept" ~elem_type:"DEPT" ();
  Db.create_set db ~reserve:(if sh.reserve then 40 else 0) ~name:"Emp1" ~elem_type:"EMP" ();
  let pick a = a.(Splitmix.int rng (Array.length a)) in
  let orgs =
    Array.init 4 (fun i ->
        Db.insert db ~set:"Org"
          [ Value.VString (Printf.sprintf "org-%d" i); Value.VInt (1000 * i) ])
  in
  let depts =
    Array.init 8 (fun i ->
        let org = if i = 7 then Value.VNull else Value.VRef (pick orgs) in
        Db.insert db ~set:"Dept" [ Value.VString (Printf.sprintf "dept-%d" i); org ])
  in
  let emp i =
    let dept = if Splitmix.int rng 8 = 0 then Value.VNull else Value.VRef (pick depts) in
    ignore
      (Db.insert db ~set:"Emp1"
         [
           Value.VString (Printf.sprintf "e%d%s" i (String.make (Splitmix.int rng 12) 'x'));
           Value.VInt (20 + Splitmix.int rng 40);
           Value.VInt (Splitmix.int rng 1000);
           dept;
         ])
  in
  for i = 0 to 59 do
    emp i
  done;
  let replicate strategy ?(lazy_ = false) path =
    let options = { Schema.default_options with Schema.lazy_propagation = lazy_ } in
    Db.replicate db ~options ~strategy (Path.parse path)
  in
  (match sh.org_path with
  | 1 -> replicate Schema.Inplace "Emp1.dept.org.name"
  | 2 -> replicate Schema.Separate "Emp1.dept.org.name"
  | 3 -> replicate Schema.Inplace ~lazy_:true "Emp1.dept.org.name"
  | 4 -> replicate Schema.Inplace "Emp1.dept.org.all"
  | 5 -> replicate Schema.Separate "Emp1.dept.org.all"
  | _ -> ());
  (match sh.dept_path with
  | 1 -> replicate Schema.Inplace "Emp1.dept.name"
  | 2 -> replicate Schema.Separate "Emp1.dept.name"
  | _ -> ());
  Db.build_index db ~name:"emp_salary" ~set:"Emp1" ~field:"salary" ~clustered:false;
  for i = 60 to 69 do
    emp i
  done;
  for i = 0 to 1 do
    Db.update_field db ~set:"Org" orgs.(i) ~field:"name"
      (Value.VString (Printf.sprintf "org-%d'" i));
    Db.update_field db ~set:"Dept" (pick depts) ~field:"name"
      (Value.VString (Printf.sprintf "d%d'" i))
  done;
  db

let projection_pool =
  [| "name"; "age"; "salary"; "dept"; "dept.name"; "dept.org"; "dept.org.name"; "dept.org.budget" |]

let where_of k =
  match k mod 4 with
  | 0 -> None
  | 1 -> Some (Ast.between "salary" (Value.VInt 200) (Value.VInt 700)) (* index scan *)
  | 2 -> Some (Ast.between "age" (Value.VInt 30) (Value.VInt 45)) (* file scan *)
  | _ -> Some (Ast.between "dept.org.name" (Value.VString "org-1") (Value.VString "org-3"))

(* Today's retrieve on decoded records: select as the planner does,
   evaluate every projection to a [Value.t] with [field_value] or
   [deref_record ~oid], and encode the tuple.  The tuples also go into an
   output file, so the I/O matches a retrieve's. *)
let decoded_retrieve db (q : Ast.retrieve) =
  let set = q.Ast.from_set in
  let eval ~oid record expr =
    if String.contains expr '.' then Db.deref_record ~oid db ~set record expr
    else Db.field_value db ~set record expr
  in
  let out = Heap_file.create (Db.pager db) in
  let tuples = ref [] in
  let emit oid record =
    let values = List.map (eval ~oid record) q.Ast.projections in
    let tuple = Record.encode (Record.make ~type_tag:0 (Array.of_list values)) in
    ignore (Heap_file.insert out tuple);
    tuples := tuple :: !tuples
  in
  (match ((Exec.explain_retrieve db q).Exec.access, q.Ast.where) with
  | Exec.Index_scan index, Some p ->
      let key = function Value.VInt v -> Key.Int v | _ -> assert false in
      let lo = key (Option.get p.Ast.lo) and hi = key (Option.get p.Ast.hi) in
      Db.index_range db ~index ~lo ~hi ~init:[] ~f:(fun acc _ oid -> oid :: acc)
      |> List.rev
      |> List.iter (fun oid -> emit oid (Db.get db ~set oid))
  | Exec.Index_scan _, None -> assert false
  | Exec.File_scan, where ->
      Db.scan db ~set (fun oid record ->
          let keep =
            match where with
            | None -> true
            | Some p -> (
                let v = eval ~oid record p.Ast.pfield in
                v <> Value.VNull
                && (match p.Ast.lo with None -> true | Some lo -> Value.compare v lo >= 0)
                && match p.Ast.hi with None -> true | Some hi -> Value.compare v hi <= 0)
          in
          if keep then emit oid record));
  let pages = Heap_file.page_count out in
  Pager.delete_file (Db.pager db) (Heap_file.file_id out);
  (List.rev !tuples, pages)

let output_tuples db (res : Exec.retrieve_result) =
  let out = Heap_file.attach (Db.pager db) ~file:res.Exec.output_file in
  let tuples = List.rev (Heap_file.fold out ~init:[] ~f:(fun acc _ bytes -> bytes :: acc)) in
  Exec.drop_output db res.Exec.output_file;
  tuples

let accesses db =
  let st = Db.stats db in
  (st.Stats.buffer_hits + st.Stats.page_reads, st.Stats.degraded_reads)

(* The slices a retrieve blits must give byte for byte the tuples the
   decoded projection encodes, over the same page accesses.  Two copies
   of one database are built, since lazy repairs write as they read. *)
let slices_match_decoded ((seed, org_path, dept_path, reserve), (picks, where)) =
  let sh = { seed; org_path; dept_path; reserve } in
  let q =
    {
      Ast.from_set = "Emp1";
      projections = List.map (fun i -> projection_pool.(i)) picks;
      where = where_of where;
    }
  in
  let sliced = shaped_db sh and decoded = shaped_db sh in
  let io0 = accesses sliced and io0' = accesses decoded in
  let res = Exec.retrieve sliced q in
  let io1 = accesses sliced in
  let expected, expected_pages = decoded_retrieve decoded q in
  let io1' = accesses decoded in
  let got = output_tuples sliced res in
  if res.Exec.rows <> List.length expected then
    QCheck.Test.fail_reportf "%d rows, decoded %d" res.Exec.rows (List.length expected);
  List.iteri
    (fun i (g, e) ->
      if not (Bytes.equal g e) then
        QCheck.Test.fail_reportf "row %d of %s: %S, decoded %S" i
          (Format.asprintf "%a" Ast.pp_retrieve q)
          (Bytes.to_string g) (Bytes.to_string e))
    (List.combine got expected);
  if res.Exec.output_pages <> expected_pages then
    QCheck.Test.fail_reportf "%d output pages, decoded %d" res.Exec.output_pages expected_pages;
  if (fst io1 - fst io0, snd io1 - snd io0) <> (fst io1' - fst io0', snd io1' - snd io0') then
    QCheck.Test.fail_reportf "page accesses %d, decoded %d" (fst io1 - fst io0)
      (fst io1' - fst io0');
  true

let slice_projection_arb =
  let open QCheck in
  pair
    (quad (int_bound 10_000) (int_bound 5) (int_bound 2) bool)
    (pair (list_of_size Gen.(1 -- 5) (int_bound (Array.length projection_pool - 1))) (int_bound 3))

(* An S' object on a quarantined page: the slice path degrades to the
   join exactly as deref does, once per read, and the tuple holds the
   join's value. *)
let test_slice_projection_quarantined_sprime () =
  let db = shaped_db { seed = 5; org_path = 0; dept_path = 2; reserve = false } in
  let target = ref None in
  Db.scan db ~set:"Emp1" (fun oid record ->
      match record.Record.values with
      | [| name; _; _; Value.VRef dept; Value.VRef sp |] when !target = None ->
          target := Some (oid, name, dept, sp)
      | _ -> ());
  let oid, name, dept, sp = Option.get !target in
  let joined = Db.field_value db ~set:"Dept" (Db.get db ~set:"Dept" dept) "name" in
  let pager = Db.pager db in
  Pager.flush pager;
  Disk.corrupt_page (Pager.disk pager) ~file:sp.Oid.file ~page:sp.Oid.page [ 40 ];
  Pager.invalidate pager ~file:sp.Oid.file ~page:sp.Oid.page;
  let q =
    {
      Ast.from_set = "Emp1";
      projections = [ "name"; "dept.name" ];
      where = Some (Ast.between "name" name name);
    }
  in
  checkb "one row selected" true (Exec.matching_oids db ~set:"Emp1" q.Ast.where = [ oid ]);
  let before = snd (accesses db) in
  let res = Exec.retrieve db q in
  checki "one degraded read" 1 (snd (accesses db) - before);
  (match output_tuples db res with
  | [ tuple ] ->
      Alcotest.(check bytes) "tuple holds the join's value"
        (Record.encode (Record.make ~type_tag:0 [| name; joined |]))
        tuple
  | tuples -> Alcotest.failf "%d tuples" (List.length tuples));
  checkv "deref degrades the same way" joined (Db.deref db ~set:"Emp1" oid "dept.name");
  checki "and counts it" 2 (snd (accesses db) - before)

(* Under a transaction a projection takes the locks [deref_record] takes,
   in the same order: the lock tables match, and against a writer holding
   the S' owner both stop at the same lock with the same ones held. *)
let test_slice_projection_locks () =
  let sh = { seed = 9; org_path = 1; dept_path = 2; reserve = false } in
  let sliced = shaped_db sh and decoded = shaped_db sh in
  let dept_of o = Db.field_value sliced ~set:"Emp1" (Db.get sliced ~set:"Emp1" o) "dept" in
  let oid =
    List.find (fun o -> dept_of o <> Value.VNull) (Exec.matching_oids sliced ~set:"Emp1" None)
  in
  let dept = Value.as_ref (dept_of oid) in
  let table db = Format.asprintf "%a" Lock.pp (Db.lock_manager db) in
  let run_sliced tx expr =
    let bytes = Db.get_encoded ~txn:tx sliced ~set:"Emp1" oid in
    ignore (Db.project_slice ~txn:tx sliced ~oid bytes (Db.projection ~set:"Emp1" expr))
  in
  let run_decoded tx expr =
    let record = Db.get ~txn:tx decoded ~set:"Emp1" oid in
    ignore
      (if String.contains expr '.' then Db.deref_record ~txn:tx ~oid decoded ~set:"Emp1" record expr
       else Db.field_value decoded ~set:"Emp1" record expr)
  in
  let ta = Db.begin_txn sliced and tb = Db.begin_txn decoded in
  Array.iter
    (fun expr ->
      run_sliced ta expr;
      run_decoded tb expr;
      Alcotest.(check string) ("locks after " ^ expr) (table decoded) (table sliced))
    projection_pool;
  Db.commit sliced ta;
  Db.commit decoded tb;
  let blocked db run =
    Lock.acquire (Db.lock_manager db) ~txn:999_999 (Lock.Obj dept) Lock.X;
    let tx = Db.begin_txn db in
    (match run tx "dept.name" with
    | () -> Alcotest.fail "expected Would_block on the S' owner"
    | exception Lock.Would_block _ -> ());
    Lock.held_count (Db.lock_manager db) ~txn:(Db.Txn.id tx)
  in
  checki "same locks held when blocked" (blocked decoded run_decoded) (blocked sliced run_sliced)

(* An in-place deref reads the one hidden value from the record's bytes.
   Over 31-field records, decoding one into its Value array costs about
   600 words, so the bound — twice the measured 107 words per deref —
   admits no full decode. *)
let test_inplace_deref_allocation_bound () =
  let db = Db.create ~page_size:4096 ~frames:256 () in
  let field fname ftype = { Ty.fname; ftype } in
  Db.define_type db (Ty.make ~name:"ORG" [ field "name" (Ty.Scalar Ty.SString) ]);
  Db.define_type db
    (Ty.make ~name:"DEPT" [ field "name" (Ty.Scalar Ty.SString); field "org" (Ty.Ref "ORG") ]);
  let notes = List.init 30 (fun i -> field (Printf.sprintf "note%02d" i) (Ty.Scalar Ty.SString)) in
  Db.define_type db (Ty.make ~name:"WIDE" (notes @ [ field "dept" (Ty.Ref "DEPT") ]));
  Db.create_set db ~name:"Org" ~elem_type:"ORG" ();
  Db.create_set db ~name:"Dept" ~elem_type:"DEPT" ();
  Db.create_set db ~name:"Wide" ~elem_type:"WIDE" ();
  let org = Db.insert db ~set:"Org" [ Value.VString "org-0" ] in
  let dept = Db.insert db ~set:"Dept" [ Value.VString "dept-0"; Value.VRef org ] in
  let oids =
    Array.init 200 (fun i ->
        Db.insert db ~set:"Wide"
          (List.init 30 (fun j -> Value.VString (Printf.sprintf "n%d-%d" i j))
          @ [ Value.VRef dept ]))
  in
  Db.replicate db ~strategy:Schema.Inplace (Path.parse "Wide.dept.org.name");
  checki "no joins" 0 (Db.deref_would_join db ~set:"Wide" "dept.org.name");
  let words_per n f =
    let before = Gc.minor_words () in
    for i = 0 to n - 1 do
      f i
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let per_deref =
    words_per 2000 (fun i -> ignore (Db.deref db ~set:"Wide" oids.(i mod 200) "dept.org.name"))
  in
  let encoded = Record.encode (Db.get db ~set:"Wide" oids.(0)) in
  let per_decode = words_per 200 (fun _ -> ignore (Record.decode encoded)) in
  checkb "a full decode breaks the bound" true (per_decode > 214.);
  if per_deref > 214. then
    Alcotest.failf "an in-place Db.deref allocates %.0f words (bound 214)" per_deref

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"slice projection equals decoded projection" ~count:150
      slice_projection_arb slices_match_decoded;
    Test.make ~name:"index scan equals file scan" ~count:20
      (pair (int_range 0 2000) (int_range 0 2000))
      (fun (a, b) ->
        let lo = min a b and hi = max a b in
        let built =
          Wgen.build { Wgen.default_spec with Wgen.s_count = 150; sharing = 2; seed = a + (b * 7) }
        in
        let db = built.Wgen.db in
        let q where =
          Exec.retrieve_values db
            {
              Ast.from_set = "R";
              projections = [ "field_r"; "sref.repfield" ];
              where;
            }
          |> List.sort compare
        in
        let with_index =
          q (Some (Ast.between "field_r" (Value.VInt lo) (Value.VInt hi)))
        in
        (* Force a file scan by filtering manually. *)
        let all = q None in
        let filtered =
          List.filter
            (fun row ->
              match row with
              | Value.VInt k :: _ -> k >= lo && k <= hi
              | _ -> false)
            all
        in
        with_index = filtered);
  ]

let () =
  Alcotest.run "fieldrep_query"
    [
      ( "planner",
        [
          Alcotest.test_case "picks index" `Quick test_planner_picks_index;
          Alcotest.test_case "join counts follow replication" `Quick
            test_planner_join_counts_follow_replication;
          Alcotest.test_case "plan cache follows schema epoch" `Quick
            test_plan_cache_follows_schema_epoch;
        ] );
      ( "retrieve",
        [
          Alcotest.test_case "with predicate" `Quick test_retrieve_with_predicate;
          Alcotest.test_case "full scan" `Quick test_retrieve_full_scan;
          Alcotest.test_case "empty result" `Quick test_retrieve_empty_result;
          Alcotest.test_case "output file" `Quick test_retrieve_output_file_counted;
          Alcotest.test_case "failure drops output" `Quick test_retrieve_failure_drops_output;
          Alcotest.test_case "replication transparent" `Quick
            test_retrieve_same_result_with_and_without_replication;
          Alcotest.test_case "slices around a quarantined S' page" `Quick
            test_slice_projection_quarantined_sprime;
          Alcotest.test_case "slice projection locks like deref_record" `Quick
            test_slice_projection_locks;
          Alcotest.test_case "in-place deref allocation bounded" `Quick
            test_inplace_deref_allocation_bound;
        ] );
      ( "replace",
        [
          Alcotest.test_case "updates and propagates" `Quick test_replace_updates_and_propagates;
          Alcotest.test_case "computed rhs" `Quick test_replace_computed_rhs;
        ] );
      ( "path predicates",
        [
          Alcotest.test_case "file scan" `Quick test_path_predicate_file_scan;
          Alcotest.test_case "uses path index" `Quick test_path_predicate_uses_path_index;
          Alcotest.test_case "language" `Quick test_lang_path_predicate;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "basic aggregates" `Quick test_aggregates;
          Alcotest.test_case "predicate + path" `Quick test_aggregate_with_predicate_and_path;
          Alcotest.test_case "empty selection" `Quick test_aggregate_empty_selection;
          Alcotest.test_case "sorted + limit" `Quick test_retrieve_sorted_and_limit;
          Alcotest.test_case "language aggregates" `Quick test_lang_aggregates;
          Alcotest.test_case "mixed projections rejected" `Quick
            test_lang_aggregate_mix_rejected;
        ] );
      ( "group-by and dml statements",
        [
          Alcotest.test_case "group_by api" `Quick test_group_by_api;
          Alcotest.test_case "group by replicated path" `Quick
            test_group_by_replicated_path_no_joins;
          Alcotest.test_case "group-by validation" `Quick test_lang_group_by_validation;
          Alcotest.test_case "insert with ref lookup" `Quick test_lang_insert_with_ref_lookup;
          Alcotest.test_case "delete from" `Quick test_lang_delete_from;
          Alcotest.test_case "delete respects protection" `Quick
            test_delete_from_respects_replication_protection;
        ] );
      ( "language",
        [
          Alcotest.test_case "paper retrieve" `Quick test_lang_retrieve_paper_example;
          Alcotest.test_case "replace" `Quick test_lang_replace;
          Alcotest.test_case "comparisons" `Quick test_lang_between_and_comparisons;
          Alcotest.test_case "replication modifiers" `Quick test_lang_replication_modifiers;
          Alcotest.test_case "script" `Quick test_lang_script;
          Alcotest.test_case "errors" `Quick test_lang_errors;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
