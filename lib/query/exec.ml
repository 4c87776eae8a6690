module Db = Fieldrep.Db
module Heap_file = Fieldrep_storage.Heap_file
module Pager = Fieldrep_storage.Pager
module Oid = Fieldrep_storage.Oid
module Key = Fieldrep_btree.Key
module Value = Fieldrep_model.Value
module Record = Fieldrep_model.Record
module Schema = Fieldrep_model.Schema

type access = Index_scan of string | File_scan

type retrieve_plan = {
  access : access;
  join_counts : (string * int) list;
}

let key_of_value = function
  | Value.VInt v -> Some (Key.Int v)
  | Value.VString s -> Some (Key.String s)
  | Value.VRef _ | Value.VNull -> None

(* An index is usable when the predicate's bounds translate to keys; an
   open bound needs a key-space extreme, which only integers have. *)
let key_bounds (p : Ast.predicate) =
  let lo =
    match p.Ast.lo with
    | Some v -> key_of_value v
    | None -> Some (Key.Int min_int)
  in
  let hi =
    match p.Ast.hi with
    | Some v -> key_of_value v
    | None -> Some (Key.Int max_int)
  in
  match (lo, hi) with
  | Some (Key.Int _ as a), Some (Key.Int _ as b) -> Some (a, b)
  | Some (Key.String _ as a), Some (Key.String _ as b) -> Some (a, b)
  | Some _, Some _ | None, _ | _, None -> None

(* Predicates may target a plain field or a dotted path expression; a path
   predicate can use an index built on the replicated path (paper §3.3.4:
   "queries that require an associative lookup on the path"). *)
let index_field_of ~set (p : Ast.predicate) =
  if String.contains p.Ast.pfield '.' then set ^ "." ^ p.Ast.pfield else p.Ast.pfield

let choose_access db ~set (where : Ast.predicate option) =
  match where with
  | None -> File_scan
  | Some p -> (
      match (Db.find_index db ~set ~field:(index_field_of ~set p), key_bounds p) with
      | Some def, Some _ -> Index_scan def.Schema.iname
      | Some _, None | None, _ -> File_scan)

let value_in_range (p : Ast.predicate) v =
  let ge = match p.Ast.lo with None -> true | Some lo -> Value.compare v lo >= 0 in
  let le = match p.Ast.hi with None -> true | Some hi -> Value.compare v hi <= 0 in
  (match v with Value.VNull -> false | Value.VInt _ | Value.VString _ | Value.VRef _ -> true)
  && ge && le

let explain_retrieve db (q : Ast.retrieve) =
  {
    access = choose_access db ~set:q.Ast.from_set q.Ast.where;
    join_counts =
      List.map
        (fun expr ->
          let joins =
            if String.contains expr '.' then
              Db.deref_would_join db ~set:q.Ast.from_set expr
            else 0
          in
          (expr, joins))
        q.Ast.projections;
  }

(* The value of a compiled projection for one row, decoded. *)
let value_of db ~oid bytes proj =
  let src, off, _ = Db.project_slice db ~oid bytes proj in
  fst (Value.decode src off)

(* Feed every selected (oid, encoded record) to [f].  Index scans visit
   in key order; file scans in physical order. *)
let iter_selected db ~set (where : Ast.predicate option) f =
  match choose_access db ~set where with
  | Index_scan index ->
      (* choose_access only picks an index scan off a bounded predicate. *)
      let lo, hi =
        match Option.map key_bounds where with
        | Some (Some bounds) -> bounds
        | Some None | None -> invalid_arg "Exec: index plan without key bounds"
      in
      (* Collect first: callbacks may mutate the tree's pages' residency. *)
      let oids = Db.index_range db ~index ~lo ~hi ~init:[] ~f:(fun acc _ oid -> oid :: acc) in
      List.iter (fun oid -> f oid (Db.get_encoded db ~set oid)) (List.rev oids)
  | File_scan ->
      let filter = Option.map (fun p -> (p, Db.projection ~set p.Ast.pfield)) where in
      Db.scan_encoded db ~set (fun oid bytes ->
          let keep =
            match filter with
            | None -> true
            | Some (p, proj) -> value_in_range p (value_of db ~oid bytes proj)
          in
          if keep then f oid bytes)

let matching_oids db ~set where =
  let acc = ref [] in
  iter_selected db ~set where (fun oid _ -> acc := oid :: !acc);
  List.rev !acc

type retrieve_result = { rows : int; output_file : int; output_pages : int }

let drop_output db file = Pager.delete_file (Db.pager db) file

(* Each output tuple is assembled from the encoded slices the
   projections read, one blit per value: the bytes are those of
   [Record.encode (Record.make ~type_tag:0 values)].  A scan or projection
   that raises (a quarantined page, a bad path expression) must not leak
   the half-written output file or its frames. *)
let retrieve db (q : Ast.retrieve) =
  let set = q.Ast.from_set in
  let projections = Array.of_list (List.map (Db.projection ~set) q.Ast.projections) in
  let n = Array.length projections in
  let srcs = Array.make n Bytes.empty and offs = Array.make n 0 and lens = Array.make n 0 in
  let out = Heap_file.create (Db.pager db) in
  let rows = ref 0 in
  match
    iter_selected db ~set q.Ast.where (fun oid bytes ->
        for i = 0 to n - 1 do
          let src, off, len = Db.project_slice db ~oid bytes projections.(i) in
          srcs.(i) <- src;
          offs.(i) <- off;
          lens.(i) <- len
        done;
        ignore (Heap_file.insert out (Record.of_value_slices ~type_tag:0 srcs offs lens));
        incr rows)
  with
  | () ->
      { rows = !rows; output_file = Heap_file.file_id out; output_pages = Heap_file.page_count out }
  | exception e ->
      drop_output db (Heap_file.file_id out);
      raise e

let retrieve_values db q =
  let result = retrieve db q in
  let out = Heap_file.attach (Db.pager db) ~file:result.output_file in
  let rows = ref [] in
  Heap_file.iter out (fun _ bytes ->
      rows := Array.to_list (Record.decode bytes).Record.values :: !rows);
  drop_output db result.output_file;
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* Aggregates and ordering                                             *)

type aggregate = Count | Sum | Avg | Min | Max

type agg_state = {
  mutable count : int;
  mutable sum : int;
  mutable vmin : Value.t;
  mutable vmax : Value.t;
}

let fresh_states specs =
  List.map (fun _ -> { count = 0; sum = 0; vmin = Value.VNull; vmax = Value.VNull }) specs

(* Fold one row into every aggregate; [specs] pairs each aggregate with
   its compiled projection. *)
let accumulate db ~who ~oid bytes specs states =
  List.iter2
    (fun (agg, proj, expr) st ->
      match value_of db ~oid bytes proj with
      | Value.VNull -> ()
      | v ->
          st.count <- st.count + 1;
          (match (agg, v) with
          | (Sum | Avg), Value.VInt i -> st.sum <- st.sum + i
          | (Sum | Avg), _ ->
              invalid_arg (Printf.sprintf "Exec.%s: sum/avg over non-integer %s" who expr)
          | (Count | Min | Max), _ -> ());
          if st.vmin = Value.VNull || Value.compare v st.vmin < 0 then st.vmin <- v;
          if st.vmax = Value.VNull || Value.compare v st.vmax > 0 then st.vmax <- v)
    specs states

let results specs states =
  List.map2
    (fun (agg, _, _) st ->
      match agg with
      | Count -> Value.VInt st.count
      | Sum -> if st.count = 0 then Value.VNull else Value.VInt st.sum
      | Avg -> if st.count = 0 then Value.VNull else Value.VInt (st.sum / st.count)
      | Min -> st.vmin
      | Max -> st.vmax)
    specs states

let compile_specs ~set specs =
  List.map (fun (agg, expr) -> (agg, Db.projection ~set expr, expr)) specs

let aggregate db ~set ~where specs =
  let specs = compile_specs ~set specs in
  let states = fresh_states specs in
  iter_selected db ~set where (fun oid bytes ->
      accumulate db ~who:"aggregate" ~oid bytes specs states);
  results specs states

let group_by db ~set ~where ~key specs =
  let module VM = Map.Make (struct
    type t = Value.t

    let compare = Value.compare
  end) in
  let specs = compile_specs ~set specs in
  let key = Db.projection ~set key in
  let groups = ref VM.empty in
  iter_selected db ~set where (fun oid bytes ->
      let k = value_of db ~oid bytes key in
      let states =
        match VM.find_opt k !groups with
        | Some states -> states
        | None ->
            let states = fresh_states specs in
            groups := VM.add k states !groups;
            states
      in
      accumulate db ~who:"group_by" ~oid bytes specs states);
  VM.bindings !groups |> List.map (fun (k, states) -> (k, results specs states))

let delete_where db ~set where =
  let targets = matching_oids db ~set where in
  List.iter (fun oid -> Db.delete db ~set oid) targets;
  List.length targets

let retrieve_sorted db (q : Ast.retrieve) ~order_by ?(descending = false) ?limit () =
  let set = q.Ast.from_set in
  let order_by = Db.projection ~set order_by in
  let projections = List.map (Db.projection ~set) q.Ast.projections in
  let rows = ref [] in
  iter_selected db ~set q.Ast.where (fun oid bytes ->
      let key = value_of db ~oid bytes order_by in
      let values = List.map (value_of db ~oid bytes) projections in
      rows := (key, values) :: !rows);
  let compare_rows (a, _) (b, _) =
    let c = Value.compare a b in
    if descending then -c else c
  in
  let sorted = List.stable_sort compare_rows (List.rev !rows) in
  let truncated =
    match limit with
    | Some n -> List.filteri (fun i _ -> i < n) sorted
    | None -> sorted
  in
  List.map snd truncated

let replace db (q : Ast.replace) =
  let set = q.Ast.target_set in
  (* Materialise the target list before mutating.  Index-driven selection
     returns targets in key order — physically random when the set is
     unclustered — so under batching the updates are applied in ascending
     OID order instead: each data page (and each propagation fan-out) is
     visited once, sequentially, rather than re-fetched per key. *)
  let targets = matching_oids db ~set q.Ast.rwhere in
  let targets =
    if Db.batching db then List.sort Oid.compare targets else targets
  in
  List.iter
    (fun oid ->
      List.iter
        (fun (field, rhs) ->
          let value =
            match rhs with Ast.Const v -> v | Ast.Computed f -> f oid
          in
          Db.update_field db ~set oid ~field value)
        q.Ast.assignments)
    targets;
  List.length targets
