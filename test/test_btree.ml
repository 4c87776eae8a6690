(* Tests for the page-based B+-tree: ordering, duplicates, splits, deletes
   with rebalancing, range scans, bulk load, and model-based properties. *)

module Oid = Fieldrep_storage.Oid
module Pager = Fieldrep_storage.Pager
module Btree = Fieldrep_btree.Btree
module Key = Fieldrep_btree.Key
module Splitmix = Fieldrep_util.Splitmix

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let oid i = { Oid.file = 1; page = i / 100; slot = i mod 100 }
let mk_pager ?(page_size = 512) () = Pager.create ~page_size ~frames:64 ()

let mk_tree ?page_size ?max_leaf_entries ?max_internal_entries () =
  Btree.create ?max_leaf_entries ?max_internal_entries (mk_pager ?page_size ())

(* ------------------------------------------------------------------ *)
(* Key                                                                 *)

let test_key_roundtrip () =
  List.iter
    (fun k ->
      let buf = Bytes.create (Key.encoded_size k) in
      ignore (Key.encode buf 0 k);
      let k', off = Key.decode buf 0 in
      checkb "equal" true (Key.equal k k');
      checki "size" (Key.encoded_size k) off)
    [ Key.Int 0; Key.Int (-5); Key.Int max_int; Key.String ""; Key.String "salary" ]

let test_key_order () =
  checkb "int order" true (Key.compare (Key.Int 1) (Key.Int 2) < 0);
  checkb "string order" true (Key.compare (Key.String "a") (Key.String "b") < 0);
  checkb "same variant check" true (Key.same_variant (Key.Int 1) (Key.Int 9));
  checkb "cross variant check" false (Key.same_variant (Key.Int 1) (Key.String "x"))

(* ------------------------------------------------------------------ *)
(* Basic operations                                                    *)

let test_insert_find () =
  let t = mk_tree () in
  for i = 0 to 99 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  checki "count" 100 (Btree.entry_count t);
  for i = 0 to 99 do
    match Btree.find_first t (Key.Int i) with
    | Some o -> checkb "found right oid" true (Oid.equal o (oid i))
    | None -> Alcotest.failf "missing key %d" i
  done;
  checkb "absent key" true (Btree.find_first t (Key.Int 1000) = None);
  Btree.check_invariants t

let test_duplicate_keys () =
  let t = mk_tree () in
  for i = 0 to 9 do
    Btree.insert t (Key.Int 5) (oid i)
  done;
  let oids = Btree.find t (Key.Int 5) in
  checki "all duplicates found" 10 (List.length oids);
  (* Returned in OID order. *)
  let sorted = List.sort Oid.compare oids in
  checkb "oid order" true (List.equal Oid.equal oids sorted);
  Btree.check_invariants t

let test_duplicate_entry_rejected () =
  let t = mk_tree () in
  Btree.insert t (Key.Int 1) (oid 1);
  try
    Btree.insert t (Key.Int 1) (oid 1);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_mixed_variants_rejected () =
  let t = mk_tree () in
  Btree.insert t (Key.Int 1) (oid 1);
  try
    Btree.insert t (Key.String "x") (oid 2);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_string_keys () =
  let t = mk_tree () in
  let words = [ "zeta"; "alpha"; "mu"; "beta"; "omega"; "gamma" ] in
  List.iteri (fun i w -> Btree.insert t (Key.String w) (oid i)) words;
  let collected = ref [] in
  Btree.iter_all t (fun k _ -> collected := k :: !collected);
  let got = List.rev_map (function Key.String s -> s | Key.Int _ -> "?") !collected in
  Alcotest.(check (list string)) "sorted" (List.sort String.compare words) got;
  Btree.check_invariants t

(* ------------------------------------------------------------------ *)
(* Splits / height growth                                              *)

let test_split_growth () =
  let t = mk_tree ~page_size:256 () in
  checki "initial height" 1 (Btree.height t);
  for i = 0 to 499 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  checkb "grew" true (Btree.height t >= 3);
  Btree.check_invariants t;
  for i = 0 to 499 do
    checkb "all present" true (Btree.find_first t (Key.Int i) <> None)
  done

let test_capped_fanout () =
  let t = mk_tree ~max_leaf_entries:4 ~max_internal_entries:4 () in
  for i = 0 to 63 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  Btree.check_invariants t;
  (* With fanout <= 5 and 64 entries, height must be at least 3. *)
  checkb "height reflects cap" true (Btree.height t >= 3)

let test_reverse_and_random_insert_orders () =
  List.iter
    (fun order ->
      let t = mk_tree ~page_size:256 () in
      Array.iter (fun i -> Btree.insert t (Key.Int i) (oid i)) order;
      Btree.check_invariants t;
      let prev = ref min_int in
      Btree.iter_all t (fun k _ ->
          match k with
          | Key.Int v ->
              checkb "ascending" true (v > !prev);
              prev := v
          | Key.String _ -> Alcotest.fail "unexpected"))
    [
      Array.init 300 (fun i -> 299 - i);
      Splitmix.permutation (Splitmix.create 5) 300;
    ]

(* ------------------------------------------------------------------ *)
(* Range scans                                                         *)

let test_range_scan () =
  let t = mk_tree ~page_size:256 () in
  for i = 0 to 199 do
    Btree.insert t (Key.Int (2 * i)) (oid i)
  done;
  let seen =
    Btree.fold_range t ~lo:(Key.Int 100) ~hi:(Key.Int 120) ~init:[] ~f:(fun acc k _ ->
        k :: acc)
  in
  let expected = List.init 11 (fun i -> Key.Int (100 + (2 * i))) in
  Alcotest.(check (list string))
    "inclusive range"
    (List.map Key.to_string expected)
    (List.rev_map Key.to_string seen)

let test_range_scan_empty_and_degenerate () =
  let t = mk_tree () in
  Btree.iter_range t ~lo:(Key.Int 0) ~hi:(Key.Int 100) (fun _ _ ->
      Alcotest.fail "empty tree yields nothing");
  Btree.insert t (Key.Int 5) (oid 1);
  Btree.iter_range t ~lo:(Key.Int 10) ~hi:(Key.Int 0) (fun _ _ ->
      Alcotest.fail "inverted range yields nothing");
  let hits = ref 0 in
  Btree.iter_range t ~lo:(Key.Int 5) ~hi:(Key.Int 5) (fun _ _ -> incr hits);
  checki "point range" 1 !hits

let test_range_scan_spans_leaves () =
  let t = mk_tree ~max_leaf_entries:4 () in
  for i = 0 to 99 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  let count = ref 0 in
  Btree.iter_range t ~lo:(Key.Int 10) ~hi:(Key.Int 89) (fun _ _ -> incr count);
  checki "spans many leaves" 80 !count

(* ------------------------------------------------------------------ *)
(* Deletes                                                             *)

let test_delete_basic () =
  let t = mk_tree () in
  for i = 0 to 49 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  checkb "delete present" true (Btree.delete t (Key.Int 25) (oid 25));
  checkb "delete absent" false (Btree.delete t (Key.Int 25) (oid 25));
  checkb "gone" true (Btree.find_first t (Key.Int 25) = None);
  checki "count" 49 (Btree.entry_count t);
  Btree.check_invariants t

let test_delete_one_duplicate () =
  let t = mk_tree () in
  for i = 0 to 5 do
    Btree.insert t (Key.Int 7) (oid i)
  done;
  checkb "deleted" true (Btree.delete t (Key.Int 7) (oid 3));
  let remaining = Btree.find t (Key.Int 7) in
  checki "five left" 5 (List.length remaining);
  checkb "right one removed" false (List.exists (Oid.equal (oid 3)) remaining)

let test_delete_everything () =
  let t = mk_tree ~page_size:256 () in
  let n = 400 in
  for i = 0 to n - 1 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  let order = Splitmix.permutation (Splitmix.create 9) n in
  Array.iter (fun i -> checkb "deleted" true (Btree.delete t (Key.Int i) (oid i))) order;
  checki "empty" 0 (Btree.entry_count t);
  checki "height collapsed" 1 (Btree.height t);
  Btree.check_invariants t;
  (* Tree is reusable after being emptied. *)
  Btree.insert t (Key.Int 1) (oid 1);
  checkb "reusable" true (Btree.find_first t (Key.Int 1) <> None)

let test_delete_interleaved_with_insert () =
  let t = mk_tree ~page_size:256 () in
  let rng = Splitmix.create 21 in
  let model = Hashtbl.create 64 in
  for round = 0 to 1500 do
    let k = Splitmix.int rng 200 in
    if Splitmix.bool rng then begin
      if not (Hashtbl.mem model k) then begin
        Btree.insert t (Key.Int k) (oid k);
        Hashtbl.add model k ()
      end
    end
    else begin
      let present = Hashtbl.mem model k in
      let deleted = Btree.delete t (Key.Int k) (oid k) in
      checkb "delete agrees with model" present deleted;
      if present then Hashtbl.remove model k
    end;
    if round mod 300 = 0 then Btree.check_invariants t
  done;
  Btree.check_invariants t;
  checki "final count" (Hashtbl.length model) (Btree.entry_count t)

(* ------------------------------------------------------------------ *)
(* Bulk load                                                           *)

let test_bulk_load_matches_inserts () =
  let entries = Array.init 1000 (fun i -> (Key.Int (i * 3), oid i)) in
  let t = mk_tree ~page_size:256 () in
  (* Bulk load from a shuffled copy; internal sort must fix the order. *)
  let shuffled = Array.copy entries in
  Splitmix.shuffle (Splitmix.create 31) shuffled;
  Btree.bulk_load t shuffled;
  checki "count" 1000 (Btree.entry_count t);
  Btree.check_invariants t;
  Array.iter
    (fun (k, o) ->
      match Btree.find_first t k with
      | Some found -> checkb "present" true (Oid.equal found o)
      | None -> Alcotest.failf "missing %s" (Key.to_string k))
    entries

let test_bulk_load_empty_and_single () =
  let t = mk_tree () in
  Btree.bulk_load t [||];
  checki "empty" 0 (Btree.entry_count t);
  let t2 = mk_tree () in
  Btree.bulk_load t2 [| (Key.Int 9, oid 9) |];
  checki "single" 1 (Btree.entry_count t2);
  Btree.check_invariants t2

let test_bulk_load_rejects_nonempty () =
  let t = mk_tree () in
  Btree.insert t (Key.Int 1) (oid 1);
  try
    Btree.bulk_load t [| (Key.Int 2, oid 2) |];
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_bulk_load_then_mutate () =
  let t = mk_tree ~page_size:256 () in
  Btree.bulk_load t (Array.init 500 (fun i -> (Key.Int i, oid i)));
  for i = 500 to 599 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  for i = 0 to 99 do
    checkb "deleted" true (Btree.delete t (Key.Int i) (oid i))
  done;
  Btree.check_invariants t;
  checki "count" 500 (Btree.entry_count t)

(* ------------------------------------------------------------------ *)
(* I/O behaviour                                                       *)

let test_lookup_io_is_height_bound () =
  let pager = Pager.create ~page_size:512 ~frames:128 () in
  let t = Btree.create pager in
  for i = 0 to 4999 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  let h = Btree.height t in
  Pager.run_cold pager (fun () -> ignore (Btree.find_first t (Key.Int 2500)));
  let reads = (Pager.stats pager).Fieldrep_storage.Stats.page_reads in
  checkb "descent reads <= height + 1" true (reads <= h + 1)

(* The descent compares whole (key, OID) entries: a separator equal to
   the probe (key, smallest OID) routes right, straight to the leaf that
   holds the key, so every [find_first] touches one page per level. *)
let test_lookup_touches_one_page_per_level () =
  let pager = Pager.create ~page_size:512 ~frames:128 () in
  let t = Btree.create pager in
  let min_oid = { Oid.file = 0; page = 0; slot = 0 } in
  for i = 0 to 999 do
    Btree.insert t (Key.Int i) min_oid
  done;
  let h = Btree.height t in
  checkb "three or more levels" true (h >= 3);
  let stats = Pager.stats pager in
  for i = 0 to 999 do
    Fieldrep_storage.Stats.reset stats;
    ignore (Btree.find_first t (Key.Int i));
    checki "pages touched"
      h (stats.Fieldrep_storage.Stats.buffer_hits + stats.Fieldrep_storage.Stats.page_reads)
  done

(* Searches, inserts and deletes read the page bytes in place; damage
   must still surface as [Wire.Corrupt], never as an out-of-bounds read. *)
let test_search_rejects_corrupt_nodes () =
  let corrupted keys ~off ~byte probe =
    let ops =
      [
        ("find", fun t -> ignore (Btree.find t probe));
        ("insert", fun t -> Btree.insert t probe (oid 1000));
        ("delete", fun t -> ignore (Btree.delete t probe (oid 0)));
      ]
    in
    List.iter
      (fun (name, op) ->
        let pager = mk_pager () in
        let t = Btree.create pager in
        List.iteri (fun i k -> Btree.insert t k (oid i)) keys;
        Pager.with_page_write pager ~file:(Btree.file_id t) ~page:(Btree.root t) (fun buf ->
            Bytes.set_uint8 buf off byte);
        match op t with
        | () -> Alcotest.failf "%s: no Corrupt for byte %d at offset %d" name byte off
        | exception Fieldrep_util.Wire.Corrupt _ -> ())
      ops
  in
  let ints = List.init 10 (fun i -> Key.Int i) in
  let strings = List.map (fun s -> Key.String s) [ "ab"; "abc"; "b" ] in
  corrupted ints ~off:0 ~byte:7 (Key.Int 3) (* node tag *);
  corrupted ints ~off:7 ~byte:9 (Key.Int 3) (* first key tag *);
  corrupted strings ~off:7 ~byte:9 (Key.String "b");
  corrupted strings ~off:9 ~byte:0xff (Key.String "b") (* length past the page *)

(* Lookups search the pinned page bytes and decode only the entries they
   return, so a point lookup allocates a small, fixed number of words.
   Decoding every visited node into boxed entries costs thousands; this
   guard trips long before that.  Measured: 210 words per lookup, most of
   it the two buffer-pool pins. *)
let test_lookup_allocation_bound () =
  let t = Btree.create (Pager.create ~page_size:4096 ~frames:64 ()) in
  for i = 0 to 1999 do
    Btree.insert t (Key.Int i) (oid i)
  done;
  checki "two levels" 2 (Btree.height t);
  let lookups = 1000 in
  let before = Gc.minor_words () in
  for i = 0 to lookups - 1 do
    ignore (Btree.find t (Key.Int (2 * i)))
  done;
  let per_lookup = (Gc.minor_words () -. before) /. float_of_int lookups in
  if per_lookup > 420. then
    Alcotest.failf "Btree.find allocates %.0f words per lookup (bound 420)" per_lookup

(* A write touches one root-to-leaf path: the in-place descent pins each
   node once, the leaf is pinned again to edit it, and the parent is
   rewritten only when the leaf splits, underflows or loses its first
   entry.  So however many children the root has, a non-splitting insert
   and a non-rebalancing delete each touch at most height + 2 pages, and
   allocate a small, fixed number of words.  Measured: 230 words per
   insert and 240 per delete, about half of it the three buffer-pool
   pins; the bounds are twice that. *)
let test_write_path_cost () =
  let pager = Pager.create ~page_size:4096 ~frames:64 () in
  let t = Btree.create pager in
  for i = 0 to 2999 do
    Btree.insert t (Key.Int (2 * i)) (oid i)
  done;
  let h = Btree.height t in
  checki "two levels" 2 h;
  let leaves = Btree.leaf_count t in
  checkb "several leaves" true (leaves >= 8);
  let pages = Btree.page_count t in
  let stats = Pager.stats pager in
  let touched what f =
    Fieldrep_storage.Stats.reset stats;
    f ();
    let n = stats.Fieldrep_storage.Stats.buffer_hits + stats.Fieldrep_storage.Stats.page_reads in
    if n > h + 2 then Alcotest.failf "%s touched %d pages (bound %d)" what n (h + 2);
    n
  in
  (* Keys below 4,000 only: the last leaves are nearly full. *)
  for i = 0 to 499 do
    ignore (touched "insert" (fun () -> Btree.insert t (Key.Int ((8 * i) + 1)) (oid (10_000 + i))))
  done;
  (* Every fourth even key crosses leaf boundaries, so some deletes
     remove a leaf's first entry and refresh a separator. *)
  let refreshed = ref 0 in
  for i = 0 to 499 do
    if touched "delete" (fun () -> ignore (Btree.delete t (Key.Int (8 * i)) (oid (4 * i)))) = h + 2
    then incr refreshed
  done;
  checkb "some deletes refreshed a separator" true (!refreshed > 0);
  checki "no split or merge" pages (Btree.page_count t);
  checki "same leaves" leaves (Btree.leaf_count t);
  Btree.check_invariants t;
  let words_per n f =
    let before = Gc.minor_words () in
    for i = 0 to n - 1 do
      f i
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let per_insert =
    words_per 500 (fun i -> Btree.insert t (Key.Int ((8 * i) + 5)) (oid (20_000 + i)))
  in
  let per_delete =
    words_per 500 (fun i -> ignore (Btree.delete t (Key.Int ((8 * i) + 1)) (oid (10_000 + i))))
  in
  checki "still no split or merge" pages (Btree.page_count t);
  if per_insert > 460. then
    Alcotest.failf "Btree.insert allocates %.0f words per insert (bound 460)" per_insert;
  if per_delete > 480. then
    Alcotest.failf "Btree.delete allocates %.0f words per delete (bound 480)" per_delete

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

(* Keys that stress the in-place string comparison: the empty string,
   shared prefixes, and bytes >= 0x80 (unsigned order). *)
let string_key =
  let open QCheck.Gen in
  oneof
    [
      oneofl [ ""; "a"; "ab"; "abc"; "abd"; "\x80"; "ab\xff"; "\xff\xff" ];
      string_size ~gen:(oneofl [ '\x00'; 'a'; 'b'; '\x7f'; '\x80'; '\xff' ]) (0 -- 4);
    ]

(* Separators stay equal to their subtree's minimum through every delete,
   including the merges and rotations that move separators between
   internal nodes.  Small entry caps give trees of 3+ levels from a few
   dozen entries.  Three entries share each key, and their OIDs' file
   numbers straddle the sign bit of the packed form. *)
let separator_property ~name key_of =
  QCheck.Test.make ~name ~count:150
    QCheck.(
      triple (int_range 3 6) (int_range 3 6)
        (list_of_size Gen.(1 -- 300) (pair (int_range 0 59) bool)))
    (fun (leaf_cap, internal_cap, ops) ->
      let t = mk_tree ~max_leaf_entries:leaf_cap ~max_internal_entries:internal_cap () in
      let entry_oid i = { Oid.file = (i * 4099) land 0xffff; page = i; slot = 0 } in
      let present = Array.make 60 false in
      List.iter
        (fun (i, ins) ->
          let key = key_of (i / 3) in
          if ins then begin
            if not present.(i) then Btree.insert t key (entry_oid i);
            present.(i) <- true
          end
          else begin
            if Btree.delete t key (entry_oid i) <> present.(i) then
              QCheck.Test.fail_reportf "delete of entry %d returned the wrong result" i;
            present.(i) <- false;
            Btree.check_invariants t
          end)
        ops;
      List.for_all
        (fun k ->
          let want =
            List.filter (fun i -> present.(i)) [ 3 * k; (3 * k) + 1; (3 * k) + 2 ]
            |> List.map entry_oid |> List.sort Oid.compare
          in
          List.equal Oid.equal (Btree.find t (key_of k)) want)
        (List.init 20 Fun.id))

let qcheck_tests =
  let open QCheck in
  [
    separator_property ~name:"separators stay exact (Int keys)" (fun k -> Key.Int k);
    separator_property ~name:"separators stay exact (String keys)" (fun k ->
        Key.String (String.make (k mod 3) '\xff' ^ string_of_int k));
    Test.make ~name:"btree matches sorted-assoc model" ~count:40
      (list_of_size Gen.(1 -- 300) (pair (int_range 0 100) bool))
      (fun ops ->
        let t = mk_tree ~page_size:256 () in
        let model = Hashtbl.create 64 in
        List.iter
          (fun (k, ins) ->
            if ins then begin
              if not (Hashtbl.mem model k) then begin
                Btree.insert t (Key.Int k) (oid k);
                Hashtbl.add model k ()
              end
            end
            else begin
              ignore (Btree.delete t (Key.Int k) (oid k));
              Hashtbl.remove model k
            end)
          ops;
        Btree.check_invariants t;
        let expected = Hashtbl.fold (fun k () acc -> k :: acc) model [] in
        let expected = List.sort Int.compare expected in
        let got = ref [] in
        Btree.iter_all t (fun k _ ->
            match k with Key.Int v -> got := v :: !got | Key.String _ -> ());
        List.rev !got = expected);
    Test.make ~name:"range scan agrees with filter" ~count:40
      (triple (list_of_size Gen.(0 -- 150) (int_range 0 500)) (int_range 0 500) (int_range 0 500))
      (fun (keys, a, b) ->
        let lo = min a b and hi = max a b in
        let keys = List.sort_uniq Int.compare keys in
        let t = mk_tree ~page_size:256 () in
        List.iter (fun k -> Btree.insert t (Key.Int k) (oid k)) keys;
        let expected = List.filter (fun k -> k >= lo && k <= hi) keys in
        let got =
          Btree.fold_range t ~lo:(Key.Int lo) ~hi:(Key.Int hi) ~init:[] ~f:(fun acc k _ ->
              match k with Key.Int v -> v :: acc | Key.String _ -> acc)
        in
        List.rev got = expected);
    Test.make ~name:"string keys match sorted-assoc model" ~count:40
      (pair
         (list_of_size Gen.(60 -- 250) (pair (make string_key) (int_range 0 20)))
         (list_of_size Gen.(1 -- 30) (pair (make string_key) (make string_key))))
      (fun (entries, probes) ->
        let t = mk_tree ~page_size:256 ~max_leaf_entries:3 ~max_internal_entries:3 () in
        let compare_entry (k1, o1) (k2, o2) =
          match String.compare k1 k2 with 0 -> Int.compare o1 o2 | c -> c
        in
        let entries = List.sort_uniq compare_entry entries in
        List.iter (fun (k, o) -> Btree.insert t (Key.String k) (oid o)) entries;
        Btree.check_invariants t;
        if Btree.height t < 3 then Test.fail_reportf "expected 3+ levels, got %d" (Btree.height t);
        (* Delete every third entry so searches also run over merged and
           redistributed nodes. *)
        let model =
          List.filteri
            (fun i (k, o) -> i mod 3 <> 0 || not (Btree.delete t (Key.String k) (oid o)))
            entries
        in
        let oids_of k = List.filter_map (fun (k', o) -> if k = k' then Some (oid o) else None) model in
        let range lo hi =
          let acc = ref [] in
          Btree.iter_range t ~lo:(Key.String lo) ~hi:(Key.String hi) (fun k o ->
              match k with
              | Key.String s -> acc := (s, o) :: !acc
              | Key.Int _ -> Test.fail_report "Int key in a String tree");
          List.rev !acc
        in
        let probe_keys = List.concat_map (fun (a, b) -> [ a; b ]) probes @ List.map fst model in
        List.for_all
          (fun k ->
            let want = oids_of k in
            List.equal Oid.equal (Btree.find t (Key.String k)) want
            && Option.equal Oid.equal (Btree.find_first t (Key.String k)) (List.nth_opt want 0)
            && Btree.mem t (Key.String k) = (want <> []))
          probe_keys
        && List.for_all
             (fun (a, b) ->
               let want =
                 List.filter_map
                   (fun (k, o) ->
                     if String.compare a k <= 0 && String.compare k b <= 0 then Some (k, oid o)
                     else None)
                   model
               in
               let got = range a b in
               List.length got = List.length want
               && List.for_all2 (fun (k, o) (k', o') -> k = k' && Oid.equal o o') got want)
             probes);
    Test.make ~name:"bulk load equals incremental build" ~count:25
      (list_of_size Gen.(0 -- 400) (int_range 0 1000))
      (fun keys ->
        let keys = List.sort_uniq Int.compare keys in
        let incremental = mk_tree ~page_size:256 () in
        List.iter (fun k -> Btree.insert incremental (Key.Int k) (oid k)) keys;
        let bulk = mk_tree ~page_size:256 () in
        Btree.bulk_load bulk (Array.of_list (List.map (fun k -> (Key.Int k, oid k)) keys));
        Btree.check_invariants bulk;
        let dump t =
          let acc = ref [] in
          Btree.iter_all t (fun k o -> acc := (Key.to_string k, Oid.to_string o) :: !acc);
          List.rev !acc
        in
        dump incremental = dump bulk);
  ]

let () =
  Alcotest.run "fieldrep_btree"
    [
      ( "key",
        [
          Alcotest.test_case "roundtrip" `Quick test_key_roundtrip;
          Alcotest.test_case "order" `Quick test_key_order;
        ] );
      ( "basic",
        [
          Alcotest.test_case "insert/find" `Quick test_insert_find;
          Alcotest.test_case "duplicate keys" `Quick test_duplicate_keys;
          Alcotest.test_case "duplicate entries rejected" `Quick test_duplicate_entry_rejected;
          Alcotest.test_case "mixed variants rejected" `Quick test_mixed_variants_rejected;
          Alcotest.test_case "string keys" `Quick test_string_keys;
        ] );
      ( "splits",
        [
          Alcotest.test_case "height growth" `Quick test_split_growth;
          Alcotest.test_case "capped fanout" `Quick test_capped_fanout;
          Alcotest.test_case "insert orders" `Quick test_reverse_and_random_insert_orders;
        ] );
      ( "range",
        [
          Alcotest.test_case "inclusive scan" `Quick test_range_scan;
          Alcotest.test_case "empty/degenerate" `Quick test_range_scan_empty_and_degenerate;
          Alcotest.test_case "spans leaves" `Quick test_range_scan_spans_leaves;
        ] );
      ( "delete",
        [
          Alcotest.test_case "basic" `Quick test_delete_basic;
          Alcotest.test_case "one duplicate" `Quick test_delete_one_duplicate;
          Alcotest.test_case "delete everything" `Quick test_delete_everything;
          Alcotest.test_case "interleaved" `Quick test_delete_interleaved_with_insert;
        ] );
      ( "bulk_load",
        [
          Alcotest.test_case "matches inserts" `Quick test_bulk_load_matches_inserts;
          Alcotest.test_case "empty and single" `Quick test_bulk_load_empty_and_single;
          Alcotest.test_case "rejects non-empty" `Quick test_bulk_load_rejects_nonempty;
          Alcotest.test_case "mutate after load" `Quick test_bulk_load_then_mutate;
        ] );
      ( "io",
        [
          Alcotest.test_case "lookup bounded by height" `Quick test_lookup_io_is_height_bound;
          Alcotest.test_case "lookup touches one page per level" `Quick
            test_lookup_touches_one_page_per_level;
          Alcotest.test_case "lookup allocation bounded" `Quick test_lookup_allocation_bound;
          Alcotest.test_case "write path cost bounded" `Quick test_write_path_cost;
          Alcotest.test_case "corrupt nodes raise Corrupt" `Quick
            test_search_rejects_corrupt_nodes;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
