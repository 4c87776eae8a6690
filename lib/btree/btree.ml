module Wire = Fieldrep_util.Wire
module Listx = Fieldrep_util.Listx
module Oid = Fieldrep_storage.Oid
module Pager = Fieldrep_storage.Pager

type entry = Key.t * Oid.t

type node =
  | Leaf of { entries : entry array; next : int (* page, -1 = none *) }
  | Internal of { children : int array; seps : entry array }
      (* Array.length children = Array.length seps + 1; seps.(i) is the
         first entry of the subtree under children.(i + 1). *)

type t = {
  pager : Pager.t;
  file : int;
  mutable root : int;
  mutable count : int;
  mutable free_pages : int list;
  mutable key_witness : Key.t option;
  max_leaf : int;
  max_internal : int;
}

let min_oid = { Oid.file = 0; page = 0; slot = 0 }

let compare_entry (k1, o1) (k2, o2) =
  match Key.compare k1 k2 with 0 -> Oid.compare o1 o2 | c -> c

(* ------------------------------------------------------------------ *)
(* Node (de)serialization                                              *)

let tag_leaf = 0
let tag_internal = 1
let none_page = 0xffff_ffff

let entry_size (k, _) = Key.encoded_size k + Oid.encoded_size

let node_bytes = function
  | Leaf { entries; _ } ->
      Array.fold_left (fun acc e -> acc + entry_size e) (1 + 2 + 4) entries
  | Internal { children; seps } ->
      ignore children;
      Array.fold_left (fun acc e -> acc + entry_size e + 4) (1 + 2 + 4) seps

let write_entry buf off (k, o) =
  let off = Key.encode buf off k in
  Oid.encode buf off o

let read_entry buf off =
  let k, off = Key.decode buf off in
  let o, off = Oid.decode buf off in
  ((k, o), off)

let serialize node buf =
  match node with
  | Leaf { entries; next } ->
      let off = Wire.put_u8 buf 0 tag_leaf in
      let off = Wire.put_u16 buf off (Array.length entries) in
      let off = Wire.put_u32 buf off (if next < 0 then none_page else next) in
      ignore (Array.fold_left (fun off e -> write_entry buf off e) off entries)
  | Internal { children; seps } ->
      let off = Wire.put_u8 buf 0 tag_internal in
      let off = Wire.put_u16 buf off (Array.length seps) in
      let off = Wire.put_u32 buf off children.(0) in
      let off = ref off in
      Array.iteri
        (fun i sep ->
          off := write_entry buf !off sep;
          off := Wire.put_u32 buf !off children.(i + 1))
        seps;
      ignore !off

let deserialize buf =
  let tag, off = Wire.get_u8 buf 0 in
  if tag = tag_leaf then begin
    let n, off = Wire.get_u16 buf off in
    let next, off = Wire.get_u32 buf off in
    let next = if next = none_page then -1 else next in
    let cursor = ref off in
    let entries =
      Array.init n (fun _ ->
          let e, off = read_entry buf !cursor in
          cursor := off;
          e)
    in
    Leaf { entries; next }
  end
  else if tag = tag_internal then begin
    let n, off = Wire.get_u16 buf off in
    let child0, off = Wire.get_u32 buf off in
    let cursor = ref off in
    let seps = Array.make n (Key.Int 0, min_oid) in
    let children = Array.make (n + 1) child0 in
    for i = 0 to n - 1 do
      let sep, off = read_entry buf !cursor in
      let child, off = Wire.get_u32 buf off in
      seps.(i) <- sep;
      children.(i + 1) <- child;
      cursor := off
    done;
    Internal { children; seps }
  end
  else raise (Wire.Corrupt (Printf.sprintf "Btree: bad node tag %d" tag))

let read_node t page =
  Pager.with_page_read t.pager ~file:t.file ~page deserialize

let write_node t page node =
  Pager.with_page_write t.pager ~file:t.file ~page (fun buf -> serialize node buf)

let alloc_page t =
  match t.free_pages with
  | page :: rest ->
      t.free_pages <- rest;
      page
  | [] -> Pager.new_page t.pager ~file:t.file

let free_page t page = t.free_pages <- page :: t.free_pages

(* ------------------------------------------------------------------ *)
(* Capacity policy                                                     *)

let max_entries t = function
  | Leaf _ -> t.max_leaf
  | Internal _ -> t.max_internal

let entry_count_of = function
  | Leaf { entries; _ } -> Array.length entries
  | Internal { seps; _ } -> Array.length seps

let overfull t node =
  node_bytes node > Pager.page_size t.pager
  || entry_count_of node > max_entries t node

(* Minimum fill of a node with [n] entries in [bytes] serialized bytes:
   a quarter page without an entry cap; under a cap, ceil(cap/2) leaf
   entries, and ceil((cap+1)/2) children, i.e. cap/2 separators, per
   internal node. *)
let underfull_at t ~leaf ~n ~bytes =
  let cap = if leaf then t.max_leaf else t.max_internal in
  if cap = max_int then 4 * bytes < Pager.page_size t.pager
  else if leaf then n < (cap + 1) / 2
  else n < cap / 2

let underfull t node =
  let leaf = match node with Leaf _ -> true | Internal _ -> false in
  underfull_at t ~leaf ~n:(entry_count_of node) ~bytes:(node_bytes node)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create ?(max_leaf_entries = max_int) ?(max_internal_entries = max_int) pager =
  if max_leaf_entries < 2 || max_internal_entries < 2 then
    invalid_arg "Btree.create: entry caps must be >= 2";
  let file = Pager.create_file pager in
  let t =
    {
      pager;
      file;
      root = 0;
      count = 0;
      free_pages = [];
      key_witness = None;
      max_leaf = max_leaf_entries;
      max_internal = max_internal_entries;
    }
  in
  t.root <- alloc_page t;
  write_node t t.root (Leaf { entries = [||]; next = -1 });
  t

let file_id t = t.file
let root t = t.root
let entry_count t = t.count

let attach ?(max_leaf_entries = max_int) ?(max_internal_entries = max_int) pager
    ~file ~root ~count =
  let t =
    {
      pager;
      file;
      root;
      count;
      free_pages = [];
      key_witness = None;
      max_leaf = max_leaf_entries;
      max_internal = max_internal_entries;
    }
  in
  (* Recover the key variant from any entry. *)
  (try
     let rec first page =
       match read_node t page with
       | Leaf { entries; _ } ->
           if Array.length entries > 0 then t.key_witness <- Some (fst entries.(0))
       | Internal { children; _ } -> first children.(0)
     in
     first root
   (* Decode failures just mean no witness; storage faults (Corrupt_page,
      Read_error) must keep propagating to the scrub machinery. *)
   with Invalid_argument _ | Failure _ | Wire.Corrupt _ -> ());
  t
let page_count t = Pager.page_count t.pager t.file

let leaf_count t =
  let rec leftmost page =
    match read_node t page with
    | Leaf _ -> page
    | Internal { children; _ } -> leftmost children.(0)
  in
  let rec walk page acc =
    if page < 0 then acc
    else
      match read_node t page with
      | Leaf { next; _ } -> walk next (acc + 1)
      | Internal _ -> raise (Wire.Corrupt "Btree: leaf chain hits internal node")
  in
  walk (leftmost t.root) 0

let height t =
  let rec depth page =
    match read_node t page with
    | Leaf _ -> 1
    | Internal { children; _ } -> 1 + depth children.(0)
  in
  depth t.root

let check_key t key =
  match t.key_witness with
  | None -> t.key_witness <- Some key
  | Some witness ->
      if not (Key.same_variant witness key) then
        invalid_arg "Btree: mixed key variants in one tree"

(* ------------------------------------------------------------------ *)
(* Searching and editing page bytes                                    *)

(* Lookups, range scans and the insert/delete descent never build a
   [node]: they search the pinned page, comparing the probe against the
   key encoding ({!Key.compare_at}) and the packed OID, and decode only
   the entries they return.  A leaf insert or delete that needs no split
   or rebalance edits the leaf in place with one blit.  Splits, merges,
   redistribution and separator refreshes decode the node they change
   and keep the codec above.

   One tree holds one key variant ({!check_key}), so a node whose first
   key is an [Int] has a fixed entry stride and is binary-searched;
   String-key nodes are scanned linearly.  A probe is a key and a packed
   OID ({!Oid.to_int64}); lookups probe with [(lo, min_oid)].  Every
   search picks the entry a comparison of decoded entries would pick, so
   lookups visit the pages a decoding search would. *)

(* First position in [0, n) where the monotone [before] fails. *)
let partition_point n before =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if before mid then go (mid + 1) hi else go lo mid
  in
  go 0 n

let header_size = 1 + 2 + 4
let child_ptr_size = 4
let int_leaf_stride = Key.encoded_size Key.min_int_key + Oid.encoded_size
let int_internal_stride = int_leaf_stride + child_ptr_size
let min_packed = Oid.to_int64 min_oid

let corrupt msg = raise (Wire.Corrupt msg)

(* Tag of the node in [buf], after checking that its header is in bounds
   and the tag is known. *)
let node_tag buf =
  Wire.check_bounds buf 0 header_size;
  let tag = Bytes.get_uint8 buf 0 in
  if tag <> tag_leaf && tag <> tag_internal then
    corrupt (Printf.sprintf "Btree: bad node tag %d" tag);
  tag

let count_at buf = Bytes.get_uint16_le buf 1

(* Entry stride of a node with [n] entries, or 0 when the keys are
   strings.  A fixed-stride node is bounds-checked as a whole here. *)
let stride_of buf n ~int_stride =
  if n > 0 && Key.is_int_at buf header_size then begin
    Wire.check_bounds buf header_size (n * int_stride);
    int_stride
  end
  else 0

(* Every key a fixed-stride search lands on must be an [Int]. *)
let check_int buf off =
  if not (Key.is_int_at buf off) then corrupt "Btree: mixed key variants in node"

(* [Wire.get_u32] without allocating the (value, offset) pair. *)
let get_u32 buf off =
  Wire.check_bounds buf off 4;
  Int32.to_int (Bytes.get_int32_le buf off) land 0xffff_ffff

(* [compare_entry] of the entry at [off] against the probe [(key, oid)].
   Packed OIDs order as unsigned integers, which is {!Oid.compare}'s
   order. *)
let compare_entry_at buf off key oid =
  match Key.compare_at buf off key with
  | 0 ->
      let o = off + Key.size_at buf off in
      Wire.check_bounds buf o Oid.encoded_size;
      Int64.compare
        (Int64.sub (Bytes.get_int64_le buf o) Int64.min_int)
        (Int64.sub oid Int64.min_int)
  | c -> c

(* Child [idx] of an internal node: the pointer just before separator
   [idx], which starts at [off]. *)
let child_at buf idx off = get_u32 buf (if idx = 0 then 3 else off - child_ptr_size)

(* Index and page of the child of the internal node in [buf] whose range
   holds the probe: the child left of the first separator greater than
   it. *)
let child_for buf n key oid =
  match stride_of buf n ~int_stride:int_internal_stride with
  | 0 ->
      let rec scan i off =
        if i < n && compare_entry_at buf off key oid <= 0 then
          scan (i + 1) (off + Key.size_at buf off + Oid.encoded_size + child_ptr_size)
        else (i, child_at buf i off)
      in
      scan 0 header_size
  | stride ->
      let idx =
        partition_point n (fun i ->
            let off = header_size + (i * stride) in
            check_int buf off;
            compare_entry_at buf off key oid <= 0)
      in
      (idx, child_at buf idx (header_size + (idx * stride)))

(* Index and offset of the first entry >= the probe in the leaf in [buf];
   [n] and the end of the entries when there is none. *)
let lower_bound_at buf n key oid =
  match stride_of buf n ~int_stride:int_leaf_stride with
  | 0 ->
      let rec skip i off =
        if i < n && compare_entry_at buf off key oid < 0 then
          skip (i + 1) (off + Key.size_at buf off + Oid.encoded_size)
        else (i, off)
      in
      skip 0 header_size
  | stride ->
      let i =
        partition_point n (fun i ->
            let off = header_size + (i * stride) in
            check_int buf off;
            compare_entry_at buf off key oid < 0)
      in
      (i, header_size + (i * stride))

(* Offset just past the [n] entries of the node in [buf], going on from
   entry [i] at [off]; [ptr] is the child-pointer size each entry
   carries (0 in a leaf). *)
let entries_end buf n ~ptr i off =
  match stride_of buf n ~int_stride:(int_leaf_stride + ptr) with
  | 0 ->
      let rec go i off =
        if i >= n then off else go (i + 1) (off + Key.size_at buf off + Oid.encoded_size + ptr)
      in
      let stop = go i off in
      Wire.check_bounds buf header_size (stop - header_size);
      stop
  | stride -> header_size + (n * stride)

(* ------------------------------------------------------------------ *)
(* Lookups and range scans                                             *)

type visit =
  | Child of int
  | Run of entry list * int
      (* the leaf's in-range entries, in reverse order, and the next leaf
         to read, or -1 when the range ended on this one *)

(* In-range entries of the leaf in [buf], starting at the first entry >=
   [lo] ([first]) or at entry 0 (a leaf reached along the chain). *)
let scan_leaf buf n ~lo ~hi ~first =
  let next = get_u32 buf 3 in
  let next = if next = none_page then -1 else next in
  let rec collect i off acc =
    if i >= n then Run (acc, next)
    else if Key.compare_at buf off hi > 0 then Run (acc, -1)
    else
      let e, off' = read_entry buf off in
      collect (i + 1) off' (e :: acc)
  in
  if not first then collect 0 header_size []
  else
    let i, off = lower_bound_at buf n lo min_packed in
    collect i off []

let visit_page buf ~lo ~hi ~first =
  let tag = node_tag buf in
  let n = count_at buf in
  if tag = tag_leaf then scan_leaf buf n ~lo ~hi ~first
  else if first then Child (snd (child_for buf n lo min_packed))
  else corrupt "Btree: leaf chain hits internal node"

(* Walk entries in [lo, hi] starting from the leaf containing lo.  The
   callback runs after each leaf is unpinned. *)
let iter_range t ~lo ~hi f =
  let rec go page ~first =
    match
      Pager.with_page_read t.pager ~file:t.file ~page (fun buf -> visit_page buf ~lo ~hi ~first)
    with
    | Child page -> go page ~first
    | Run (rev_entries, next) ->
        List.iter (fun (k, o) -> f k o) (List.rev rev_entries);
        if next >= 0 then go next ~first:false
  in
  if Key.compare lo hi <= 0 then go t.root ~first:true

let fold_range t ~lo ~hi ~init ~f =
  let acc = ref init in
  iter_range t ~lo ~hi (fun k o -> acc := f !acc k o);
  !acc

let find t key =
  let acc = ref [] in
  iter_range t ~lo:key ~hi:key (fun _ o -> acc := o :: !acc);
  List.rev !acc

let find_first t key =
  let exception Found of Oid.t in
  try
    iter_range t ~lo:key ~hi:key (fun _ o -> raise (Found o));
    None
  with Found o -> Some o

let mem t key = Option.is_some (find_first t key)

let iter_all t f =
  (* Left-most leaf, then the chain. *)
  let rec leftmost page =
    match read_node t page with
    | Leaf _ -> page
    | Internal { children; _ } -> leftmost children.(0)
  in
  let rec walk page =
    if page >= 0 then
      match read_node t page with
      | Leaf { entries; next } ->
          Array.iter (fun (k, o) -> f k o) entries;
          walk next
      | Internal _ -> raise (Wire.Corrupt "Btree: leaf chain hits internal node")
  in
  walk (leftmost t.root)

(* ------------------------------------------------------------------ *)
(* Write descent                                                       *)

(* Inserts and deletes touch one root-to-leaf path.  Each internal node
   is read in place on the way down; on the way back up it is decoded
   and rewritten ({!update_internal}) only when it must change. *)

type 'a step =
  | Down of { idx : int; child : int; n : int; underfull : bool }
      (* the child to descend into, the node's separator count, and
         whether the node is underfull as it stands *)
  | At_leaf of 'a

(* One step toward the probe [(key, oid)] on the pinned [page]:
   [at_leaf buf n] when it is a leaf. *)
let step t page key oid ~at_leaf =
  Pager.with_page_read t.pager ~file:t.file ~page (fun buf ->
      let tag = node_tag buf in
      let n = count_at buf in
      if tag = tag_leaf then At_leaf (at_leaf buf n)
      else
        let idx, child = child_for buf n key oid in
        let bytes = entries_end buf n ~ptr:child_ptr_size 0 header_size in
        Down { idx; child; n; underfull = underfull_at t ~leaf:false ~n ~bytes })

(* Decode the internal node at [page], let [f] edit it, and write the
   node [f] returns back in the same pin. *)
let update_internal t page f =
  Pager.with_page_write t.pager ~file:t.file ~page (fun buf ->
      match deserialize buf with
      | Internal { children; seps } ->
          let node, result = f children seps in
          serialize node buf;
          result
      | Leaf _ -> corrupt "Btree: leaf where the descent read an internal node")

(* ------------------------------------------------------------------ *)
(* Insert                                                              *)

let array_insert arr i x =
  let n = Array.length arr in
  Array.init (n + 1) (fun j -> if j < i then arr.(j) else if j = i then x else arr.(j - 1))

let array_remove arr i =
  let n = Array.length arr in
  Array.init (n - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

(* Split index that balances the serialized byte size. *)
let split_by_bytes entries extra_per_entry =
  let total =
    Array.fold_left (fun acc e -> acc + entry_size e + extra_per_entry) 0 entries
  in
  let n = Array.length entries in
  let rec scan i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc + entry_size entries.(i) + extra_per_entry in
      if 2 * acc >= total then i + 1 else scan (i + 1) acc
  in
  max 1 (min (n - 1) (scan 0 0))

(* Under an entry cap the halves are balanced by count instead, so neither
   falls below the fill [underfull] checks: a leaf keeps ceil(n/2)
   entries; an internal node keeps n/2 separators and the next one moves
   up. *)
let leaf_split t entries =
  if t.max_leaf < max_int then max 1 ((Array.length entries + 1) / 2)
  else split_by_bytes entries 0

let internal_split t seps =
  if t.max_internal < max_int then max 1 (Array.length seps / 2)
  else split_by_bytes seps 4

(* Insert [entry], whose OID packs to [oid], into the leaf [page] pinned
   in [buf]: in place when it fits (the same test as [overfull]), else
   return the leaf's entries with it added, for the caller to split. *)
let leaf_insert t page buf n ((key, _) as entry) oid =
  let i, off = lower_bound_at buf n key oid in
  if i < n && compare_entry_at buf off key oid = 0 then
    invalid_arg "Btree.insert: duplicate (key, oid) entry";
  let stop = entries_end buf n ~ptr:0 i off in
  let size = entry_size entry in
  if n < t.max_leaf && stop + size <= Pager.page_size t.pager then begin
    Pager.with_page_write t.pager ~file:t.file ~page (fun buf ->
        Bytes.blit buf off buf (off + size) (stop - off);
        ignore (write_entry buf off entry);
        Bytes.set_uint16_le buf 1 (n + 1));
    None
  end
  else
    match deserialize buf with
    | Leaf { entries; next } -> Some (array_insert entries i entry, next)
    | Internal _ -> corrupt "Btree: internal node where the descent read a leaf"

(* Returns [Some (sep, right_page)] when the node split. *)
let rec insert_rec t page entry oid =
  match step t page (fst entry) oid ~at_leaf:(fun buf n -> leaf_insert t page buf n entry oid) with
  | At_leaf None -> None
  | At_leaf (Some (entries, next)) ->
      let split = leaf_split t entries in
      let left = Array.sub entries 0 split in
      let right = Array.sub entries split (Array.length entries - split) in
      let right_page = alloc_page t in
      write_node t right_page (Leaf { entries = right; next });
      write_node t page (Leaf { entries = left; next = right_page });
      Some (right.(0), right_page)
  | Down { idx; child; _ } -> (
      match insert_rec t child entry oid with
      | None -> None
      | Some (sep, new_child) ->
          update_internal t page (fun children seps ->
              let seps = array_insert seps idx sep in
              let children = array_insert children (idx + 1) new_child in
              let node = Internal { children; seps } in
              if not (overfull t node) then (node, None)
              else begin
                (* Promote the separator at the split point ("move up"). *)
                let split = internal_split t seps in
                let promoted = seps.(split) in
                let left_seps = Array.sub seps 0 split in
                let right_seps = Array.sub seps (split + 1) (Array.length seps - split - 1) in
                let left_children = Array.sub children 0 (split + 1) in
                let right_children =
                  Array.sub children (split + 1) (Array.length children - split - 1)
                in
                let right_page = alloc_page t in
                write_node t right_page (Internal { children = right_children; seps = right_seps });
                ( Internal { children = left_children; seps = left_seps },
                  Some (promoted, right_page) )
              end))

let insert t key oid =
  check_key t key;
  (match insert_rec t t.root (key, oid) (Oid.to_int64 oid) with
  | None -> ()
  | Some (sep, right_page) ->
      (* Root split: move the old root to a fresh page and make the root an
         internal node, so t.root stays stable. *)
      let old_root = read_node t t.root in
      let moved = alloc_page t in
      write_node t moved old_root;
      write_node t t.root (Internal { children = [| moved; right_page |]; seps = [| sep |] }));
  t.count <- t.count + 1

(* ------------------------------------------------------------------ *)
(* Delete                                                              *)

(* Separators stay equal to their subtree's minimum.  A delete reports
   how it changed the minimum of the subtree it ran in, and the parent
   refreshes the one separator into that subtree before it rebalances,
   so merges and rotations only ever move exact separators. *)
type min_change =
  | Same_min
  | New_min of entry
  | Emptied  (* the subtree holds no entries until its parent rebalances it *)

type removal =
  | Missing
  | Removed of { min : min_change; underfull : bool; count : int }
      (* the node's new fill, and its entry (leaf) or separator count *)

(* Merge or redistribute the underfull children.(idx) with a sibling.
   Returns the rewritten parent, or the same node when there is no
   sibling to take from. *)
let rebalance_child t ~children ~seps idx =
  let node = Internal { children; seps } in
  (* Prefer the right sibling; fall back to the left one. *)
  let sib_idx = if idx + 1 <= Array.length seps then idx + 1 else idx - 1 in
  if sib_idx < 0 then node
  else begin
    let left_idx = min idx sib_idx in
    let right_idx = max idx sib_idx in
    let left_page = children.(left_idx) in
    let right_page = children.(right_idx) in
    let left = read_node t left_page in
    let right = read_node t right_page in
    let merged =
      match (left, right) with
      | Leaf a, Leaf b -> Some (Leaf { entries = Array.append a.entries b.entries; next = b.next })
      | Internal a, Internal b ->
          Some
            (Internal
               {
                 children = Array.append a.children b.children;
                 seps = Array.concat [ a.seps; [| seps.(left_idx) |]; b.seps ];
               })
      | Leaf _, Internal _ | Internal _, Leaf _ -> None
    in
    match merged with
    | Some m when not (overfull t m) ->
        write_node t left_page m;
        free_page t right_page;
        Internal { children = array_remove children right_idx; seps = array_remove seps left_idx }
    | Some _ | None -> (
        (* Merge impossible: redistribute the combined content evenly by
           serialized size, which lifts the underfull side above threshold
           in one step. *)
        match (left, right) with
        | Leaf a, Leaf b ->
            let combined = Array.append a.entries b.entries in
            if Array.length combined < 2 then node
            else begin
              let split = leaf_split t combined in
              let l = Array.sub combined 0 split in
              let r = Array.sub combined split (Array.length combined - split) in
              write_node t left_page (Leaf { entries = l; next = a.next });
              write_node t right_page (Leaf { entries = r; next = b.next });
              seps.(left_idx) <- r.(0);
              node
            end
        | Internal a, Internal b ->
            (* Rotate through the parent separator: combined separator list
               is a.seps ++ [parent sep] ++ b.seps. *)
            let all_children = Array.append a.children b.children in
            let all_seps = Array.concat [ a.seps; [| seps.(left_idx) |]; b.seps ] in
            if Array.length all_seps < 2 then node
            else begin
              let split = internal_split t all_seps in
              write_node t left_page
                (Internal
                   {
                     children = Array.sub all_children 0 (split + 1);
                     seps = Array.sub all_seps 0 split;
                   });
              write_node t right_page
                (Internal
                   {
                     children =
                       Array.sub all_children (split + 1) (Array.length all_children - split - 1);
                     seps = Array.sub all_seps (split + 1) (Array.length all_seps - split - 1);
                   });
              seps.(left_idx) <- all_seps.(split);
              node
            end
        | Leaf _, Internal _ | Internal _, Leaf _ ->
            raise (Wire.Corrupt "Btree: siblings at different depths"))
  end

(* Remove the entry at the probe from the leaf [page] pinned in [buf]:
   one blit closes the gap. *)
let leaf_remove t page buf n key oid =
  let i, off = lower_bound_at buf n key oid in
  if i >= n || compare_entry_at buf off key oid <> 0 then Missing
  else begin
    let stop = entries_end buf n ~ptr:0 i off in
    let size = Key.size_at buf off + Oid.encoded_size in
    Pager.with_page_write t.pager ~file:t.file ~page (fun buf ->
        Bytes.blit buf (off + size) buf off (stop - off - size);
        Bytes.set_uint16_le buf 1 (n - 1));
    let min =
      if i > 0 then Same_min
      else if n = 1 then Emptied
      else New_min (fst (read_entry buf header_size))
    in
    Removed
      { min; underfull = underfull_at t ~leaf:true ~n:(n - 1) ~bytes:(stop - size); count = n - 1 }
  end

let rec delete_rec t page key oid =
  match step t page key oid ~at_leaf:(fun buf n -> leaf_remove t page buf n key oid) with
  | At_leaf removal -> removal
  | Down d -> (
      match delete_rec t d.child key oid with
      | Missing -> Missing
      | Removed r ->
          let stale = match r.min with Same_min -> false | New_min _ | Emptied -> d.idx > 0 in
          if not (stale || r.underfull) then
            Removed { min = r.min; underfull = d.underfull; count = d.n }
          else
            update_internal t page (fun children seps ->
                let idx = d.idx in
                let min =
                  match r.min with
                  | New_min e when idx > 0 ->
                      seps.(idx - 1) <- e;
                      Same_min
                  | Emptied when idx > 0 ->
                      (* The empty child merges with its right sibling, if
                         any, and that removes the sibling's separator: this
                         one takes its value. *)
                      if idx < Array.length seps then seps.(idx - 1) <- seps.(idx);
                      Same_min
                  | Emptied when Array.length seps > 0 ->
                      (* The empty first child merges with the second, whose
                         minimum becomes this node's. *)
                      New_min seps.(0)
                  | m -> m
                in
                let node =
                  if r.underfull then rebalance_child t ~children ~seps idx
                  else Internal { children; seps }
                in
                (node, Removed { min; underfull = underfull t node; count = entry_count_of node })))

(* Collapse a root with a single child into it. *)
let rec collapse_root t =
  match read_node t t.root with
  | Internal { children; seps } when Array.length seps = 0 ->
      write_node t t.root (read_node t children.(0));
      free_page t children.(0);
      collapse_root t
  | Internal _ | Leaf _ -> ()

let delete t key oid =
  match delete_rec t t.root key (Oid.to_int64 oid) with
  | Missing -> false
  | Removed { count; _ } ->
      t.count <- t.count - 1;
      if count = 0 then collapse_root t;
      true

(* ------------------------------------------------------------------ *)
(* Bulk load                                                           *)

let bulk_load t entries =
  if t.count <> 0 then invalid_arg "Btree.bulk_load: tree not empty";
  let entries = Array.copy entries in
  Array.sort compare_entry entries;
  Array.iter (fun (k, _) -> check_key t k) entries;
  (match
     Array.exists
       (fun i -> compare_entry entries.(i) entries.(i + 1) = 0)
       (Array.init (max 0 (Array.length entries - 1)) (fun i -> i))
   with
  | true -> invalid_arg "Btree.bulk_load: duplicate (key, oid) entry"
  | false -> ());
  let n = Array.length entries in
  if n = 0 then ()
  else begin
    let page_budget = Pager.page_size t.pager - (1 + 2 + 4) in
    (* Chunk into leaves under both the byte and entry-count budgets. *)
    let leaves = ref [] in
    let start = ref 0 in
    while !start < n do
      let bytes = ref 0 in
      let stop = ref !start in
      while
        !stop < n
        && !stop - !start < t.max_leaf
        && !bytes + entry_size entries.(!stop) <= page_budget
      do
        bytes := !bytes + entry_size entries.(!stop);
        incr stop
      done;
      assert (!stop > !start);
      leaves := (Array.sub entries !start (!stop - !start)) :: !leaves;
      start := !stop
    done;
    let leaves = Array.of_list (List.rev !leaves) in
    let nleaves = Array.length leaves in
    (* First leaf must live in t.root if it is the only node; otherwise
       leaves get their own pages and the root becomes internal. *)
    if nleaves = 1 then begin
      write_node t t.root (Leaf { entries = leaves.(0); next = -1 });
      t.count <- n
    end
    else begin
      let leaf_pages = Array.map (fun _ -> alloc_page t) leaves in
      Array.iteri
        (fun i chunk ->
          let next = if i + 1 < nleaves then leaf_pages.(i + 1) else -1 in
          write_node t leaf_pages.(i) (Leaf { entries = chunk; next }))
        leaves;
      (* Build internal levels bottom-up. *)
      let rec build (pages : int array) (firsts : entry array) =
        if Array.length pages = 1 then pages.(0)
        else begin
          let groups = ref [] in
          let start = ref 0 in
          let m = Array.length pages in
          while !start < m do
            let bytes = ref 0 in
            let stop = ref !start in
            while
              !stop < m
              && !stop - !start <= t.max_internal
              && (!stop = !start
                 || !bytes + entry_size firsts.(!stop) + 4 <= page_budget - 4)
            do
              if !stop > !start then
                bytes := !bytes + entry_size firsts.(!stop) + 4;
              incr stop
            done;
            (* Never leave a singleton tail: steal one from this group. *)
            if !stop < m && m - !stop = 1 && !stop - !start > 1 then decr stop;
            groups := (!start, !stop) :: !groups;
            start := !stop
          done;
          let groups = List.rev !groups in
          let parent_pages =
            List.map
              (fun (a, b) ->
                let children = Array.sub pages a (b - a) in
                let seps = Array.sub firsts (a + 1) (b - a - 1) in
                let page = alloc_page t in
                write_node t page (Internal { children; seps });
                page)
              groups
          in
          let parent_firsts = List.map (fun (a, _) -> firsts.(a)) groups in
          build (Array.of_list parent_pages) (Array.of_list parent_firsts)
        end
      in
      let firsts = Array.map (fun chunk -> chunk.(0)) leaves in
      let top = build leaf_pages firsts in
      let top_node = read_node t top in
      write_node t t.root top_node;
      free_page t top;
      t.count <- n
    end
  end

(* ------------------------------------------------------------------ *)
(* Invariant checking                                                  *)

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let leaf_chain = ref [] in
  (* [rightmost] nodes (the right spine) may be underfull: bulk loading
     leaves a short tail there, which is standard for B+-trees. *)
  let rec check page ~is_root ~rightmost =
    match read_node t page with
    | Leaf { entries; _ } ->
        let n = Array.length entries in
        for i = 0 to n - 2 do
          if compare_entry entries.(i) entries.(i + 1) >= 0 then
            fail "leaf %d: entries out of order at %d" page i
        done;
        if (not is_root) && (not rightmost) && underfull t (Leaf { entries; next = -1 })
        then fail "leaf %d: underfull (%d entries)" page n;
        if node_bytes (Leaf { entries; next = -1 }) > Pager.page_size t.pager then
          fail "leaf %d: overfull" page;
        leaf_chain := page :: !leaf_chain;
        (1, (if n = 0 then None else Some (entries.(0), entries.(n - 1))), n)
    | Internal { children; seps } as node ->
        if Array.length children <> Array.length seps + 1 then
          fail "internal %d: child/separator arity mismatch" page;
        if (not is_root) && (not rightmost) && underfull t node then
          fail "internal %d: underfull" page;
        if node_bytes node > Pager.page_size t.pager then fail "internal %d: overfull" page;
        let last = Array.length children - 1 in
        let results =
          Array.mapi
            (fun i c -> check c ~is_root:false ~rightmost:(rightmost && i = last))
            children
        in
        let depth0, _, _ = results.(0) in
        Array.iteri
          (fun i (d, _, _) ->
            if d <> depth0 then fail "internal %d: uneven depth at child %d" page i)
          results;
        Array.iteri
          (fun i sep ->
            let _, bounds, _ = results.(i + 1) in
            (match bounds with
            | Some (lo, _) ->
                if compare_entry sep lo <> 0 then
                  fail "internal %d: separator %d does not match subtree minimum" page i
            | None -> ());
            let _, left_bounds, _ = results.(i) in
            match left_bounds with
            | Some (_, hi) ->
                if compare_entry hi sep >= 0 then
                  fail "internal %d: left subtree exceeds separator %d" page i
            | None -> ())
          seps;
        let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 results in
        let bounds =
          let lows = Array.to_list results |> List.filter_map (fun (_, b, _) -> b) in
          match lows with
          | [] -> None
          | (lo, _) :: _ ->
              let _, hi = Listx.last_exn ~what:"Btree: empty bounds" lows in
              Some (lo, hi)
        in
        (depth0 + 1, bounds, total)
  in
  let _, _, total = check t.root ~is_root:true ~rightmost:true in
  if total <> t.count then
    fail "entry count mismatch: counted %d, cached %d" total t.count;
  (* The left-to-right leaf order discovered by the recursion must agree
     with the next-pointer chain. *)
  let in_order = List.rev !leaf_chain in
  let rec chain page acc =
    if page < 0 then List.rev acc
    else
      match read_node t page with
      | Leaf { next; _ } -> chain next (page :: acc)
      | Internal _ -> fail "leaf chain reaches internal node %d" page
  in
  match in_order with
  | [] -> ()
  | first :: _ ->
      let chained = chain first [] in
      if chained <> in_order then fail "leaf chain disagrees with tree order"
