module Wire = Fieldrep_util.Wire
module Oid = Fieldrep_storage.Oid

type link = { link_oid : Oid.t; link_id : int }
type t = { type_tag : int; links : link list; values : Value.t array }

let sort_links links =
  List.sort_uniq (fun a b -> Int.compare a.link_id b.link_id) links

let make ~type_tag values = { type_tag; links = []; values }

let field t i =
  if i < 0 || i >= Array.length t.values then
    invalid_arg (Printf.sprintf "Record.field: index %d of %d" i (Array.length t.values));
  t.values.(i)

let set_field t i v =
  if i < 0 || i >= Array.length t.values then
    invalid_arg (Printf.sprintf "Record.set_field: index %d of %d" i (Array.length t.values));
  let values = Array.copy t.values in
  values.(i) <- v;
  { t with values }

let with_links t links = { t with links = sort_links links }
let find_link t id = List.find_opt (fun l -> l.link_id = id) t.links

let add_link t link =
  let links = List.filter (fun l -> l.link_id <> link.link_id) t.links in
  { t with links = sort_links (link :: links) }

let remove_link t id =
  { t with links = List.filter (fun l -> l.link_id <> id) t.links }

let encoded_size t =
  2 + 1
  + (List.length t.links * (Oid.encoded_size + 1))
  + 2
  + Array.fold_left (fun acc v -> acc + Value.encoded_size v) 0 t.values

let encode t =
  let buf = Bytes.create (encoded_size t) in
  let off = Wire.put_u16 buf 0 t.type_tag in
  let off = Wire.put_u8 buf off (List.length t.links) in
  let off =
    List.fold_left
      (fun off l ->
        let off = Oid.encode buf off l.link_oid in
        Wire.put_u8 buf off l.link_id)
      off t.links
  in
  let off = Wire.put_u16 buf off (Array.length t.values) in
  let off = Array.fold_left (fun off v -> Value.encode buf off v) off t.values in
  assert (off = Bytes.length buf);
  buf

let decode buf =
  let type_tag, off = Wire.get_u16 buf 0 in
  let nlinks, off = Wire.get_u8 buf off in
  let cursor = ref off in
  let links =
    List.init nlinks (fun _ ->
        let link_oid, off = Oid.decode buf !cursor in
        let link_id, off = Wire.get_u8 buf off in
        cursor := off;
        { link_oid; link_id })
  in
  let nvalues, off = Wire.get_u16 buf !cursor in
  cursor := off;
  let values =
    Array.init nvalues (fun _ ->
        let v, off = Value.decode buf !cursor in
        cursor := off;
        v)
  in
  { type_tag; links; values }

let type_tag_of_bytes buf = fst (Wire.get_u16 buf 0)

(* The record view: positions inside the encoding, found by skipping the
   link section and the values before [i] by their lengths alone. *)
let value_offset buf i =
  if i < 0 then invalid_arg (Printf.sprintf "Record.value_offset: index %d" i);
  Wire.check_bounds buf 0 3;
  let count_at = 3 + (Bytes.get_uint8 buf 2 * (Oid.encoded_size + 1)) in
  Wire.check_bounds buf count_at 2;
  if i >= Bytes.get_uint16_le buf count_at then -1
  else begin
    let off = ref (count_at + 2) in
    for _ = 1 to i do
      off := Value.encoded_end buf !off
    done;
    !off
  end

let value_of_bytes buf i =
  let off = value_offset buf i in
  if off < 0 then Value.VNull else fst (Value.decode buf off)

let of_value_slices ~type_tag srcs offs lens =
  let n = Array.length srcs in
  let size = ref (2 + 1 + 2) in
  for i = 0 to n - 1 do
    size := !size + lens.(i)
  done;
  let buf = Bytes.create !size in
  let off = Wire.put_u16 buf 0 type_tag in
  let off = Wire.put_u8 buf off 0 in
  let off = ref (Wire.put_u16 buf off n) in
  for i = 0 to n - 1 do
    Bytes.blit srcs.(i) offs.(i) buf !off lens.(i);
    off := !off + lens.(i)
  done;
  buf

let pp fmt t =
  Format.fprintf fmt "@[<hov 2>{tag=%d;@ links=[%a];@ values=[%a]}@]" t.type_tag
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ")
       (fun fmt l -> Format.fprintf fmt "(%a,#%d)" Oid.pp l.link_oid l.link_id))
    t.links
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ")
       Value.pp)
    (Array.to_list t.values)
