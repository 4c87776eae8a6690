module Wire = Fieldrep_util.Wire

type t = Int of int | String of string

let compare a b =
  match (a, b) with
  | Int x, Int y -> Stdlib.Int.compare x y
  | String x, String y -> Stdlib.String.compare x y
  | Int _, String _ -> -1
  | String _, Int _ -> 1

let equal a b = compare a b = 0

let same_variant a b =
  match (a, b) with
  | Int _, Int _ | String _, String _ -> true
  | Int _, String _ | String _, Int _ -> false

let pp fmt = function
  | Int v -> Format.fprintf fmt "%d" v
  | String s -> Format.fprintf fmt "%S" s

let to_string t = Format.asprintf "%a" pp t
let tag_int = 0
let tag_string = 1

let encoded_size = function
  | Int _ -> 1 + 8
  | String s -> 1 + Wire.string_size s

let encode buf off = function
  | Int v ->
      let off = Wire.put_u8 buf off tag_int in
      Wire.put_int buf off v
  | String s ->
      let off = Wire.put_u8 buf off tag_string in
      Wire.put_string buf off s

let bad_tag tag = raise (Wire.Corrupt (Printf.sprintf "Key: bad tag %d" tag))

let decode buf off =
  let tag, off = Wire.get_u8 buf off in
  if tag = tag_int then
    let v, off = Wire.get_int buf off in
    (Int v, off)
  else if tag = tag_string then
    let s, off = Wire.get_string buf off in
    (String s, off)
  else bad_tag tag

(* In-place reads: compare against or measure the encoding at [off]
   without building a [t].  Every byte read is bounds-checked first. *)

let tag_at buf off =
  Wire.check_bounds buf off 1;
  let tag = Bytes.get_uint8 buf off in
  if tag <> tag_int && tag <> tag_string then bad_tag tag;
  tag

let is_int_at buf off = tag_at buf off = tag_int

let size_at buf off =
  if tag_at buf off = tag_int then 1 + 8
  else begin
    Wire.check_bounds buf (off + 1) 2;
    1 + 2 + Bytes.get_uint16_le buf (off + 1)
  end

(* [String.compare] on the [len] bytes at [off] against [s]: bytewise
   unsigned, then shorter first. *)
let compare_bytes buf off len s =
  let n = String.length s in
  let m = min len n in
  let rec go i =
    if i >= m then Stdlib.Int.compare len n
    else
      let c = Char.compare (Bytes.unsafe_get buf (off + i)) (String.unsafe_get s i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let compare_at buf off probe =
  if tag_at buf off = tag_int then begin
    Wire.check_bounds buf (off + 1) 8;
    match probe with
    | Int v -> Stdlib.Int.compare (Int64.to_int (Bytes.get_int64_le buf (off + 1))) v
    | String _ -> -1
  end
  else begin
    Wire.check_bounds buf (off + 1) 2;
    let len = Bytes.get_uint16_le buf (off + 1) in
    Wire.check_bounds buf (off + 3) len;
    match probe with
    | Int _ -> 1
    | String s -> compare_bytes buf (off + 3) len s
  end

let min_int_key = Int min_int
