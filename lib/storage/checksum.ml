(* Two checksums, one per input shape.  Both are pure functions of the
   bytes, so a mismatch means the bytes changed. *)

let check_slice ~fn bytes off len =
  if off < 0 || len < 0 || off > Bytes.length bytes - len then
    invalid_arg
      (Printf.sprintf "Checksum.%s: slice %d+%d out of bounds (length %d)" fn
         off len (Bytes.length bytes))

(* 32-bit FNV-1a.  The low 32 bits of a product depend only on the low 32
   bits of its operands, and xor with a byte touches only the low 8, so the
   hash can run in the full native int and be truncated once at the end. *)
let fnv1a32 bytes off len =
  check_slice ~fn:"fnv1a32" bytes off len;
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get bytes i)) * 0x01000193
  done;
  !h land 0xffffffff

(* Page checksum: four independent xor-multiply lanes, so the multiply
   latencies overlap.  Each 16-byte block is two little-endian 64-bit
   loads, split into four 32-bit words, one per lane.  A lane step
   [h -> (h lxor w) * k] with [k] odd is a bijection of the 63-bit native
   int in [h] and in [w]; the fold at the end is a chain of steps of the
   same kind.  So a change confined to one 32-bit word changes exactly one
   lane, and every later step carries the difference to the result.  The
   words are 32 bits, not 63, because a multiply carries a difference only
   upward: with whole 63-bit words, a flip of bit 62 in two words of one
   lane would cancel. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external swap64 : int64 -> int64 = "%bswap_int64"
external swap32 : int32 -> int32 = "%bswap_int32"

let k0 = 0x1f3d5b79a2c4e687
let k1 = 0x2b5e8f1d4c7a9363
let k2 = 0x35a7c9e1f2b4d86b
let k3 = 0x0c6f1e9a3d5b7e4d

let page bytes off len =
  check_slice ~fn:"page" bytes off len;
  let a = ref k0 and b = ref k1 and c = ref k2 and d = ref k3 in
  let i = ref off in
  let blocks_end = off + (len land lnot 15) in
  while !i < blocks_end do
    let x = if Sys.big_endian then swap64 (get64u bytes !i) else get64u bytes !i in
    let y =
      if Sys.big_endian then swap64 (get64u bytes (!i + 8))
      else get64u bytes (!i + 8)
    in
    a := (!a lxor (Int64.to_int x land 0xffff_ffff)) * k0;
    b := (!b lxor Int64.to_int (Int64.shift_right_logical x 32)) * k1;
    c := (!c lxor (Int64.to_int y land 0xffff_ffff)) * k2;
    d := (!d lxor Int64.to_int (Int64.shift_right_logical y 32)) * k3;
    i := !i + 16
  done;
  (* Tail of a page size that is not a multiple of 16: whole 32-bit words
     into lane [a], then the last 0-3 bytes as one word into lane [b]. *)
  let stop = off + len in
  while !i + 4 <= stop do
    let w = if Sys.big_endian then swap32 (get32u bytes !i) else get32u bytes !i in
    a := (!a lxor (Int32.to_int w land 0xffff_ffff)) * k0;
    i := !i + 4
  done;
  if !i < stop then begin
    let w = ref (stop - !i) in
    for j = !i to stop - 1 do
      w := !w lor (Char.code (Bytes.unsafe_get bytes j) lsl (8 * (j - !i + 1)))
    done;
    b := (!b lxor !w) * k1
  end;
  (* Fold: each step is bijective in the lane it absorbs; the xor-shifts
     carry high bits down so low result bits depend on every input bit. *)
  let step h x =
    let h = (h lxor x) * k3 in
    h lxor (h lsr 29)
  in
  step (step (step (step (len * k2) !a) !b) !c) !d
