(** Index keys.

    The paper's model indexes scalar fields; we support integer and string
    keys.  A single tree holds keys of one variant only (enforced by
    {!Btree}). *)

type t = Int of int | String of string

val compare : t -> t -> int
(** Total order within a variant; [Int _ < String _] across variants (never
    exercised by a well-formed tree, but keeps [compare] total). *)

val equal : t -> t -> bool
val same_variant : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val encoded_size : t -> int
val encode : Bytes.t -> int -> t -> int
val decode : Bytes.t -> int -> t * int

(** {2 In-place reads}

    Read-only B+-tree search compares probes against node pages without
    decoding them.  Each reader bounds-checks the bytes it touches and
    raises {!Fieldrep_util.Wire.Corrupt} on a bad tag, like {!decode}. *)

val compare_at : Bytes.t -> int -> t -> int
(** [compare_at buf off k] is [compare (fst (decode buf off)) k], without
    allocating. *)

val size_at : Bytes.t -> int -> int
(** Encoded size of the key at [off]. *)

val is_int_at : Bytes.t -> int -> bool
(** Whether the key at [off] is an [Int]. *)

val min_int_key : t
(** Smallest possible [Int] key. *)
