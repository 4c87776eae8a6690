(** Checksums, one function per input shape.

    Pages are long, fixed-length and read on every physical transfer, so
    they get a word-at-a-time function with a 63-bit result that costs
    about as much as the syscalls that move the page.  WAL frames and
    replication envelopes are short, variable-length and carry a u32 field,
    so they keep byte-at-a-time FNV-1a: their bytes on disk and on the wire
    do not change. *)

val page : Bytes.t -> int -> int -> int
(** [page bytes off len] is the checksum of a page image, as stored in the
    disk's 8-byte page trailer.  Four independent xor-multiply lanes over
    little-endian 64-bit loads (each load split into two 32-bit words), then
    a fold into one 63-bit native int; any [len] is accepted, the last
    [len mod 16] bytes going through a word and a byte tail.  Every lane
    step and fold step is a bijection in the word it absorbs, so a change
    confined to one 32-bit word of the slice (counted from [off]) is always
    detected — in particular every single-bit and single-byte change.
    Allocates nothing.  Raises [Invalid_argument] if [off, len] is not a
    valid slice of [bytes]. *)

val fnv1a32 : Bytes.t -> int -> int -> int
(** [fnv1a32 bytes off len] is the 32-bit FNV-1a hash of [len] bytes
    starting at [off]: WAL frame CRCs and replication envelope checksums.
    Raises [Invalid_argument] if [off, len] is not a valid slice of
    [bytes]. *)
