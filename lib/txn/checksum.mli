(** CRC-32C (Castagnoli), used as the commit marker of a log record.

    The paper (Section 4.1) folds the transaction's commit status into the
    record checksum: a record whose checksum does not match its content was
    torn by a crash and marks the end of the valid log. *)

val crc32c : ?init:int -> bytes -> int
(** Checksum of a byte string, in [0, 2^32).  [init] chains computations
    over fragments. *)

val crc32c_word : int -> int -> int
(** [crc32c_word crc w] folds one 63-bit integer (as 8 LE bytes, the
    encoding of {!words}) into a finalized checksum: folding a word
    list with it from 0 equals [words] of that list.  This is the commit
    and log-scan hot path — one slicing-by-8 step, no buffer, no list,
    no boxing; {!words} stays as the differential-test oracle. *)

val crc32c_pair : int -> int -> int -> int
(** [crc32c_pair crc a b] is [crc32c_word (crc32c_word crc a) b] in one
    call: a log entry's two words (target and value, or a record's size
    and timestamp) folded back to back. *)

val words : int list -> int
(** Checksum of a list of 63-bit integers, each taken as 8 LE bytes.
    Convenient for records assembled from word-granular cells. *)
