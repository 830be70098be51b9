(** Byte addresses and cache-line arithmetic.

    The whole simulator uses plain [int] byte offsets into the persistent
    media image as addresses.  Cache lines are 64 bytes; pages are 4 KiB. *)

type t = int
(** A byte address inside the persistent memory image. *)

val line_size : int
(** Cache-line size in bytes (64). *)

val page_size : int
(** Page size in bytes (4096). *)

val word_size : int
(** Machine-word size in bytes (8); all scalar slots are 8-byte cells. *)

val line_of : t -> t
(** [line_of a] is the address of the first byte of [a]'s cache line. *)

val line_index : t -> int
(** [line_index a] is [a / line_size]. *)

val page_of : t -> t
(** [page_of a] is the address of the first byte of [a]'s page. *)

val page_index : t -> int
(** [page_index a] is [a / page_size]. *)

val is_word_aligned : t -> bool
(** Whether [a] is 8-byte aligned. *)

val align_up : t -> int -> t
(** [align_up a k] rounds [a] up to the next multiple of [k] ([k] a power
    of two). *)
