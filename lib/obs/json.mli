(** Minimal JSON tree and serializer.

    The bench reports must be machine-readable without adding a JSON
    dependency to the container, so this is a small, total emitter: no
    parsing, no streaming, just a tree and a printer producing canonical
    RFC 8259 output (objects keep insertion order so reports are
    schema-stable and diffable across runs). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite floats serialize as [null] *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val pp : Format.formatter -> t -> unit
(** Compact one-line output. *)

val to_string : t -> string
(** Two-space indented output, for files meant to be read by humans,
    with a trailing newline. *)

val to_file : string -> t -> unit
(** Write [to_string] to a file (truncating). *)

val check_writable : string -> (unit, string) result
(** Open [path] for writing without truncating it, removing it again if
    this created it: lets a CLI refuse a report path it cannot write
    before running the experiment the report would record.  [Error]
    carries the system message. *)
