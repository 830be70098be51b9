type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.string ppf (float_repr f)
  | Str s -> Fmt.pf ppf "\"%s\"" (escape s)
  | List l ->
      Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any ",") pp) l
  | Obj kvs ->
      Fmt.pf ppf "{%a}"
        (Fmt.list ~sep:(Fmt.any ",") (fun ppf (k, v) ->
             Fmt.pf ppf "\"%s\":%a" (escape k) pp v))
        kvs

let rec pp_hum ppf = function
  | List (_ :: _ as l) ->
      Fmt.pf ppf "@[<v 2>[@,%a@;<0 -2>]@]"
        (Fmt.list ~sep:(Fmt.any ",@,") pp_hum)
        l
  | Obj (_ :: _ as kvs) ->
      Fmt.pf ppf "@[<v 2>{@,%a@;<0 -2>}@]"
        (Fmt.list ~sep:(Fmt.any ",@,") (fun ppf (k, v) ->
             Fmt.pf ppf "\"%s\": %a" (escape k) pp_hum v))
        kvs
  | j -> pp ppf j

let to_string j = Fmt.str "%a@." pp_hum j

let to_file path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string j))

let check_writable path =
  let existed = Sys.file_exists path in
  match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
  | oc ->
      close_out oc;
      if not existed then Sys.remove path;
      Ok ()
  | exception Sys_error e -> Error e
