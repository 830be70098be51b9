let poly = 0x82F63B78 (* reflected CRC-32C polynomial *)

(* Slicing-by-8 tables, flat: [tables.(k * 256 + b)] is the CRC state
   contribution of byte [b] followed by [k] zero bytes, so [0..255] is the
   classic byte-at-a-time table.  Eager: a lazy here would race when first
   forced concurrently from several domains (the parallel harness commits
   on worker domains). *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := (!c lsr 1) lxor poly else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let crc32c ?(init = 0) b =
  let crc = ref (init lxor 0xFFFFFFFF) in
  for i = 0 to Bytes.length b - 1 do
    let idx = (!crc lxor Char.code (Bytes.get b i)) land 0xFF in
    crc := (!crc lsr 8) lxor tables.(idx)
  done;
  !crc lxor 0xFFFFFFFF

(* entry [b] (masked to a byte) of slicing table [k] *)
let[@inline] slice k b = Array.unsafe_get tables ((k lsl 8) lor (b land 0xFF))

(* One slicing-by-8 step: the word's 8 LE bytes are looked up in the 8
   tables at once instead of fed through 8 dependent byte steps.  The low
   4 bytes absorb the running state; byte k of the word is shifted by
   7 - k further bytes, hence table 7 - k.  Bytes must match [words]'s
   Int64 LE encoding, including the sign-extended top byte of negative
   tags — hence [asr], not [lsr].  Every index is masked to a byte, so
   the unchecked reads stay in bounds. *)
let crc32c_word init w =
  let lo = init lxor 0xFFFFFFFF lxor (w land 0xFFFFFFFF) in
  let hi = w asr 32 in
  slice 7 lo
  lxor slice 6 (lo lsr 8)
  lxor slice 5 (lo lsr 16)
  lxor slice 4 (lo lsr 24)
  lxor slice 3 hi
  lxor slice 2 (hi asr 8)
  lxor slice 1 (hi asr 16)
  lxor slice 0 (hi asr 24)
  lxor 0xFFFFFFFF

let words ws =
  let b = Bytes.create (8 * List.length ws) in
  List.iteri (fun i w -> Bytes.set_int64_le b (i * 8) (Int64.of_int w)) ws;
  crc32c b
