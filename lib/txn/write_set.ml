(** Per-transaction write-set index.

    Tracks, for each 8-byte cell written by the open transaction, the value
    it held before the first write (the undo image) and where its log entry
    lives (so that repeated updates overwrite a single entry — the paper's
    "write-set indexing" that keeps only the last update, Section 4). *)

open Specpmt_pmem

type slot = {
  mutable old_value : int;  (** value before the transaction's first write *)
  mutable entry_pos : int;
      (** backend-specific position of the cell's log entry; [-1] if the
          backend has not materialised one *)
}

(* Flat representation: cells in first-write order live in the parallel
   [addrs]/[slots] arrays; a linear-probing index over the address space
   maps address -> position.  Slot records are reused across transactions
   ([clear] keeps them allocated), so the steady-state commit path does
   no hashing through a generic Hashtbl and no allocation per write.
   [clear] empties just the slots this transaction filled, and drops a
   table that has grown far past the transaction back to its initial
   size (see [shrink_factor]). *)
type t = {
  mutable addrs : Addr.t array;
  mutable slots : slot array; (* parallel to addrs; records are reused *)
  mutable n : int;
  mutable keys : Addr.t array; (* probe table: address, or -1 when empty *)
  mutable vals : int array; (* probe table: position in addrs/slots *)
  mutable mask : int; (* keys/vals length - 1, a power of two *)
}

(* shared placeholder for not-yet-materialised slot cells; recognised by
   physical equality and replaced with a fresh record on first use *)
let dummy_slot = { old_value = 0; entry_pos = -1 }

let initial_cells = 64

(* A table whose cell capacity is at least [shrink_factor] times what
   the closing transaction used (never counting fewer than
   [initial_cells]) goes back to its initial size.  One large
   transaction — a service shard's 65,536-cell adoption — would
   otherwise leave a 262,144-slot probe table behind, and every later
   one-cell transaction would probe it and recycle slot records
   scattered over 65,536 entries, missing the host cache on every
   [record] and [clear].  Transactions that keep using a 64th of the
   table never shrink it, and once shrunk, transactions that fit in 64
   cells never grow it again. *)
let shrink_factor = 64

let fresh_arrays t =
  t.addrs <- Array.make initial_cells (-1);
  t.slots <- Array.make initial_cells dummy_slot;
  t.keys <- Array.make (4 * initial_cells) (-1);
  t.vals <- Array.make (4 * initial_cells) 0;
  t.mask <- (4 * initial_cells) - 1

let create () =
  let t =
    { addrs = [||]; slots = [||]; n = 0; keys = [||]; vals = [||]; mask = 0 }
  in
  fresh_arrays t;
  t

let size t = t.n

(* cells are 8-byte aligned, so fold the low bits out before mixing *)
let hash_addr a = (a lsr 3) * 0x9E3779B1

let probe t addr =
  let h = ref (hash_addr addr land t.mask) in
  while t.keys.(!h) >= 0 && t.keys.(!h) <> addr do
    h := (!h + 1) land t.mask
  done;
  !h

(* Under linear probing with no deletions, removing the most recently
   inserted key restores the table exactly as it was before that insert:
   the key took the first empty slot on its probe path, and every other
   key present went in earlier, when that slot was already empty, so no
   other key's probe path crosses it.  [grow] re-inserts in first-write
   order, so emptying the cells' slots newest first walks the table back
   to empty. *)
let clear t =
  if Array.length t.addrs >= shrink_factor * max t.n initial_cells then
    fresh_arrays t
  else
    for i = t.n - 1 downto 0 do
      t.keys.(probe t t.addrs.(i)) <- -1
    done;
  t.n <- 0

let insert_index t addr pos =
  let h = probe t addr in
  t.keys.(h) <- addr;
  t.vals.(h) <- pos

let grow t =
  let cap = Array.length t.addrs in
  let addrs = Array.make (2 * cap) (-1) in
  let slots = Array.make (2 * cap) dummy_slot in
  Array.blit t.addrs 0 addrs 0 t.n;
  Array.blit t.slots 0 slots 0 cap;
  t.addrs <- addrs;
  t.slots <- slots;
  (* keep the probe table at 4x the cell capacity: load factor <= 1/2 *)
  t.keys <- Array.make (8 * cap) (-1);
  t.vals <- Array.make (8 * cap) 0;
  t.mask <- (8 * cap) - 1;
  for i = 0 to t.n - 1 do
    insert_index t t.addrs.(i) i
  done

(** [record t addr ~old_value] notes a write to [addr].  Returns the slot
    and whether this is the first write to that cell in the transaction. *)
let record t addr ~old_value =
  let h = probe t addr in
  if t.keys.(h) = addr then (t.slots.(t.vals.(h)), false)
  else begin
    if t.n = Array.length t.addrs then grow t;
    let pos = t.n in
    let slot = t.slots.(pos) in
    let slot =
      if slot == dummy_slot then begin
        let s = { old_value; entry_pos = -1 } in
        t.slots.(pos) <- s;
        s
      end
      else begin
        slot.old_value <- old_value;
        slot.entry_pos <- -1;
        slot
      end
    in
    t.addrs.(pos) <- addr;
    t.n <- pos + 1;
    insert_index t addr pos;
    (slot, true)
  end

let find t addr =
  let h = probe t addr in
  if t.keys.(h) = addr then Some t.slots.(t.vals.(h)) else None

(** Iterate cells in first-write order (oldest first). *)
let iter_in_order t f =
  for i = 0 to t.n - 1 do
    f t.addrs.(i) t.slots.(i)
  done

(** Iterate cells in reverse first-write order (newest first), the order an
    undo recovery applies compensation in. *)
let iter_newest_first t f =
  for i = t.n - 1 downto 0 do
    f t.addrs.(i) t.slots.(i)
  done
