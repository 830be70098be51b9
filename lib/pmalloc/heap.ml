open Specpmt_pmem

(* Size classes: 16..256 in steps of 16, then powers of two to 64 KiB,
   then exact page multiples.  Small and simple; fragmentation is not the
   object of study here. *)
let size_classes =
  let small = List.init 16 (fun i -> (i + 1) * 16) in
  let big = [ 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 ] in
  Array.of_list (small @ big)

let class_of n =
  let rec find i =
    if i >= Array.length size_classes then None
    else if size_classes.(i) >= n then Some i
    else find (i + 1)
  in
  find 0

(* A heap is an allocator over a byte range [lo, hi) of the device: the
   data zone bumps up from [lo], the log zone bumps down from [hi], and
   the two bump pointers live in dedicated persistent cells.  The pool
   root heap spans [Layout.heap_base, mem_size) with its bump cells in
   the root area; carved sub-heaps span a line-aligned region inside a
   parent allocation with their cells in the region's first line —
   which is what lets every shard domain run its own allocator over its
   own cache lines with no shared mutable cells. *)
type t = {
  pm : Pmem.t;
  lo : int; (* first byte of the data zone *)
  hi : int; (* end of the region; log zone grows downward from here *)
  bump_cell : Addr.t;
  log_bump_cell : Addr.t;
  free_lists : (int, Addr.t list ref) Hashtbl.t; (* class size -> blocks *)
  log_free_lists : (int, Addr.t list ref) Hashtbl.t;
  mutable bump : int;
  mutable log_bump : int;
  mutable freed : int; (* bytes on free lists *)
}

let header_alloc_bit = 1

let write_header t addr size ~allocated =
  let v = (size lsl 1) lor (if allocated then header_alloc_bit else 0) in
  Pmem.store_int t.pm (addr - 8) v

let read_header t addr =
  let v = Pmem.peek_volatile_int t.pm (addr - 8) in
  (v lsr 1, v land header_alloc_bit = 1)

let pmem t = t.pm

let mk pm ~lo ~hi ~bump_cell ~log_bump_cell =
  {
    pm;
    lo;
    hi;
    bump_cell;
    log_bump_cell;
    free_lists = Hashtbl.create 32;
    log_free_lists = Hashtbl.create 32;
    bump = lo;
    log_bump = hi;
    freed = 0;
  }

let root_geometry pm =
  ( Layout.heap_base,
    Pmem.mem_size pm,
    (Layout.heap_bump : Addr.t),
    (Layout.log_bump : Addr.t) )

let create pm =
  if Pmem.peek_media_int pm Layout.magic = Layout.magic_value then
    invalid_arg "Heap.create: pool already formatted";
  let lo, hi, bump_cell, log_bump_cell = root_geometry pm in
  let t = mk pm ~lo ~hi ~bump_cell ~log_bump_cell in
  Pmem.with_unmetered pm (fun () ->
      Pmem.store_int pm Layout.magic Layout.magic_value;
      Pmem.store_int pm bump_cell t.bump;
      Pmem.store_int pm log_bump_cell t.log_bump;
      for i = 0 to Layout.root_slot_count - 1 do
        Pmem.store_int pm (Layout.root_slot i) 0
      done;
      Pmem.flush_range pm 0 (64 + (Layout.root_slot_count * 8));
      Pmem.sfence pm);
  t

let push_free_into lists addr size =
  let l =
    match Hashtbl.find_opt lists size with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace lists size l;
        l
  in
  l := addr :: !l

let push_free t size addr =
  push_free_into t.free_lists addr size;
  t.freed <- t.freed + size

(* Rebuild the volatile allocator state of [t] from its persistent
   headers and bump cells: the common engine behind {!open_existing}
   and {!recover}. *)
let rebuild t =
  Hashtbl.reset t.free_lists;
  Hashtbl.reset t.log_free_lists;
  t.freed <- 0;
  (* volatile walks below; both zones share the header format *)
  let walk ~from ~upto ~on_free =
    let pos = ref from in
    let stop = ref false in
    while (not !stop) && !pos < upto do
      let addr = !pos + 8 in
      let size, allocated = read_header t addr in
      if size = 0 || size land 7 <> 0 || !pos + 8 + size > upto then
        (* lost header: the crash beat the header to the media; everything
           from here on is unreachable, reclaim as free space *)
        stop := true
      else begin
        if not allocated then on_free addr size;
        pos := !pos + 8 + size
      end
    done;
    !pos
  in
  let bump = Pmem.peek_media_int t.pm t.bump_cell in
  let bump = if bump < t.lo || bump > t.hi then t.lo else bump in
  t.bump <- walk ~from:t.lo ~upto:bump ~on_free:(fun a s -> push_free t s a);
  t.log_bump <- t.hi;
  let log_bump = Pmem.peek_media_int t.pm t.log_bump_cell in
  if log_bump > t.bump && log_bump <= t.hi then begin
    ignore
      (walk ~from:log_bump ~upto:t.hi ~on_free:(fun a s ->
           push_free_into t.log_free_lists a s));
    t.log_bump <- log_bump
  end;
  Pmem.with_unmetered t.pm (fun () ->
      Pmem.store_int t.pm t.bump_cell t.bump;
      Pmem.store_int t.pm t.log_bump_cell t.log_bump)

let open_existing pm =
  if Pmem.peek_media_int pm Layout.magic <> Layout.magic_value then
    invalid_arg "Heap.open_existing: no formatted pool";
  let lo, hi, bump_cell, log_bump_cell = root_geometry pm in
  let t = mk pm ~lo ~hi ~bump_cell ~log_bump_cell in
  rebuild t;
  t

let recover t = rebuild t

(* Carved sub-heap regions.  The first line of a region holds its two
   bump cells; the data zone starts at the next line and the log zone
   grows down from the region end.  Region bounds are line-aligned so
   two regions (or a region and its parent) never share a cache line —
   the partitioning invariant per-domain {!Specpmt_pmem.Pmem.fork_view}s
   rely on. *)
type region = { r_lo : Addr.t; r_hi : Addr.t }

let alloc t n =
  if n <= 0 then Fmt.invalid_arg "Heap.alloc %d" n;
  let size =
    match class_of n with
    | Some c -> size_classes.(c)
    | None -> Addr.align_up n Addr.page_size
  in
  match Hashtbl.find_opt t.free_lists size with
  | Some ({ contents = addr :: rest } as l) ->
      l := rest;
      t.freed <- t.freed - size;
      write_header t addr size ~allocated:true;
      Pmem.clwb t.pm (addr - 8);
      addr
  | Some { contents = [] } | None ->
      let addr = t.bump + 8 in
      if addr + size > t.log_bump then raise Out_of_memory;
      t.bump <- addr + size;
      write_header t addr size ~allocated:true;
      Pmem.clwb t.pm (addr - 8);
      Pmem.store_int t.pm t.bump_cell t.bump;
      Pmem.clwb t.pm t.bump_cell;
      addr

let carve_region t ~bytes =
  if bytes <= 0 then Fmt.invalid_arg "Heap.carve_region %d" bytes;
  let rounded = Addr.align_up bytes Addr.line_size in
  (* cells line + data + alignment slack *)
  let raw = alloc t (rounded + (2 * Addr.line_size)) in
  let lo = Addr.align_up raw Addr.line_size in
  { r_lo = lo; r_hi = lo + Addr.line_size + rounded }

let region_geometry region =
  ( region.r_lo + Addr.line_size,
    region.r_hi,
    (region.r_lo : Addr.t),
    (region.r_lo + 8 : Addr.t) )

let of_region pm region =
  let lo, hi, bump_cell, log_bump_cell = region_geometry region in
  if hi - lo < Addr.line_size then invalid_arg "Heap.of_region: region too small";
  let t = mk pm ~lo ~hi ~bump_cell ~log_bump_cell in
  Pmem.with_unmetered pm (fun () ->
      Pmem.store_int pm bump_cell t.bump;
      Pmem.store_int pm log_bump_cell t.log_bump;
      Pmem.clwb pm bump_cell;
      Pmem.sfence pm);
  t

(* Allocator metadata is made persistent eagerly: the header and bump
   cells are flushed on allocation (persistent on write-pending-queue
   acceptance, no fence).  A crash can therefore only leak blocks of
   uncommitted transactions — never let the recovery walk regress the bump
   pointer over live data.  Frees are persisted too, but transactional
   code must only free at commit (the backends defer [ctx.free]). *)
let persist_cell t a = Pmem.clwb t.pm a

(* Log-zone allocation: grows downward from the region end, keeping log
   blocks physically segregated from application data — the dedicated log
   area of the paper's designs.  Interleaving them in one bump zone would
   scatter application allocations across pages and wreck the page-level
   hotness tracking of hardware SpecPMT. *)
let alloc_log t n =
  if n <= 0 then Fmt.invalid_arg "Heap.alloc_log %d" n;
  let size =
    match class_of n with
    | Some c -> size_classes.(c)
    | None -> Addr.align_up n Addr.page_size
  in
  match Hashtbl.find_opt t.log_free_lists size with
  | Some ({ contents = addr :: rest } as l) ->
      l := rest;
      write_header t addr size ~allocated:true;
      persist_cell t (addr - 8);
      addr
  | Some { contents = [] } | None ->
      let base = t.log_bump - size - 8 in
      let addr = base + 8 in
      if base < t.bump then raise Out_of_memory;
      t.log_bump <- base;
      write_header t addr size ~allocated:true;
      persist_cell t (addr - 8);
      Pmem.store_int t.pm t.log_bump_cell t.log_bump;
      persist_cell t t.log_bump_cell;
      addr

let free t addr =
  let size, allocated = read_header t addr in
  if not allocated then
    Fmt.invalid_arg "Heap.free: double free at %#x" addr;
  write_header t addr size ~allocated:false;
  persist_cell t (addr - 8);
  if addr > t.log_bump then push_free_into t.log_free_lists addr size
  else push_free t size addr

(* Register a block whose header has already been cleared by other means
   (e.g. written and logged through a transaction): only the volatile free
   list is updated. *)
let register_free t addr =
  let size, _ = read_header t addr in
  if addr > t.log_bump then push_free_into t.log_free_lists addr size
  else push_free t size addr

let usable_size t addr = fst (read_header t addr)
let log_zone_bytes t = t.hi - t.log_bump
let root_slot _t i = Layout.root_slot i
let used_bytes t = t.bump - t.lo
let live_bytes t = used_bytes t - t.freed
