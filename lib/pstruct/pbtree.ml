(** Persistent B-link tree.

    Layout, in words: header [order; root; count]; node [meta; high;
    right; keys[order]; payloads[order]] with [meta = nkeys*2 +
    is_leaf].  Internal entry [i] points at the child covering keys in
    [(keys.(i-1), keys.(i)]]; a node's [high] is its own inclusive
    bound ([max_int] on the rightmost spine) and always equals its
    separator in the parent, and [keys.(nkeys-1) = high] on internal
    nodes.  Separators are {e bounds}, not live keys: a removal never
    has to touch its ancestors' separators, only borrows and merges
    move bounds around.

    Rebalancing is preemptive (split-full / fix-minimal on the way
    down), so a mutation's write set stays O(order · height) worst
    case with no retro-propagation — small transactional write sets
    are the whole point of running this over speculative logging.

    An optional DRAM {!Shadow} mirror (see {!attach_shadow}) holds every
    node, and the header, as an image of its cells, and serves every
    read from volatile memory with binary search inside nodes;
    transactional writes dual-write media and mirror, the mirror
    updated in place under an undo log that the transaction's outcome
    empties or replays.  With no mirror attached, every path below reads
    through the ctx exactly as before — the unmirrored read sequences
    are unchanged. *)

open Specpmt_pmem
open Specpmt_txn

type stats = {
  mutable leaf_splits : int;
  mutable internal_splits : int;
  mutable merges : int;
  mutable borrows : int;
  mutable root_grows : int;
  mutable root_shrinks : int;
}

type t = {
  hdr : Addr.t;
  order : int;
  st : stats;
  mutable sh : Shadow.t option;
}

(* +inf / -inf sentinels: user keys must lie strictly between them *)
let no_key = max_int

let fresh_stats () =
  {
    leaf_splits = 0;
    internal_splits = 0;
    merges = 0;
    borrows = 0;
    root_grows = 0;
    root_shrinks = 0;
  }

(* cell offsets, in words: the header's, then a node's *)
let o_order = 0
let o_root = 1
let o_count = 2
let header_bytes = 24
let o_meta = 0
let o_high = 1
let o_right = 2
let o_key i = 3 + i
let o_pay t i = 3 + t.order + i
let node_cells order = 3 + (2 * order)

let nkeys_of m = m lsr 1
let leaf_of m = m land 1 = 1

(* ---- cell reads and writes ----

   [rd] reads the media through the ctx: the audit path, and the only
   path when no mirror is attached.  [image] is the one mirror lookup:
   it counts one hit per node it serves (header reads go uncounted), or
   one miss, and then answers [no_image] as it does without a mirror,
   so the caller falls back to [rd].  [get] serves one cell through it
   (a mutation sees its own updates, made in place); a descent serves
   a whole node from one [image]. *)

let rd (ctx : Ctx.ctx) a off = ctx.Ctx.read (a + (8 * off))
let no_image = [||]

let image t n =
  match t.sh with
  | None -> no_image
  | Some sh -> (
      match Shadow.node sh n with
      | c ->
          if n <> t.hdr then Shadow.hit sh;
          c
      | exception Not_found ->
          Shadow.miss sh;
          no_image)

let get ctx t n off =
  let c = image t n in
  if c == no_image then rd ctx n off else Array.unsafe_get c off

(* media first, then the mirror in place; the log-then-arm order inside
   {!Shadow.set} makes this correct under non-transactional contexts too
   (their hook fires immediately) *)
let set (ctx : Ctx.ctx) t a off v =
  ctx.Ctx.write (a + (8 * off)) v;
  match t.sh with None -> () | Some sh -> Shadow.set sh ctx a off v

let root_ ctx t = get ctx t t.hdr o_root
let length ctx t = get ctx t t.hdr o_count

let set_meta ctx t n ~leaf ~nkeys =
  set ctx t n o_meta ((nkeys lsl 1) lor if leaf then 1 else 0)

let free_node (ctx : Ctx.ctx) t n =
  ctx.Ctx.free n;
  match t.sh with None -> () | Some sh -> Shadow.free sh ctx n

let new_node (ctx : Ctx.ctx) t ~leaf ~nkeys ~high ~right =
  let n = ctx.Ctx.alloc (8 * node_cells t.order) in
  set_meta ctx t n ~leaf ~nkeys;
  set ctx t n o_high high;
  set ctx t n o_right right;
  n

let create ?(order = 8) (ctx : Ctx.ctx) () =
  if order < 4 then invalid_arg "Pbtree.create: order < 4";
  let hdr = ctx.Ctx.alloc header_bytes in
  let t = { hdr; order; st = fresh_stats (); sh = None } in
  let root = new_node ctx t ~leaf:true ~nkeys:0 ~high:no_key ~right:0 in
  set ctx t hdr o_order order;
  set ctx t hdr o_root root;
  set ctx t hdr o_count 0;
  t

let of_header (ctx : Ctx.ctx) hdr =
  let order = rd ctx hdr o_order in
  if order < 4 || order > 4096 then
    Fmt.invalid_arg
      "Pbtree.of_header: cell at %#x holds %d, not a plausible order" hdr order;
  { hdr; order; st = fresh_stats (); sh = None }

let header t = t.hdr
let order t = t.order
let stats t = t.st

(* ---- the shadow mirror ---- *)

let shadow t = t.sh
let detach_shadow t = t.sh <- None

(* [live t ~nk f] visits the offsets of a node's live cells after its
   meta, in media read order: high, right, then each key and payload *)
let live t ~nk f =
  f o_high;
  f o_right;
  for i = 0 to nk - 1 do
    f (o_key i);
    f (o_pay t i)
  done

let attach_shadow (ctx : Ctx.ctx) t =
  let t0 = Unix.gettimeofday () in
  let sh = Shadow.create ~cells:(node_cells t.order) in
  let h = Shadow.load sh t.hdr in
  h.(o_order) <- t.order;
  h.(o_root) <- rd ctx t.hdr o_root;
  h.(o_count) <- rd ctx t.hdr o_count;
  let rec walk n =
    let c = Shadow.load sh n in
    c.(o_meta) <- rd ctx n o_meta;
    let nk = nkeys_of c.(o_meta) in
    live t ~nk (fun off -> c.(off) <- rd ctx n off);
    if not (leaf_of c.(o_meta)) then
      for i = 0 to nk - 1 do
        walk c.(o_pay t i)
      done
  in
  walk h.(o_root);
  Shadow.add_rebuild_ns sh (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
  t.sh <- Some sh

let vfail fmt = Fmt.kstr (fun s -> failwith ("Pbtree.verify_shadow: " ^ s)) fmt

let verify_shadow (ctx : Ctx.ctx) t =
  match t.sh with
  | None -> invalid_arg "Pbtree.verify_shadow: no mirror attached"
  | Some sh ->
      if Shadow.pending sh > 0 then
        vfail "transaction in flight: %d undo entries" (Shadow.pending sh);
      let cell n off =
        let c =
          match Shadow.node sh n with
          | c -> c
          | exception Not_found -> vfail "node %#x missing from mirror" n
        in
        let v = rd ctx n off in
        if c.(off) <> v then
          vfail "node %#x: cell %d holds %d, media %d" n off c.(off) v;
        v
      in
      let root = cell t.hdr o_root in
      ignore (cell t.hdr o_count);
      (* the header is one more mirrored node *)
      let seen = ref 1 in
      let rec walk n =
        incr seen;
        let m = cell n o_meta in
        let nk = nkeys_of m in
        live t ~nk (fun off -> ignore (cell n off));
        if not (leaf_of m) then
          for i = 0 to nk - 1 do
            walk (rd ctx n (o_pay t i))
          done
      in
      walk root;
      if Shadow.size sh <> !seen then
        vfail "%d mirrored nodes, media reaches %d" (Shadow.size sh) !seen

(* ---- descent ---- *)

(* [lower_bound c n key]: the smallest key slot [i < n] of the image [c]
   with a key [>= key], or [n] — the in-node binary search that replaces
   the linear slot scans on mirror-served nodes *)
let lower_bound c n key =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get c (o_key mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

(* the first of key slots [0..n) of node [nd] whose key is [>= key], or
   [n], by the linear scan the unmirrored read sequence is made of *)
let scan_slot ctx nd n key =
  let i = ref 0 in
  while !i < n && key > rd ctx nd (o_key !i) do
    incr i
  done;
  !i

(* the same slot, binary-searched when the mirror serves the node: the
   insert / remove position in a leaf *)
let slot ctx t nd n key =
  let c = image t nd in
  if c == no_image then scan_slot ctx nd n key else lower_bound c n key

(* smallest slot whose separator bounds [key]; exists because descent
   (after the move-right step) guarantees key <= high = keys.(nkeys-1) *)
let child_slot ctx t n ~nkeys key = slot ctx t n (nkeys - 1) key

(* B-link descent: follow a right link whenever the key exceeds the
   node's bound, otherwise descend through the separator slot.  A
   mirror-served level costs one hashtable probe and a binary search —
   no device reads at all. *)
let rec locate_leaf ctx t n key =
  let c = image t n in
  if c == no_image then
    if rd ctx n o_right <> 0 && key > rd ctx n o_high then
      locate_leaf ctx t (rd ctx n o_right) key
    else
      let m = rd ctx n o_meta in
      if leaf_of m then n
      else
        locate_leaf ctx t
          (rd ctx n (o_pay t (scan_slot ctx n (nkeys_of m - 1) key)))
          key
  else if c.(o_right) <> 0 && key > c.(o_high) then
    locate_leaf ctx t c.(o_right) key
  else
    let m = c.(o_meta) in
    if leaf_of m then n
    else locate_leaf ctx t c.(o_pay t (lower_bound c (nkeys_of m - 1) key)) key

let find ctx t key =
  let n = locate_leaf ctx t (root_ ctx t) key in
  let c = image t n in
  if c == no_image then begin
    let nk = nkeys_of (rd ctx n o_meta) in
    let rec scan i =
      if i >= nk then None
      else
        let k = rd ctx n (o_key i) in
        if k = key then Some (rd ctx n (o_pay t i))
        else if k > key then None
        else scan (i + 1)
    in
    scan 0
  end
  else
    let nk = nkeys_of c.(o_meta) in
    let i = lower_bound c nk key in
    if i < nk && c.(o_key i) = key then Some c.(o_pay t i) else None

(* shift entries [i..nkeys-1] one slot right (opening slot [i]) *)
let shift_right ctx t n ~nkeys i =
  for j = nkeys - 1 downto i do
    set ctx t n (o_key (j + 1)) (get ctx t n (o_key j));
    set ctx t n (o_pay t (j + 1)) (get ctx t n (o_pay t j))
  done

(* shift entries [i+1..nkeys-1] one slot left (closing slot [i]) *)
let shift_left ctx t n ~nkeys i =
  for j = i + 1 to nkeys - 1 do
    set ctx t n (o_key (j - 1)) (get ctx t n (o_key j));
    set ctx t n (o_pay t (j - 1)) (get ctx t n (o_pay t j))
  done

(* Split the full child at parent slot [i] (preemptive, on the insert
   descent; the parent is never full here).  The child keeps its first
   ceil(order/2) entries and tightens its bound to its new last key;
   a fresh right sibling takes the rest under the old bound, linked
   B-link style (child.right -> sibling -> old child.right) so a
   link-walker crossing the split sees no gap.  Returns the new
   separator so the caller can re-aim its descent. *)
let split_child ctx t parent i =
  let c = get ctx t parent (o_pay t i) in
  let leaf = leaf_of (get ctx t c o_meta) in
  let lh = (t.order + 1) / 2 in
  let rh = t.order - lh in
  let r =
    new_node ctx t ~leaf ~nkeys:rh ~high:(get ctx t c o_high)
      ~right:(get ctx t c o_right)
  in
  for j = 0 to rh - 1 do
    set ctx t r (o_key j) (get ctx t c (o_key (lh + j)));
    set ctx t r (o_pay t j) (get ctx t c (o_pay t (lh + j)))
  done;
  let sep = get ctx t c (o_key (lh - 1)) in
  set ctx t c o_right r;
  set ctx t c o_high sep;
  set_meta ctx t c ~leaf ~nkeys:lh;
  let pk = nkeys_of (get ctx t parent o_meta) in
  let old_sep = get ctx t parent (o_key i) in
  shift_right ctx t parent ~nkeys:pk (i + 1);
  set ctx t parent (o_key i) sep;
  set ctx t parent (o_key (i + 1)) old_sep;
  set ctx t parent (o_pay t (i + 1)) r;
  set_meta ctx t parent ~leaf:false ~nkeys:(pk + 1);
  if leaf then t.st.leaf_splits <- t.st.leaf_splits + 1
  else t.st.internal_splits <- t.st.internal_splits + 1;
  sep

let insert (ctx : Ctx.ctx) t key value =
  if key >= no_key || key <= min_int then
    invalid_arg
      "Pbtree.insert: key must lie strictly between min_int and max_int";
  (* root growth: a full root gains a single-entry internal parent
     under the +inf bound, then splits as an ordinary child *)
  let root = root_ ctx t in
  let root =
    if nkeys_of (get ctx t root o_meta) = t.order then begin
      let r = new_node ctx t ~leaf:false ~nkeys:1 ~high:no_key ~right:0 in
      set ctx t r (o_key 0) no_key;
      set ctx t r (o_pay t 0) root;
      set ctx t t.hdr o_root r;
      t.st.root_grows <- t.st.root_grows + 1;
      ignore (split_child ctx t r 0);
      r
    end
    else root
  in
  let rec go n =
    let m = get ctx t n o_meta in
    let nk = nkeys_of m in
    if leaf_of m then begin
      let i = slot ctx t n nk key in
      if i < nk && get ctx t n (o_key i) = key then
        set ctx t n (o_pay t i) value
      else begin
        shift_right ctx t n ~nkeys:nk i;
        set ctx t n (o_key i) key;
        set ctx t n (o_pay t i) value;
        set_meta ctx t n ~leaf:true ~nkeys:(nk + 1);
        set ctx t t.hdr o_count (length ctx t + 1)
      end
    end
    else begin
      let i = child_slot ctx t n ~nkeys:nk key in
      if nkeys_of (get ctx t (get ctx t n (o_pay t i)) o_meta) = t.order
      then begin
        let sep = split_child ctx t n i in
        go (get ctx t n (o_pay t (if key > sep then i + 1 else i)))
      end
      else go (get ctx t n (o_pay t i))
    end
  in
  go root

(* Rebalance the minimal child at parent slot [i] (preemptive, on the
   remove descent) so a removal below it cannot underflow; returns the
   node to keep descending into — the left sibling when a merge folded
   the child into it.  The parent always has >= 2 entries here: below
   the root it was itself fixed to > order/2 entries on the way down,
   and the root sheds single-child states eagerly (see [remove]). *)
let fix_child ctx t parent i =
  let min_keys = t.order / 2 in
  let pk = nkeys_of (get ctx t parent o_meta) in
  let c = get ctx t parent (o_pay t i) in
  let cm = get ctx t c o_meta in
  let leaf = leaf_of cm in
  let ck = nkeys_of cm in
  (* move the right sibling's first entry under [c]'s (raised) bound *)
  let borrow_right r =
    let rk = nkeys_of (get ctx t r o_meta) in
    let k0 = get ctx t r (o_key 0) and p0 = get ctx t r (o_pay t 0) in
    set ctx t c (o_key ck) k0;
    set ctx t c (o_pay t ck) p0;
    set_meta ctx t c ~leaf ~nkeys:(ck + 1);
    shift_left ctx t r ~nkeys:rk 0;
    set_meta ctx t r ~leaf ~nkeys:(rk - 1);
    set ctx t c o_high k0;
    set ctx t parent (o_key i) k0;
    t.st.borrows <- t.st.borrows + 1;
    c
  in
  (* move the left sibling's last entry to [c]'s front, lowering the
     sibling's bound to its new last key *)
  let borrow_left l =
    let lk = nkeys_of (get ctx t l o_meta) in
    let kl = get ctx t l (o_key (lk - 1))
    and pl = get ctx t l (o_pay t (lk - 1)) in
    shift_right ctx t c ~nkeys:ck 0;
    set ctx t c (o_key 0) kl;
    set ctx t c (o_pay t 0) pl;
    set_meta ctx t c ~leaf ~nkeys:(ck + 1);
    set_meta ctx t l ~leaf ~nkeys:(lk - 1);
    let bound = get ctx t l (o_key (lk - 2)) in
    set ctx t l o_high bound;
    set ctx t parent (o_key (i - 1)) bound;
    t.st.borrows <- t.st.borrows + 1;
    c
  in
  (* fold the right child of the pair (slots [j], [j+1]) into the left
     one: entries, bound and right link all move left, the parent drops
     one entry, the emptied node is freed (deferred to commit) *)
  let merge j =
    let l = get ctx t parent (o_pay t j) in
    let r = get ctx t parent (o_pay t (j + 1)) in
    let lm = get ctx t l o_meta in
    let lk = nkeys_of lm and rk = nkeys_of (get ctx t r o_meta) in
    for x = 0 to rk - 1 do
      set ctx t l (o_key (lk + x)) (get ctx t r (o_key x));
      set ctx t l (o_pay t (lk + x)) (get ctx t r (o_pay t x))
    done;
    set_meta ctx t l ~leaf:(leaf_of lm) ~nkeys:(lk + rk);
    set ctx t l o_high (get ctx t r o_high);
    set ctx t l o_right (get ctx t r o_right);
    set ctx t parent (o_key j) (get ctx t parent (o_key (j + 1)));
    shift_left ctx t parent ~nkeys:pk (j + 1);
    set_meta ctx t parent ~leaf:false ~nkeys:(pk - 1);
    free_node ctx t r;
    t.st.merges <- t.st.merges + 1;
    l
  in
  if ck > min_keys then c
  else if
    i + 1 < pk
    && nkeys_of (get ctx t (get ctx t parent (o_pay t (i + 1))) o_meta)
       > min_keys
  then borrow_right (get ctx t parent (o_pay t (i + 1)))
  else if
    i > 0
    && nkeys_of (get ctx t (get ctx t parent (o_pay t (i - 1))) o_meta)
       > min_keys
  then borrow_left (get ctx t parent (o_pay t (i - 1)))
  else if i + 1 < pk then merge i
  else merge (i - 1)

let remove (ctx : Ctx.ctx) t key =
  let rec go n =
    let m = get ctx t n o_meta in
    let nk = nkeys_of m in
    if leaf_of m then begin
      let i = slot ctx t n nk key in
      if i < nk && get ctx t n (o_key i) = key then begin
        shift_left ctx t n ~nkeys:nk i;
        set_meta ctx t n ~leaf:true ~nkeys:(nk - 1);
        set ctx t t.hdr o_count (length ctx t - 1);
        true
      end
      else false
    end
    else go (fix_child ctx t n (child_slot ctx t n ~nkeys:nk key))
  in
  let removed = go (root_ ctx t) in
  (* eager root collapse: a single-child internal root hands its slot
     to the child before the transaction ends, so the parent-entry
     precondition of [fix_child] holds on every later descent *)
  let rec collapse () =
    let root = root_ ctx t in
    let m = get ctx t root o_meta in
    if (not (leaf_of m)) && nkeys_of m = 1 then begin
      set ctx t t.hdr o_root (get ctx t root (o_pay t 0));
      free_node ctx t root;
      t.st.root_shrinks <- t.st.root_shrinks + 1;
      collapse ()
    end
  in
  collapse ();
  removed

(* ---- ordered iteration: one descent, then leaf right-links ---- *)

let iter_from ctx t ~lo f =
  let n = ref (locate_leaf ctx t (root_ ctx t) lo) in
  let continue_ = ref true in
  while !continue_ && !n <> 0 do
    let node = !n in
    let c = image t node in
    if c == no_image then begin
      let nk = nkeys_of (rd ctx node o_meta) in
      let i = ref 0 in
      while !continue_ && !i < nk do
        let k = rd ctx node (o_key !i) in
        if k >= lo then continue_ := f k (rd ctx node (o_pay t !i));
        incr i
      done;
      if !continue_ then n := rd ctx node o_right
    end
    else begin
      let nk = nkeys_of c.(o_meta) in
      let i = ref (lower_bound c nk lo) in
      while !continue_ && !i < nk do
        continue_ := f c.(o_key !i) c.(o_pay t !i);
        incr i
      done;
      if !continue_ then n := c.(o_right)
    end
  done

let range ctx t ~lo ~hi =
  let acc = ref [] in
  iter_from ctx t ~lo (fun k v ->
      k <= hi
      && begin
           acc := (k, v) :: !acc;
           true
         end);
  List.rev !acc

let iter ctx t f =
  iter_from ctx t ~lo:min_int (fun k v ->
      f k v;
      true)

let fold ctx t f init =
  let acc = ref init in
  iter ctx t (fun k v -> acc := f k v !acc);
  !acc

let height ctx t =
  let rec go n acc =
    let m = get ctx t n o_meta in
    if leaf_of m then acc else go (get ctx t n (o_pay t 0)) (acc + 1)
  in
  go (root_ ctx t) 1

let node_count ctx t =
  let internal = ref 0 and leaves = ref 0 in
  let rec go n =
    let m = get ctx t n o_meta in
    if leaf_of m then incr leaves
    else begin
      incr internal;
      for i = 0 to nkeys_of m - 1 do
        go (get ctx t n (o_pay t i))
      done
    end
  in
  go (root_ ctx t);
  (!internal, !leaves)

(* ---- structural audit ---- *)

let fail fmt = Fmt.kstr (fun s -> failwith ("Pbtree.check: " ^ s)) fmt

(* the audit reads the media directly ([rd], never the mirror): it must
   catch a mirror that diverged from the durable structure, not certify
   the mirror against itself *)
let check (ctx : Ctx.ctx) t =
  let min_keys = t.order / 2 in
  (* [levels.(d)]: the nodes at depth [d], newest first, for the chain
     audit; the walk reaches depth [d + 1] only through depth [d], so
     the array grows one level at a time *)
  let levels = ref [||] in
  let leaf_depth = ref (-1) in
  let entries = ref 0 in
  (* subtree keys must lie in (lo, hi]; [hi] is also the separator the
     parent holds for this node *)
  let rec walk n ~lo ~hi ~depth ~is_root =
    if depth = Array.length !levels then
      levels := Array.append !levels [| [] |];
    !levels.(depth) <- n :: !levels.(depth);
    let m = rd ctx n o_meta in
    let nk = nkeys_of m in
    let leaf = leaf_of m in
    if rd ctx n o_high <> hi then
      fail "node %#x: high %d, parent separator %d" n (rd ctx n o_high) hi;
    if nk > t.order then fail "node %#x: %d keys, order %d" n nk t.order;
    if (not is_root) && nk < min_keys then
      fail "node %#x: %d keys, minimum %d" n nk min_keys;
    if is_root && (not leaf) && nk < 2 then
      fail "internal root %#x kept %d child(ren)" n nk;
    for i = 0 to nk - 1 do
      let k = rd ctx n (o_key i) in
      if i > 0 && k <= rd ctx n (o_key (i - 1)) then
        fail "node %#x: keys out of order at slot %d" n i;
      if k <= lo || k > hi then
        fail "node %#x: key %d outside bound (%d, %d]" n k lo hi
    done;
    if leaf then begin
      if !leaf_depth = -1 then leaf_depth := depth
      else if !leaf_depth <> depth then
        fail "leaf %#x at depth %d, first leaf at %d" n depth !leaf_depth;
      entries := !entries + nk
    end
    else begin
      if nk = 0 then fail "internal node %#x is empty" n;
      if rd ctx n (o_key (nk - 1)) <> hi then
        fail "internal %#x: last separator %d <> high %d" n
          (rd ctx n (o_key (nk - 1)))
          hi;
      let prev = ref lo in
      for i = 0 to nk - 1 do
        let sep = rd ctx n (o_key i) in
        walk (rd ctx n (o_pay t i)) ~lo:!prev ~hi:sep ~depth:(depth + 1)
          ~is_root:false;
        prev := sep
      done
    end
  in
  walk (rd ctx t.hdr o_root) ~lo:min_int ~hi:no_key ~depth:0 ~is_root:true;
  (* every level's right links must chain its nodes in walk order,
     audited from the root down: the first broken link reported is the
     shallowest, whatever the hash seed *)
  Array.iteri
    (fun depth l ->
      let nodes = Array.of_list (List.rev l) in
      let last = Array.length nodes - 1 in
      Array.iteri
        (fun i n ->
          let expect = if i = last then 0 else nodes.(i + 1) in
          if rd ctx n o_right <> expect then
            fail "node %#x (depth %d): right link %#x, expected %#x" n depth
              (rd ctx n o_right) expect)
        nodes)
    !levels;
  let count = rd ctx t.hdr o_count in
  if count <> !entries then
    fail "header count %d, %d leaf entries" count !entries
