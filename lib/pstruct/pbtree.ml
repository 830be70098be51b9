(** Persistent B-link tree.

    Layout: header [order; root; count]; node [meta; high; right;
    keys[order]; payloads[order]] with [meta = nkeys*2 + is_leaf].
    Internal entry [i] points at the child covering keys in
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

    An optional DRAM {!Shadow} mirror (see {!attach_shadow}) serves
    every node read from volatile memory with binary search inside
    nodes; transactional writes dual-write media and mirror, the mirror
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

(* header cells *)
let h_order h = h
let h_root h = h + 8
let h_count h = h + 16
let header_bytes = 24

(* node cells *)
let n_meta n = n
let n_high n = n + 8
let n_right n = n + 16
let n_key _t n i = n + 24 + (8 * i)
let n_pay t n i = n + 24 + (8 * t.order) + (8 * i)
let node_bytes order = 24 + (16 * order)

let nkeys_of m = m lsr 1
let leaf_of m = m land 1 = 1

(* ---- node cell reads ----

   [r_*] read the media through the ctx — the audit path, and the only
   path when no mirror is attached.  The unsuffixed accessors dispatch
   to the mirror when one is attached (a mutation sees its own updates,
   made in place), falling back to the metered ctx read for a node the
   mirror does not cover. *)

let r_meta (ctx : Ctx.ctx) n = ctx.Ctx.read (n_meta n)
let r_high (ctx : Ctx.ctx) n = ctx.Ctx.read (n_high n)
let r_right (ctx : Ctx.ctx) n = ctx.Ctx.read (n_right n)
let r_key (ctx : Ctx.ctx) t n i = ctx.Ctx.read (n_key t n i)
let r_pay (ctx : Ctx.ctx) t n i = ctx.Ctx.read (n_pay t n i)

let meta_ ctx t n =
  match t.sh with
  | None -> r_meta ctx n
  | Some sh -> (
      match Shadow.node sh n with
      | nd ->
          Shadow.hit sh;
          nd.Shadow.meta
      | exception Not_found ->
          Shadow.miss sh;
          r_meta ctx n)

let high_ ctx t n =
  match t.sh with
  | None -> r_high ctx n
  | Some sh -> (
      match Shadow.node sh n with
      | nd ->
          Shadow.hit sh;
          nd.Shadow.high
      | exception Not_found ->
          Shadow.miss sh;
          r_high ctx n)

let right_ ctx t n =
  match t.sh with
  | None -> r_right ctx n
  | Some sh -> (
      match Shadow.node sh n with
      | nd ->
          Shadow.hit sh;
          nd.Shadow.right
      | exception Not_found ->
          Shadow.miss sh;
          r_right ctx n)

let key_ ctx t n i =
  match t.sh with
  | None -> r_key ctx t n i
  | Some sh -> (
      match Shadow.node sh n with
      | nd ->
          Shadow.hit sh;
          nd.Shadow.keys.(i)
      | exception Not_found ->
          Shadow.miss sh;
          r_key ctx t n i)

let pay_ ctx t n i =
  match t.sh with
  | None -> r_pay ctx t n i
  | Some sh -> (
      match Shadow.node sh n with
      | nd ->
          Shadow.hit sh;
          nd.Shadow.pays.(i)
      | exception Not_found ->
          Shadow.miss sh;
          r_pay ctx t n i)

let root_ (ctx : Ctx.ctx) t =
  match t.sh with
  | None -> ctx.Ctx.read (h_root t.hdr)
  | Some sh -> Shadow.root sh

let length (ctx : Ctx.ctx) t =
  match t.sh with
  | None -> ctx.Ctx.read (h_count t.hdr)
  | Some sh -> Shadow.count sh

(* ---- node cell writes: media first, then the mirror in place.  The
   log-then-arm order inside {!Shadow}'s setters makes this correct
   under non-transactional contexts too (their hook fires
   immediately). *)

let set_meta (ctx : Ctx.ctx) t n ~leaf ~nkeys =
  let v = (nkeys lsl 1) lor if leaf then 1 else 0 in
  ctx.Ctx.write (n_meta n) v;
  match t.sh with None -> () | Some sh -> Shadow.set_meta sh ctx n v

let set_high (ctx : Ctx.ctx) t n v =
  ctx.Ctx.write (n_high n) v;
  match t.sh with None -> () | Some sh -> Shadow.set_high sh ctx n v

let set_right (ctx : Ctx.ctx) t n v =
  ctx.Ctx.write (n_right n) v;
  match t.sh with None -> () | Some sh -> Shadow.set_right sh ctx n v

let set_key (ctx : Ctx.ctx) t n i v =
  ctx.Ctx.write (n_key t n i) v;
  match t.sh with None -> () | Some sh -> Shadow.set_key sh ctx n i v

let set_pay (ctx : Ctx.ctx) t n i v =
  ctx.Ctx.write (n_pay t n i) v;
  match t.sh with None -> () | Some sh -> Shadow.set_pay sh ctx n i v

let set_root (ctx : Ctx.ctx) t v =
  ctx.Ctx.write (h_root t.hdr) v;
  match t.sh with None -> () | Some sh -> Shadow.set_root sh ctx v

let set_count (ctx : Ctx.ctx) t v =
  ctx.Ctx.write (h_count t.hdr) v;
  match t.sh with None -> () | Some sh -> Shadow.set_count sh ctx v

let free_node (ctx : Ctx.ctx) t n =
  ctx.Ctx.free n;
  match t.sh with None -> () | Some sh -> Shadow.free sh ctx n

let new_node (ctx : Ctx.ctx) t ~leaf ~nkeys ~high ~right =
  let n = ctx.Ctx.alloc (node_bytes t.order) in
  set_meta ctx t n ~leaf ~nkeys;
  set_high ctx t n high;
  set_right ctx t n right;
  n

let create ?(order = 8) (ctx : Ctx.ctx) () =
  if order < 4 then invalid_arg "Pbtree.create: order < 4";
  let hdr = ctx.Ctx.alloc header_bytes in
  let t = { hdr; order; st = fresh_stats (); sh = None } in
  let root = new_node ctx t ~leaf:true ~nkeys:0 ~high:no_key ~right:0 in
  ctx.Ctx.write (h_order hdr) order;
  ctx.Ctx.write (h_root hdr) root;
  ctx.Ctx.write (h_count hdr) 0;
  t

let of_header (ctx : Ctx.ctx) hdr =
  let order = ctx.Ctx.read (h_order hdr) in
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

let attach_shadow (ctx : Ctx.ctx) t =
  let t0 = Unix.gettimeofday () in
  let root = ctx.Ctx.read (h_root t.hdr) in
  let count = ctx.Ctx.read (h_count t.hdr) in
  let sh = Shadow.create ~order:t.order ~root ~count in
  let rec walk n =
    let nd = Shadow.load sh n in
    let m = r_meta ctx n in
    nd.Shadow.meta <- m;
    nd.Shadow.high <- r_high ctx n;
    nd.Shadow.right <- r_right ctx n;
    let nk = nkeys_of m in
    for i = 0 to nk - 1 do
      nd.Shadow.keys.(i) <- r_key ctx t n i;
      nd.Shadow.pays.(i) <- r_pay ctx t n i
    done;
    if not (leaf_of m) then
      for i = 0 to nk - 1 do
        walk nd.Shadow.pays.(i)
      done
  in
  walk root;
  Shadow.add_rebuild_ns sh (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
  t.sh <- Some sh

let vfail fmt = Fmt.kstr (fun s -> failwith ("Pbtree.verify_shadow: " ^ s)) fmt

let verify_shadow (ctx : Ctx.ctx) t =
  match t.sh with
  | None -> invalid_arg "Pbtree.verify_shadow: no mirror attached"
  | Some sh ->
      if Shadow.pending sh > 0 then
        vfail "transaction in flight: %d undo entries" (Shadow.pending sh);
      let root = ctx.Ctx.read (h_root t.hdr) in
      if Shadow.root sh <> root then
        vfail "root %#x, media %#x" (Shadow.root sh) root;
      let count = ctx.Ctx.read (h_count t.hdr) in
      if Shadow.count sh <> count then
        vfail "count %d, media %d" (Shadow.count sh) count;
      let seen = ref 0 in
      let rec walk n =
        incr seen;
        let nd =
          match Shadow.node sh n with
          | nd -> nd
          | exception Not_found -> vfail "node %#x missing from mirror" n
        in
        let m = r_meta ctx n in
        if nd.Shadow.meta <> m then
          vfail "node %#x: meta %d, media %d" n nd.Shadow.meta m;
        if nd.Shadow.high <> r_high ctx n then
          vfail "node %#x: high %d, media %d" n nd.Shadow.high (r_high ctx n);
        if nd.Shadow.right <> r_right ctx n then
          vfail "node %#x: right %#x, media %#x" n nd.Shadow.right
            (r_right ctx n);
        let nk = nkeys_of m in
        for i = 0 to nk - 1 do
          if nd.Shadow.keys.(i) <> r_key ctx t n i then
            vfail "node %#x: key slot %d holds %d, media %d" n i
              nd.Shadow.keys.(i) (r_key ctx t n i);
          if nd.Shadow.pays.(i) <> r_pay ctx t n i then
            vfail "node %#x: payload slot %d holds %d, media %d" n i
              nd.Shadow.pays.(i) (r_pay ctx t n i)
        done;
        if not (leaf_of m) then
          for i = 0 to nk - 1 do
            walk (r_pay ctx t n i)
          done
      in
      walk root;
      if Shadow.size sh <> !seen then
        vfail "%d mirrored nodes, media reaches %d" (Shadow.size sh) !seen

(* ---- descent ---- *)

(* smallest slot whose separator bounds [key]; exists because descent
   (after the move-right step) guarantees key <= high = keys.(nkeys-1).
   Mirror-served nodes use binary search over the separator prefix; the
   ctx path keeps the original linear scan (same read sequence as ever
   for unmirrored trees). *)
let child_slot_slow ctx t n ~nkeys key =
  let i = ref 0 in
  while !i < nkeys - 1 && key > r_key ctx t n !i do
    incr i
  done;
  !i

let child_slot ctx t n ~nkeys key =
  match t.sh with
  | None -> child_slot_slow ctx t n ~nkeys key
  | Some sh -> (
      match Shadow.node sh n with
      | nd ->
          Shadow.hit sh;
          Shadow.lower_bound nd.Shadow.keys (nkeys - 1) key
      | exception Not_found ->
          Shadow.miss sh;
          child_slot_slow ctx t n ~nkeys key)

(* smallest leaf slot with keys.(i) >= key (nk if none) — the insert /
   remove / find position *)
let leaf_slot ctx t n ~nk key =
  match t.sh with
  | Some sh -> (
      match Shadow.node sh n with
      | nd ->
          Shadow.hit sh;
          Shadow.lower_bound nd.Shadow.keys nk key
      | exception Not_found ->
          Shadow.miss sh;
          let i = ref 0 in
          while !i < nk && key > r_key ctx t n !i do
            incr i
          done;
          !i)
  | None ->
      let i = ref 0 in
      while !i < nk && key > r_key ctx t n !i do
        incr i
      done;
      !i

(* B-link descent: follow a right link whenever the key exceeds the
   node's bound, otherwise descend through the separator slot.  A
   mirror-served level costs one hashtable probe and a binary search —
   no device reads at all. *)
let rec locate_leaf ctx t n key =
  match t.sh with
  | Some sh -> (
      match Shadow.node sh n with
      | nd ->
          Shadow.hit sh;
          if nd.Shadow.right <> 0 && key > nd.Shadow.high then
            locate_leaf ctx t nd.Shadow.right key
          else
            let m = nd.Shadow.meta in
            if leaf_of m then n
            else
              locate_leaf ctx t
                nd.Shadow.pays.(Shadow.lower_bound nd.Shadow.keys
                                  (nkeys_of m - 1) key)
                key
      | exception Not_found ->
          Shadow.miss sh;
          locate_leaf_slow ctx t n key)
  | None -> locate_leaf_slow ctx t n key

and locate_leaf_slow ctx t n key =
  if r_right ctx n <> 0 && key > r_high ctx n then
    locate_leaf ctx t (r_right ctx n) key
  else
    let m = r_meta ctx n in
    if leaf_of m then n
    else
      locate_leaf ctx t
        (r_pay ctx t n (child_slot_slow ctx t n ~nkeys:(nkeys_of m) key))
        key

let find_in_leaf_slow ctx t n key =
  let nk = nkeys_of (r_meta ctx n) in
  let rec scan i =
    if i >= nk then None
    else
      let k = r_key ctx t n i in
      if k = key then Some (r_pay ctx t n i)
      else if k > key then None
      else scan (i + 1)
  in
  scan 0

let find ctx t key =
  let n = locate_leaf ctx t (root_ ctx t) key in
  match t.sh with
  | Some sh -> (
      match Shadow.node sh n with
      | nd ->
          Shadow.hit sh;
          let nk = nkeys_of nd.Shadow.meta in
          let i = Shadow.lower_bound nd.Shadow.keys nk key in
          if i < nk && nd.Shadow.keys.(i) = key then Some nd.Shadow.pays.(i)
          else None
      | exception Not_found ->
          Shadow.miss sh;
          find_in_leaf_slow ctx t n key)
  | None -> find_in_leaf_slow ctx t n key

let mem ctx t key = find ctx t key <> None

(* shift entries [i..nkeys-1] one slot right (opening slot [i]) *)
let shift_right ctx t n ~nkeys i =
  for j = nkeys - 1 downto i do
    set_key ctx t n (j + 1) (key_ ctx t n j);
    set_pay ctx t n (j + 1) (pay_ ctx t n j)
  done

(* shift entries [i+1..nkeys-1] one slot left (closing slot [i]) *)
let shift_left ctx t n ~nkeys i =
  for j = i + 1 to nkeys - 1 do
    set_key ctx t n (j - 1) (key_ ctx t n j);
    set_pay ctx t n (j - 1) (pay_ ctx t n j)
  done

(* Split the full child at parent slot [i] (preemptive, on the insert
   descent; the parent is never full here).  The child keeps its first
   ceil(order/2) entries and tightens its bound to its new last key;
   a fresh right sibling takes the rest under the old bound, linked
   B-link style (child.right -> sibling -> old child.right) so a
   link-walker crossing the split sees no gap.  Returns the new
   separator so the caller can re-aim its descent. *)
let split_child ctx t parent i =
  let c = pay_ ctx t parent i in
  let leaf = leaf_of (meta_ ctx t c) in
  let lh = (t.order + 1) / 2 in
  let rh = t.order - lh in
  let r =
    new_node ctx t ~leaf ~nkeys:rh ~high:(high_ ctx t c) ~right:(right_ ctx t c)
  in
  for j = 0 to rh - 1 do
    set_key ctx t r j (key_ ctx t c (lh + j));
    set_pay ctx t r j (pay_ ctx t c (lh + j))
  done;
  let sep = key_ ctx t c (lh - 1) in
  set_right ctx t c r;
  set_high ctx t c sep;
  set_meta ctx t c ~leaf ~nkeys:lh;
  let pk = nkeys_of (meta_ ctx t parent) in
  let old_sep = key_ ctx t parent i in
  shift_right ctx t parent ~nkeys:pk (i + 1);
  set_key ctx t parent i sep;
  set_key ctx t parent (i + 1) old_sep;
  set_pay ctx t parent (i + 1) r;
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
    if nkeys_of (meta_ ctx t root) = t.order then begin
      let r = new_node ctx t ~leaf:false ~nkeys:1 ~high:no_key ~right:0 in
      set_key ctx t r 0 no_key;
      set_pay ctx t r 0 root;
      set_root ctx t r;
      t.st.root_grows <- t.st.root_grows + 1;
      ignore (split_child ctx t r 0);
      r
    end
    else root
  in
  let rec go n =
    let m = meta_ ctx t n in
    let nk = nkeys_of m in
    if leaf_of m then begin
      let i = leaf_slot ctx t n ~nk key in
      if i < nk && key_ ctx t n i = key then set_pay ctx t n i value
      else begin
        shift_right ctx t n ~nkeys:nk i;
        set_key ctx t n i key;
        set_pay ctx t n i value;
        set_meta ctx t n ~leaf:true ~nkeys:(nk + 1);
        set_count ctx t (length ctx t + 1)
      end
    end
    else begin
      let i = child_slot ctx t n ~nkeys:nk key in
      if nkeys_of (meta_ ctx t (pay_ ctx t n i)) = t.order then begin
        let sep = split_child ctx t n i in
        go (pay_ ctx t n (if key > sep then i + 1 else i))
      end
      else go (pay_ ctx t n i)
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
  let pk = nkeys_of (meta_ ctx t parent) in
  let c = pay_ ctx t parent i in
  let cm = meta_ ctx t c in
  let leaf = leaf_of cm in
  let ck = nkeys_of cm in
  (* move the right sibling's first entry under [c]'s (raised) bound *)
  let borrow_right r =
    let rk = nkeys_of (meta_ ctx t r) in
    let k0 = key_ ctx t r 0 and p0 = pay_ ctx t r 0 in
    set_key ctx t c ck k0;
    set_pay ctx t c ck p0;
    set_meta ctx t c ~leaf ~nkeys:(ck + 1);
    shift_left ctx t r ~nkeys:rk 0;
    set_meta ctx t r ~leaf ~nkeys:(rk - 1);
    set_high ctx t c k0;
    set_key ctx t parent i k0;
    t.st.borrows <- t.st.borrows + 1;
    c
  in
  (* move the left sibling's last entry to [c]'s front, lowering the
     sibling's bound to its new last key *)
  let borrow_left l =
    let lk = nkeys_of (meta_ ctx t l) in
    let kl = key_ ctx t l (lk - 1) and pl = pay_ ctx t l (lk - 1) in
    shift_right ctx t c ~nkeys:ck 0;
    set_key ctx t c 0 kl;
    set_pay ctx t c 0 pl;
    set_meta ctx t c ~leaf ~nkeys:(ck + 1);
    set_meta ctx t l ~leaf ~nkeys:(lk - 1);
    let bound = key_ ctx t l (lk - 2) in
    set_high ctx t l bound;
    set_key ctx t parent (i - 1) bound;
    t.st.borrows <- t.st.borrows + 1;
    c
  in
  (* fold the right child of the pair (slots [j], [j+1]) into the left
     one: entries, bound and right link all move left, the parent drops
     one entry, the emptied node is freed (deferred to commit) *)
  let merge j =
    let l = pay_ ctx t parent j in
    let r = pay_ ctx t parent (j + 1) in
    let lm = meta_ ctx t l in
    let lk = nkeys_of lm and rk = nkeys_of (meta_ ctx t r) in
    for x = 0 to rk - 1 do
      set_key ctx t l (lk + x) (key_ ctx t r x);
      set_pay ctx t l (lk + x) (pay_ ctx t r x)
    done;
    set_meta ctx t l ~leaf:(leaf_of lm) ~nkeys:(lk + rk);
    set_high ctx t l (high_ ctx t r);
    set_right ctx t l (right_ ctx t r);
    set_key ctx t parent j (key_ ctx t parent (j + 1));
    shift_left ctx t parent ~nkeys:pk (j + 1);
    set_meta ctx t parent ~leaf:false ~nkeys:(pk - 1);
    free_node ctx t r;
    t.st.merges <- t.st.merges + 1;
    l
  in
  if ck > min_keys then c
  else if
    i + 1 < pk && nkeys_of (meta_ ctx t (pay_ ctx t parent (i + 1))) > min_keys
  then borrow_right (pay_ ctx t parent (i + 1))
  else if
    i > 0 && nkeys_of (meta_ ctx t (pay_ ctx t parent (i - 1))) > min_keys
  then borrow_left (pay_ ctx t parent (i - 1))
  else if i + 1 < pk then merge i
  else merge (i - 1)

let remove (ctx : Ctx.ctx) t key =
  let rec go n =
    let m = meta_ ctx t n in
    let nk = nkeys_of m in
    if leaf_of m then begin
      let i = leaf_slot ctx t n ~nk key in
      if i < nk && key_ ctx t n i = key then begin
        shift_left ctx t n ~nkeys:nk i;
        set_meta ctx t n ~leaf:true ~nkeys:(nk - 1);
        set_count ctx t (length ctx t - 1);
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
    let m = meta_ ctx t root in
    if (not (leaf_of m)) && nkeys_of m = 1 then begin
      set_root ctx t (pay_ ctx t root 0);
      free_node ctx t root;
      t.st.root_shrinks <- t.st.root_shrinks + 1;
      collapse ()
    end
  in
  collapse ();
  removed

(* ---- ordered iteration: one descent, then leaf right-links ---- *)

let iter_leaf_slow ctx t ~lo f n continue_ =
  let node = !n in
  let nk = nkeys_of (r_meta ctx node) in
  let i = ref 0 in
  while !continue_ && !i < nk do
    let k = r_key ctx t node !i in
    if k >= lo then continue_ := f k (r_pay ctx t node !i);
    incr i
  done;
  if !continue_ then n := r_right ctx node

let iter_from ctx t ~lo f =
  let n = ref (locate_leaf ctx t (root_ ctx t) lo) in
  let continue_ = ref true in
  while !continue_ && !n <> 0 do
    match t.sh with
    | Some sh -> (
        match Shadow.node sh !n with
        | nd ->
            Shadow.hit sh;
            let nk = nkeys_of nd.Shadow.meta in
            let i = ref (Shadow.lower_bound nd.Shadow.keys nk lo) in
            while !continue_ && !i < nk do
              continue_ := f nd.Shadow.keys.(!i) nd.Shadow.pays.(!i);
              incr i
            done;
            if !continue_ then n := nd.Shadow.right
        | exception Not_found ->
            Shadow.miss sh;
            iter_leaf_slow ctx t ~lo f n continue_)
    | None -> iter_leaf_slow ctx t ~lo f n continue_
  done

let iter_range ctx t ~lo ~hi f =
  iter_from ctx t ~lo (fun k v ->
      k <= hi
      && begin
           f k v;
           true
         end)

let range ctx t ~lo ~hi =
  let acc = ref [] in
  iter_range ctx t ~lo ~hi (fun k v -> acc := (k, v) :: !acc);
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
    let m = meta_ ctx t n in
    if leaf_of m then acc else go (pay_ ctx t n 0) (acc + 1)
  in
  go (root_ ctx t) 1

let node_count ctx t =
  let internal = ref 0 and leaves = ref 0 in
  let rec go n =
    let m = meta_ ctx t n in
    if leaf_of m then incr leaves
    else begin
      incr internal;
      for i = 0 to nkeys_of m - 1 do
        go (pay_ ctx t n i)
      done
    end
  in
  go (root_ ctx t);
  (!internal, !leaves)

(* ---- structural audit ---- *)

let fail fmt = Fmt.kstr (fun s -> failwith ("Pbtree.check: " ^ s)) fmt

(* the audit reads the media directly ([r_*], never the mirror): it must
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
    let m = r_meta ctx n in
    let nk = nkeys_of m in
    let leaf = leaf_of m in
    if r_high ctx n <> hi then
      fail "node %#x: high %d, parent separator %d" n (r_high ctx n) hi;
    if nk > t.order then fail "node %#x: %d keys, order %d" n nk t.order;
    if (not is_root) && nk < min_keys then
      fail "node %#x: %d keys, minimum %d" n nk min_keys;
    if is_root && (not leaf) && nk < 2 then
      fail "internal root %#x kept %d child(ren)" n nk;
    for i = 0 to nk - 1 do
      let k = r_key ctx t n i in
      if i > 0 && k <= r_key ctx t n (i - 1) then
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
      if r_key ctx t n (nk - 1) <> hi then
        fail "internal %#x: last separator %d <> high %d" n
          (r_key ctx t n (nk - 1))
          hi;
      let prev = ref lo in
      for i = 0 to nk - 1 do
        let sep = r_key ctx t n i in
        walk (r_pay ctx t n i) ~lo:!prev ~hi:sep ~depth:(depth + 1)
          ~is_root:false;
        prev := sep
      done
    end
  in
  walk (ctx.Ctx.read (h_root t.hdr)) ~lo:min_int ~hi:no_key ~depth:0
    ~is_root:true;
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
          if r_right ctx n <> expect then
            fail "node %#x (depth %d): right link %#x, expected %#x" n depth
              (r_right ctx n) expect)
        nodes)
    !levels;
  let count = ctx.Ctx.read (h_count t.hdr) in
  if count <> !entries then
    fail "header count %d, %d leaf entries" count !entries
