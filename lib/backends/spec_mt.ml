open Specpmt_pmem
open Specpmt_pmalloc
open Specpmt_txn

type t = {
  heap : Heap.t;
  pm : Pmem.t;
  params : Spec_soft.params;
  tsc : Tsc.t;
  backends : Ctx.backend array;
  runtimes : Spec_soft.t array;
  runtime_heaps : Heap.t array option;
      (* partitioned pools: thread [i]'s log blocks come from its own
         carved sub-heap (whose pm is that domain's view of the media) *)
}

let head_slot i = Slots.spec_mt_head i
let max_threads = Slots.spec_mt_max_threads

let create ?(params = Spec_soft.default_params) ?runtime_heaps heap ~threads =
  if threads < 1 || threads > max_threads then
    Fmt.invalid_arg "Spec_mt.create: 1-%d threads" max_threads;
  (match runtime_heaps with
  | Some a when Array.length a <> threads ->
      invalid_arg "Spec_mt.create: runtime_heaps length <> threads"
  | _ -> ());
  let tsc = Tsc.create () in
  let rt_heap i =
    match runtime_heaps with Some a -> a.(i) | None -> heap
  in
  let pairs =
    Array.init threads (fun i ->
        Spec_soft.create ~head_slot:(head_slot i) ~tsc (rt_heap i) params)
  in
  {
    heap;
    pm = Heap.pmem heap;
    params;
    tsc;
    backends = Array.map fst pairs;
    runtimes = Array.map snd pairs;
    runtime_heaps;
  }

let thread t i = t.backends.(i)
let runtime t i = t.runtimes.(i)
let threads t = Array.length t.backends
let tsc t = t.tsc

(* Multi-threaded recovery (Sections 4.1 and 5.2.2).  Per-thread logs are
   independently valid-prefix'd, but only the commit timestamps order
   effects across threads (the shared counter makes them globally
   unique).

   [Replay] materialises every record, sorts globally by timestamp and
   replays oldest first — the paper's algorithm and the differential
   oracle.  [Coalesce] skips the sort entirely: feeding all logs through
   one last-writer-wins index IS the timestamp merge (a cell's binding
   survives iff no log holds a fresher entry for it), and the index is
   then applied with one data write per live cell, line by line.  Each
   log is walked once: its scan's tail is where its thread reattaches. *)
let recover t =
  let open Specpmt_obs in
  Phase.run Phase.Recover @@ fun () ->
  Heap.recover t.heap;
  (* partitioned pools: each sub-heap rebuilds its own free lists from
     the shared image before the per-thread arenas reattach through it *)
  (match t.runtime_heaps with
  | Some heaps -> Array.iter Heap.recover heaps
  | None -> ());
  let bb = t.params.Spec_soft.block_bytes in
  let max_ts = ref 0 in
  let tails =
    match t.params.Spec_soft.recovery with
    | Spec_soft.Coalesce ->
        let index = Log_arena.Lww.create () in
        let records = ref 0 and entries = ref 0 in
        let tails =
          Array.mapi
            (fun i _ ->
              let ts, r, e, tail =
                Log_arena.recover_collect t.pm ~head_slot:(head_slot i)
                  ~block_bytes:bb ~index
              in
              if ts > !max_ts then max_ts := ts;
              records := !records + r;
              entries := !entries + e;
              tail)
            t.runtimes
        in
        let live = Log_arena.Lww.length index in
        Log_arena.apply_collected t.pm index;
        Metrics.add (Metrics.counter "recover.records_scanned") !records;
        Metrics.add (Metrics.counter "recover.entries_scanned") !entries;
        Metrics.add (Metrics.counter "recover.data_writes") live;
        Metrics.add (Metrics.counter "recover.cells_restored") live;
        tails
    | Spec_soft.Replay ->
        let records = ref [] in
        let entries = ref 0 in
        let tails =
          Array.mapi
            (fun i _ ->
              snd
                (Log_arena.recover_scan t.pm ~head_slot:(head_slot i)
                   ~block_bytes:bb
                   ~f:(fun ~ts addrs vals n ->
                     if ts > !max_ts then max_ts := ts;
                     entries := !entries + n;
                     (* sorted globally below: copy out of the scan
                        buffer *)
                     records :=
                       (ts, Array.sub addrs 0 n, Array.sub vals 0 n)
                       :: !records)))
            t.runtimes
        in
        let ordered =
          List.sort (fun (a, _, _) (b, _, _) -> compare a b) !records
        in
        let touched = Hashtbl.create 256 in
        List.iter
          (fun (_, addrs, vals) ->
            Array.iteri
              (fun i a ->
                Pmem.store_int t.pm a vals.(i);
                Hashtbl.replace touched a ())
              addrs)
          ordered;
        Hashtbl.iter (fun a () -> Pmem.clwb t.pm a) touched;
        Pmem.sfence t.pm;
        Metrics.add (Metrics.counter "recover.records_scanned")
          (List.length ordered);
        Metrics.add (Metrics.counter "recover.entries_scanned") !entries;
        Metrics.add (Metrics.counter "recover.data_writes") !entries;
        Metrics.add (Metrics.counter "recover.cells_restored")
          (Hashtbl.length touched);
        tails
  in
  Metrics.incr (Metrics.counter "recover.cycles");
  Tsc.restart_above t.tsc !max_ts;
  Array.iteri (fun i rt -> Spec_soft.reattach rt ~tail:tails.(i)) t.runtimes
