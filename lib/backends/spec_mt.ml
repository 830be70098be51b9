open Specpmt_pmalloc
open Specpmt_txn

type t = {
  backends : Ctx.backend array;
  runtimes : Spec_soft.t array;
  recover : unit -> unit;
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
  let runtimes = Array.map snd pairs in
  (* Multi-threaded recovery (Sections 4.1 and 5.2.2) through the pool's
     parent view: the pool heap, then each partitioned pool's sub-heaps
     (thread [i]'s log blocks come from its own carved sub-heap, whose pm
     is that domain's view of the media), then every thread's log merged
     by timestamp.  It is also every thread's [recover]: one thread's log
     alone would lose the other threads' commits. *)
  let recover () =
    Spec_soft.recover_threads (Heap.pmem heap)
      ~heaps:(heap :: Option.fold ~none:[] ~some:Array.to_list runtime_heaps)
      runtimes
  in
  let backends = Array.map (fun (b, _) -> { b with Ctx.recover }) pairs in
  { backends; runtimes; recover }

let thread t i = t.backends.(i)
let runtime t i = t.runtimes.(i)
let threads t = Array.length t.backends
let recover t = t.recover ()
