(* Host clock and the reference kernel that normalises host timings.

   Raw host time on a shared machine drifts by tens of percent between
   runs of the same binary.  A fixed, pure-OCaml kernel runs interleaved
   with the measured work: before and after every measured phase, and
   every [tick_ns] of measured time inside long ones.  A measured phase
   is reported as its time x [r_nominal_ns] / the mean time of the
   kernels taken from its start to its end, so a machine that is slower
   for a while reads the same.  Kernel time is never part of a
   measurement.

   What slows a shared machine down is mostly contention for the core
   (another tenant on the sibling hyperthread), which costs code with
   instruction- and memory-level parallelism far more than a serial
   dependency chain.  So the kernel is built from independent work: a
   compute half of eight independent integer chains, and a memory half
   of four independent random read-modify-write streams over an 8 MiB
   int array.  Against it the simulator's phase times scale with
   exponent ~1 (README.md, "Host normalisation"); a serial kernel
   under-corrected by about half.  A phase that runs on two domains is
   normalised by the kernel run on two domains at once. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let words = 1 lsl 20
let compute_iters = 600_000
let memory_iters = 40_000

(* About the median kernel time on the machine the baseline was recorded
   on (perf/baseline-seed.json).  A constant: changing it rescales every
   host metric. *)
let r_nominal_ns = 4.0e6

let tick_ns = 50_000_000

type arena = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* outside the OCaml heap, so it never shows in the mem_mb metric; one
   per domain that runs the kernel *)
let arena () : arena =
  let a = Bigarray.(Array1.create int c_layout words) in
  Bigarray.Array1.fill a 0;
  a

let arenas = lazy (arena (), arena ())

let[@inline] bump (a : arena) i =
  let i = i land (words - 1) in
  Bigarray.Array1.unsafe_set a i (Bigarray.Array1.unsafe_get a i + 1)

let work (a : arena) =
  let c0 = ref 1 and c1 = ref 2 and c2 = ref 3 and c3 = ref 4 in
  let c4 = ref 5 and c5 = ref 6 and c6 = ref 7 and c7 = ref 8 in
  for _ = 1 to compute_iters do
    c0 := (!c0 * 25214903917) + 11;
    c1 := (!c1 * 25214903917) + 13;
    c2 := (!c2 * 25214903917) + 17;
    c3 := (!c3 * 25214903917) + 19;
    c4 := (!c4 lxor (!c4 lsr 7)) + 1;
    c5 := (!c5 lxor (!c5 lsl 9)) + 3;
    c6 := !c6 + (!c6 lsr 3) + 5;
    c7 := !c7 + (!c7 lsl 2) + 7
  done;
  let y = ref 1 in
  for j = 1 to memory_iters do
    y := ((!y * 25214903917) + 11) land 0xFFFF_FFFF_FFFF;
    let b = !y lsr 16 in
    bump a b;
    bump a ((b * 3) + j);
    bump a ((b * 5) + (7 * j));
    bump a (b lxor (j * 977))
  done;
  !c0 + !c1 + !c2 + !c3 + !c4 + !c5 + !c6 + !c7 + !y

let timed_work a =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (work a));
  now_ns () - t0

(* Kernel samples, preallocated so the bookkeeping allocates nothing
   (allocation would perturb the GC and with it mem_mb). *)
let samples = Array.make 100_000 0
let nsamples = ref 0
let excluded = ref 0 (* kernel ns spent inside open windows *)
let last_kernel = ref 0

(* [domains = 2]: the kernel runs on this domain and a second one at
   once, and the sample is the mean of the two times. *)
let kernel ?(domains = 1) () =
  let a, b = Lazy.force arenas in
  let t0 = now_ns () in
  let other = if domains = 2 then Some (Domain.spawn (fun () -> timed_work b)) else None in
  let own = timed_work a in
  let ns = match other with None -> own | Some d -> (own + Domain.join d) / 2 in
  let t1 = now_ns () in
  if !nsamples < Array.length samples then begin
    samples.(!nsamples) <- ns;
    incr nsamples
  end;
  excluded := !excluded + (t1 - t0);
  last_kernel := t1

(* Between units of measured work (drain calls): run the kernel when
   [tick_ns] of measured time has passed since the last one. *)
let tick () = if now_ns () - !last_kernel >= tick_ns then kernel ()

(* Run [f] between two kernels (more may run inside it, via [tick]):
   its host ns with the kernel time inside taken out, normalised by the
   mean of every kernel from its start to its end.  [domains]: how many
   domains [f] keeps busy. *)
let timed ?domains f =
  kernel ?domains ();
  let s0 = !nsamples - 1 in
  let t0 = now_ns () and ex0 = !excluded in
  let x = f () in
  let raw = now_ns () - t0 - (!excluded - ex0) in
  kernel ?domains ();
  let sum = ref 0 in
  for i = s0 to !nsamples - 1 do
    sum := !sum + samples.(i)
  done;
  let mean = float_of_int !sum /. float_of_int (!nsamples - s0) in
  (x, float_of_int raw *. r_nominal_ns /. mean)

let ref_median () =
  let s = Array.sub samples 0 !nsamples in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then float_of_int s.(n / 2)
  else float_of_int (s.((n / 2) - 1) + s.(n / 2)) /. 2.0

(* The factor that normalises host ns measured outside [timed] (spans):
   against the median kernel of the whole run. *)
let norm_factor () = r_nominal_ns /. ref_median ()
