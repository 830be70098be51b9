open Specpmt_pmem
open Specpmt_pmalloc

type log = {
  append : Addr.t -> int -> unit;
  truncate : unit -> unit;
  undo : (Addr.t -> int -> unit) -> unit;
  footprint : unit -> int;
}

let revoke pm log =
  log.undo (fun a old ->
      Pmem.store_int pm a old;
      Pmem.clwb pm a);
  Pmem.sfence pm;
  log.truncate ()

type t = {
  heap : Heap.t;
  pm : Pmem.t;
  persist : bool;
  mutable log : log;
  ws : Log_arena.Lww.t; (* cell -> undo image, first-write order *)
  shell : Ctx.Shell.t;
}

let write t a v =
  let old = Pmem.load_int t.pm a in
  let n = Log_arena.Lww.length t.ws in
  if Log_arena.Lww.bind t.ws a ~value:old ~ts:0 = n then t.log.append a old;
  Pmem.store_int t.pm a v

(* committed data must be durable before the undo images are discarded *)
let commit t frees =
  if t.persist then begin
    Log_arena.Lww.iter t.ws (fun a ~value:_ ~ts:_ -> Pmem.clwb t.pm a);
    Pmem.sfence t.pm
  end;
  t.log.truncate ();
  List.iter (fun a -> Heap.free t.heap a) frees;
  Log_arena.Lww.clear t.ws

let rollback t =
  Log_arena.Lww.iter_newest_first t.ws (fun a ~value ~ts:_ ->
      Pmem.store_int t.pm a value;
      if t.persist then Pmem.clwb t.pm a);
  if t.persist then Pmem.sfence t.pm;
  t.log.truncate ();
  Log_arena.Lww.clear t.ws

(* the reattached log replaces the pre-crash handle: that handle's cached
   state (an entry count, a generation) describes the crashed
   transaction, and the next transaction must not append behind it *)
let recover t attach =
  Heap.recover t.heap;
  let log = attach () in
  revoke t.pm log;
  t.log <- log;
  Log_arena.Lww.clear t.ws;
  Ctx.Shell.reset t.shell

let create ~name ~persist ~log ~recover:attach heap =
  let t =
    {
      heap;
      pm = Heap.pmem heap;
      persist;
      log;
      ws = Log_arena.Lww.create ();
      shell = Ctx.Shell.create name;
    }
  in
  let ctx = Ctx.Shell.ctx t.shell ~heap ~write:(write t) in
  let commit = commit t and rollback () = rollback t in
  {
    Ctx.name;
    run_tx =
      (fun f -> Ctx.Shell.run t.shell ctx ~start:ignore ~commit ~rollback f);
    recover =
      (match attach with
      | Ok attach -> fun () -> recover t attach
      | Error why -> fun () -> invalid_arg why);
    drain = (fun () -> ());
    log_footprint = (fun () -> t.log.footprint ());
    supports_recovery = Result.is_ok attach;
  }
