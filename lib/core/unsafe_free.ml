(** The unsafe foil: free immediately on retire, with no protection.

    Exists to {e demonstrate} the problem SMR solves: under concurrency,
    readers dereference freed (and recycled) slots, which the pool's
    instrumentation counts as use-after-free reads, and pointer CAS can
    succeed spuriously (ABA).  Tests use this scheme — in small, bounded
    scenarios only — to show that the detectors fire here and stay silent
    under NBR.  Never use it for anything else: traversals over recycled
    slots may not terminate. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)
  module L = Lifecycle.Make (Rt)
  module U = Unguarded.Make (Rt)

  type aint = Rt.aint
  type pool = P.t

  type t = {
    pool : P.t;
    lc : L.t;
    done_stats : Smr_stats.t;
    mutable ctxs : ctx option array;
  }

  and ctx = { b : t; tid : int; st : Smr_stats.t }

  let scheme_name = "unsafe-free"
  let bounded_garbage = true (* trivially: nothing is ever buffered *)

  let create pool ~nthreads cfg =
    P.set_generation_check pool (not cfg.Smr_config.unsafe_no_generation_check);
    {
      pool;
      lc = L.create ~nthreads;
      done_stats = Smr_stats.zero ();
      ctxs = Array.make nthreads None;
    }

  let register b ~tid =
    L.reset_slot b.lc tid;
    let c = { b; tid; st = Smr_stats.zero () } in
    b.ctxs.(tid) <- Some c;
    c

  let begin_op c =
    L.check_self c.b.lc c.tid;
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.Begin_op 0
        0

  let end_op c =
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.End_op 0 0

  (* Records are freed at retire, so nothing is ever buffered and no
     parcels are ever pushed. *)
  let adopt_orphans _ = ()

  (* Nothing is ever buffered, so externalization is vacuous. *)
  let set_offload _ _ = ()
  let limbo_size _ = 0
  let hand_off _ = 0
  let collect_handoffs _ = 0

  let deregister c =
    if L.depart c.b.lc c.tid then begin
      (* Hand the departing thread's magazine caches back to the depot:
         an abandoned magazine would strand up to a magazine's worth of
         free slots per size class.  Safe here: we won the depart CAS, so
         no watchdog owns this tid's state. *)
      P.flush_thread c.b.pool ~tid:c.tid;
      L.with_stats_lock c.b.lc (fun () -> Smr_stats.add c.b.done_stats c.st);
      c.b.ctxs.(c.tid) <- None
    end

  (* Nothing is ever buffered; [max_garbage] stays 0. *)
  let on_pressure _ = ()
  let alloc ?cls c = P.alloc ?cls c.b.pool

  let retire c slot =
    P.note_retired c.b.pool slot;
    Smr_stats.add_retires c.st 1;
    (* Racing retires of one record are among the bugs this foil exists
       to exhibit: the second free arrives through a now-stale handle and
       the generation check rejects it — record the detection and keep
       the foil running so the other detectors get their chance. *)
    match P.free c.b.pool slot with
    | () -> Smr_stats.add_freed c.st 1
    | exception Invalid_argument _ -> Smr_stats.note_uaf c.st

  let phase c ~read ~write = U.phase c.st ~read ~write
  let read_only c f = U.read_only c.st f

  let read_root c root = U.read_root c.b.pool c.st root
  let read_ptr c ~src ~field = U.read_ptr c.b.pool c.st ~src ~field
  let read_raw c ~src ~field = U.read_raw c.b.pool ~src ~field
  let read_data c ~src ~field = U.read_data c.b.pool c.st ~src ~field
  let peek_ptr c ~src ~field = U.peek_ptr c.b.pool c.st ~src ~field

  let ctx_stats (c : ctx) = c.st

  let stats b =
    let acc = Smr_stats.zero () in
    L.with_stats_lock b.lc (fun () -> Smr_stats.add acc b.done_stats);
    Array.iter (function None -> () | Some c -> Smr_stats.add acc c.st) b.ctxs;
    acc
end
