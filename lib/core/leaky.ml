(** The "none" baseline: never reclaim.

    Retired records are abandoned; allocation always takes fresh slots from
    the pool.  This is the paper's leaky upper-bound on throughput (no
    reclamation costs at all) and the foil for the E2 memory experiments
    (its footprint grows linearly with updates). *)

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

  let scheme_name = "none"
  let bounded_garbage = false

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

  (* Nothing to adopt into: abandoned records leak by design, and a
     departing thread buffers nothing, so no parcels are ever pushed. *)
  let adopt_orphans _ = ()

  (* No limbo bags, so externalization is vacuous: nothing to hand off
     and nothing a reclaimer could collect. *)
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

  (* Nothing to flush: abandoned records are gone for good, which is the
     point of the baseline — under pool pressure it simply exhausts. *)
  let on_pressure _ = ()
  let alloc ?cls c = P.alloc ?cls c.b.pool

  let retire c slot =
    P.note_retired c.b.pool slot;
    Smr_stats.add_retires c.st 1;
    (* Every retire is garbage forever. *)
    Smr_stats.note_garbage c.st (Smr_stats.retires c.st)

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
