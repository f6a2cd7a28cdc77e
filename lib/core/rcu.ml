(** RCU-flavoured epoch reclamation (the IBR benchmark's "RCU" baseline).

    Readers announce the global epoch on entry and withdraw on exit;
    retired records are stamped with the epoch at retire time; a reclaimer
    bumps the global epoch and frees records stamped strictly before the
    minimum announced epoch.  Equivalent to classic EBR without DEBRA's
    amortized scanning or bag rotation.

    Not bounded: a reader stalled inside an operation pins the minimum
    epoch. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)
  module L = Lifecycle.Make (Rt)
  module U = Unguarded.Make (Rt)

  type aint = Rt.aint
  type pool = P.t

  let idle = max_int

  type t = {
    pool : P.t;
    n : int;
    cfg : Smr_config.t;
    epoch : Rt.aint;
    ann : Rt.aint array;
    retire_ep : int array;  (** per-slot retire epoch (thread-owned writes) *)
    lc : L.t;
    done_stats : Smr_stats.t;
    mutable ctxs : ctx option array;
    mutable offload : Smr_intf.Offload.t option;
  }

  and ctx = { b : t; tid : int; bag : Limbo_bag.t; st : Smr_stats.t }

  let scheme_name = "rcu"
  let bounded_garbage = false

  let create pool ~nthreads cfg =
    P.set_generation_check pool (not cfg.Smr_config.unsafe_no_generation_check);
    {
      pool;
      n = nthreads;
      cfg;
      (* Padded: the global epoch is bumped by every reclaimer while every
         reader loads it, and the per-thread announcements are SWMR cells
         scanned by all reclaimers — classic false-sharing hot spots. *)
      epoch = Rt.make_padded 1;
      ann = Array.init nthreads (fun _ -> Rt.make_padded idle);
      retire_ep = Array.make (P.capacity pool) 0;
      lc = L.create ~nthreads;
      done_stats = Smr_stats.zero ();
      ctxs = Array.make nthreads None;
      offload = None;
    }

  let set_offload b o = b.offload <- o

  let register b ~tid =
    L.reset_slot b.lc tid;
    let c = { b; tid; bag = Limbo_bag.create (); st = Smr_stats.zero () } in
    b.ctxs.(tid) <- Some c;
    c

  let begin_op c =
    L.check_self c.b.lc c.tid;
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.Begin_op 0
        0;
    Rt.store c.b.ann.(c.tid) (Rt.load c.b.epoch)

  (* Orphan retire epochs live in the t-level [retire_ep] array, so the
     slots alone carry everything the sweep predicate needs. *)
  let adopt_orphans c =
    let n =
      L.adopt c.b.lc ~tid:c.tid ~push:(fun slot -> Limbo_bag.push c.bag slot)
    in
    if n > 0 then Smr_stats.note_garbage c.st (Limbo_bag.size c.bag)

  (* Limbo-bag externalization (DESIGN.md §12).  Retire epochs live in the
     t-level [retire_ep] array, so handed-off slots carry everything the
     collector's sweep predicate needs — the orphan-parcel argument. *)

  let limbo_size c = Limbo_bag.size c.bag

  let export_bag c =
    let slots = ref [] in
    ignore
      (Limbo_bag.sweep c.bag ~upto:(Limbo_bag.abs_tail c.bag)
         ~keep:(fun _ -> false)
         ~free:(fun s -> slots := s :: !slots));
    L.push_handoff c.b.lc ~origin:c.tid !slots;
    List.length !slots

  let hand_off c = export_bag c

  let maybe_offload c =
    match c.b.offload with
    | None -> false
    | Some o ->
        let count = Limbo_bag.size c.bag in
        count > 0
        && Smr_intf.Offload.try_accept o ~tid:c.tid ~ns:(Rt.now_ns ()) ~count
        &&
        (ignore (export_bag c);
         true)

  let collect_handoffs c =
    let n =
      L.take_handoffs c.b.lc ~push:(fun slot -> Limbo_bag.push c.bag slot)
    in
    if n > 0 then begin
      Smr_stats.note_garbage c.st (Limbo_bag.size c.bag);
      match c.b.offload with
      | Some o ->
          Smr_intf.Offload.note_collected o ~tid:c.tid ~ns:(Rt.now_ns ())
            ~count:n
      | None ->
          if !Nbr_obs.Trace.on then
            Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
              Nbr_obs.Trace.Handoff_collect n 0
    end;
    n

  let end_op c =
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.End_op 0 0;
    Rt.store c.b.ann.(c.tid) idle;
    if L.has_orphans c.b.lc && L.is_active c.b.lc c.tid then adopt_orphans c

  let deregister c =
    if L.depart c.b.lc c.tid then begin
      (* Hand the departing thread's magazine caches back to the depot:
         an abandoned magazine would strand up to a magazine's worth of
         free slots per size class.  Safe here: we won the depart CAS, so
         no watchdog owns this tid's state. *)
      P.flush_thread c.b.pool ~tid:c.tid;
      (* Withdraw the announcement: a departed reader must not pin the
         minimum epoch. *)
      Rt.store c.b.ann.(c.tid) idle;
      let slots = ref [] in
      ignore
        (Limbo_bag.sweep c.bag ~upto:(Limbo_bag.abs_tail c.bag)
           ~keep:(fun _ -> false)
           ~free:(fun s -> slots := s :: !slots));
      L.push_parcel c.b.lc ~origin:c.tid !slots;
      L.with_stats_lock c.b.lc (fun () -> Smr_stats.add c.b.done_stats c.st);
      c.b.ctxs.(c.tid) <- None
    end

  (* Bump the epoch and free everything retired strictly before the
     minimum announced epoch — the threshold-crossing body of [retire],
     also run threshold-free under pool pressure.  Our own announcement
     participates in the minimum, so records retired during the current
     operation stay pinned (conservative and safe mid-operation). *)
  let flush c =
    if Limbo_bag.size c.bag > 0 then begin
      ignore (Rt.faa c.b.epoch 1);
      let min_ann = ref max_int in
      for t = 0 to c.b.n - 1 do
        let a = Rt.load c.b.ann.(t) in
        if a < !min_ann then min_ann := a
      done;
      let freed =
        Limbo_bag.sweep c.bag ~upto:(Limbo_bag.abs_tail c.bag)
          ~keep:(fun s -> c.b.retire_ep.(P.uid c.b.pool s) >= !min_ann)
          ~free:(fun s -> P.free c.b.pool s)
      in
      Smr_stats.add_freed c.st freed;
      Smr_stats.add_reclaim_events c.st 1;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
          Nbr_obs.Trace.Reclaim freed
          (Limbo_bag.size c.bag)
    end

  let on_pressure = flush
  let alloc ?cls c = P.alloc ~on_pressure:(fun () -> flush c) ?cls c.b.pool

  let retire c slot =
    P.note_retired c.b.pool slot;
    Smr_stats.add_retires c.st 1;
    c.b.retire_ep.(P.uid c.b.pool slot) <- Rt.load c.b.epoch;
    Limbo_bag.push c.bag slot;
    if Limbo_bag.size c.bag >= c.b.cfg.Smr_config.bag_threshold then
      if not (maybe_offload c) then flush c;
    let g = Limbo_bag.size c.bag in
    Smr_stats.note_garbage c.st g

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
