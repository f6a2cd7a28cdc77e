(** Hazard pointers (Michael, TPDS'04).

    Every dereference announces the target in a single-writer multi-reader
    hazard slot with a fenced publish (the paper models this with [xchg],
    whose implicit fence is cheaper than [mfence]; we do the same), then
    validates that the link it was read from is unchanged — in our
    structures every unlink modifies the link that was followed, so an
    unchanged link proves the target is not yet retired and the
    announcement was made in time.  Validation failure aborts the read
    phase through the checkpoint (the "restart" obligation HP imposes on
    data structures, paper §2/§5.3).

    Hazard slots rotate through a window of [max_reservations + 2], which
    preserves hand-over-hand protection for list/tree traversals and keeps
    the reservations passed to [phase]'s write stage protected.

    Bounded: at most (window × threads) records can be pinned. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)

  type shared = {
    window : int;
    hazards : Rt.aint array array;  (** [hazards.(tid).(i)] *)
  }

  type local = {
    bag : Limbo_bag.t;
    mutable hpi : int;  (** rotation index *)
    scratch : int array;
  }

  let window cfg = cfg.Smr_config.max_reservations + 2

  module B = Smr_base.Make (Rt) (struct
    type inst = shared
    type thr = local

    let bounded_garbage = true

    let create_inst ~capacity:_ ~nthreads cfg =
      let window = window cfg in
      {
        window;
        (* Padded: hazard slots are stored (with a fence) on every guarded
           dereference by their owner and scanned by every reclaimer — the
           single most write-hot SWMR cells of any scheme here. *)
        hazards =
          Array.init nthreads (fun _ ->
              Array.init window (fun _ -> Rt.make_padded P.nil));
      }

    let create_thr ~nthreads cfg =
      {
        bag = Limbo_bag.create ();
        hpi = 0;
        scratch = Array.make (nthreads * window cfg) 0;
      }

    let size x = Limbo_bag.size x.bag

    (* Records in the bag carry no per-record metadata beyond the slot
       itself: the hazard scan pins by slot id. *)
    let push _ x slot = Limbo_bag.push x.bag slot
    let drain x = Limbo_bag.drain x.bag
    let exportable = size
    let export = drain

    let retract s tid =
      let hz = s.hazards.(tid) in
      for i = 0 to s.window - 1 do
        Rt.store hz.(i) P.nil
      done
  end)

  include B

  module W = Watchdog (struct
    let bag x = x.bag
  end)

  let scheme_name = "hp"
  let max_validate_retries = 64

  let end_op c =
    note_end_op c;
    let hz = c.b.shared.hazards.(c.tid) in
    for i = 0 to c.b.shared.window - 1 do
      Rt.store hz.(i) P.nil
    done;
    adopt_pending c

  (* The protected word: the entry-point cell [root] when [field < 0]
     (read_root), else pointer field [field] of record [src] (read_ptr,
     which passes the never-read [no_root]).  Plain arguments rather than
     a closure or an option keep the per-read path allocation-free. *)
  let no_root = Rt.make P.nil

  let link c root ~src ~field =
    if field < 0 then Rt.load root else P.raw_load_ptr c.b.pool src field

  (* Announce-and-validate: publish [target] read from the link, then
     check that the link still holds it, that the target has not been unlinked,
     and that the slot was not recycled under us.  The link re-read alone
     is insufficient for structures whose unlink splices an ancestor edge
     (DGT delete leaves the interior parent->leaf edge intact while both
     records retire) — the "check whether the record has already been
     unlinked" obligation the paper ascribes to HP (§2).  Failure aborts
     the read phase through the checkpoint. *)
  let protect_from c root ~src ~field =
    let hz = c.b.shared.hazards.(c.tid) in
    let x = c.local in
    let slot = x.hpi in
    x.hpi <- (x.hpi + 1) mod c.b.shared.window;
    let rec go tries =
      let p = link c root ~src ~field in
      if p < 0 then p
      else begin
        let s0 = P.stamp c.b.pool p in
        ignore (Rt.xchg hz.(slot) p) (* fenced publish *);
        let p' = link c root ~src ~field in
        if p = p' && P.live c.b.pool p && P.stamp c.b.pool p = s0 then begin
          if P.record_read c.b.pool p then Smr_stats.note_uaf c.st;
          p
        end
        else if tries >= max_validate_retries then raise Rt.Neutralized
        else go (tries + 1)
      end
    in
    go 0

  let read_root c root = protect_from c root ~src:(-1) ~field:(-1)
  let read_ptr c ~src ~field = protect_from c no_root ~src ~field

  (* [phase] is the shared restartable one: the reservations passed by
     the data structure are the last few records it protected, and the
     rotation window is sized so they are still live, so the write phase
     needs no further publication. *)

  (* HP cannot protect through a mark-tagged word (it does not know the
     encoding) — the P5 limitation the paper describes.  Structures that
     need [read_raw] (Harris list, traversal over marked nodes) must not be
     paired with HP; the benchmarks never do. *)
  let read_raw c ~src ~field = P.raw_load_ptr c.b.pool src field

  (* Hazard scan + sweep — the threshold-crossing body of [retire], also
     run threshold-free under pool pressure.  Own hazards are skipped, as
     in the retire-time scan: records in our bag were retired by us and
     are never touched again, whatever our hazard slots still point at.
     The crash watchdog runs first: HP is bounded, so a peer frozen past
     the death threshold is claimed, its hazard slots cleared and its bag
     orphaned.  No signals to re-send. *)
  let flush c =
    W.watchdog c ~on_round:(fun ~peer:_ ~round:_ -> ());
    let s = c.b.shared and x = c.local in
    if Limbo_bag.size x.bag > 0 then begin
      let k = ref 0 in
      for t = 0 to c.b.n - 1 do
        if t <> c.tid then
          for i = 0 to s.window - 1 do
            let v = Rt.load s.hazards.(t).(i) in
            if v >= 0 then begin
              x.scratch.(!k) <- v;
              incr k
            end
          done
      done;
      let a = Array.sub x.scratch 0 !k in
      Array.sort compare a;
      Array.blit a 0 x.scratch 0 !k;
      let freed =
        Limbo_bag.sweep x.bag ~upto:(Limbo_bag.abs_tail x.bag)
          ~keep:(fun slot -> Smr_base.mem_sorted x.scratch !k slot)
          ~free:(fun slot -> P.free c.b.pool slot)
      in
      Smr_stats.add_freed c.st freed;
      Smr_stats.add_reclaim_events c.st 1;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
          Nbr_obs.Trace.Reclaim freed (Limbo_bag.size x.bag)
    end

  let on_pressure = flush
  let alloc ?cls c = P.alloc ~on_pressure:(fun () -> flush c) ?cls c.b.pool

  let retire c slot =
    count_retire c slot;
    let bag = c.local.bag in
    Limbo_bag.push bag slot;
    if Limbo_bag.size bag >= c.b.cfg.Smr_config.bag_threshold then
      if not (maybe_offload c) then flush c;
    Smr_stats.note_garbage c.st (Limbo_bag.size bag)
end
