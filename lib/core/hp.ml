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
  module L = Lifecycle.Make (Rt)

  type aint = Rt.aint
  type pool = P.t

  type t = {
    pool : P.t;
    n : int;
    cfg : Smr_config.t;
    window : int;
    hazards : Rt.aint array array;  (** [hazards.(tid).(i)] *)
    lc : L.t;
    done_stats : Smr_stats.t;
    mutable ctxs : ctx option array;
    mutable offload : Smr_intf.Offload.t option;
  }

  and ctx = {
    b : t;
    tid : int;
    bag : Limbo_bag.t;
    st : Smr_stats.t;
    mutable hpi : int;  (** rotation index *)
    scratch : int array;
  }

  let scheme_name = "hp"
  let bounded_garbage = true
  let max_validate_retries = 64

  let create pool ~nthreads cfg =
    P.set_generation_check pool (not cfg.Smr_config.unsafe_no_generation_check);
    let window = cfg.Smr_config.max_reservations + 2 in
    {
      pool;
      n = nthreads;
      cfg;
      window;
      (* Padded: hazard slots are stored (with a fence) on every guarded
         dereference by their owner and scanned by every reclaimer — the
         single most write-hot SWMR cells of any scheme here. *)
      hazards =
        Array.init nthreads (fun _ ->
            Array.init window (fun _ -> Rt.make_padded P.nil));
      lc = L.create ~nthreads;
      done_stats = Smr_stats.zero ();
      ctxs = Array.make nthreads None;
      offload = None;
    }

  let set_offload b o = b.offload <- o

  let register b ~tid =
    L.reset_slot b.lc tid;
    let c =
      {
        b;
        tid;
        bag = Limbo_bag.create ();
        st = Smr_stats.zero ();
        hpi = 0;
        scratch = Array.make (b.n * b.window) 0;
      }
    in
    b.ctxs.(tid) <- Some c;
    c

  let begin_op c =
    L.check_self c.b.lc c.tid;
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.Begin_op 0
        0

  let adopt_orphans c =
    let n =
      L.adopt c.b.lc ~tid:c.tid ~push:(fun slot -> Limbo_bag.push c.bag slot)
    in
    if n > 0 then Smr_stats.note_garbage c.st (Limbo_bag.size c.bag)

  (* Limbo-bag externalization (DESIGN.md §12).  Records in the bag carry
     no per-record metadata beyond the slot itself: the collector's hazard
     scan pins by slot id, so handing the bag over is exactly the
     orphan-parcel argument. *)

  let limbo_size c = Limbo_bag.size c.bag

  let export_bag c =
    let slots = Limbo_bag.drain c.bag in
    L.push_handoff c.b.lc ~origin:c.tid slots;
    List.length slots

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
    let hz = c.b.hazards.(c.tid) in
    for i = 0 to c.b.window - 1 do
      Rt.store hz.(i) P.nil
    done;
    if L.has_orphans c.b.lc && L.is_active c.b.lc c.tid then adopt_orphans c

  (* Retract [tid]'s hazard slots so they stop pinning records. *)
  let retract_published b tid =
    let hz = b.hazards.(tid) in
    for i = 0 to b.window - 1 do
      Rt.store hz.(i) P.nil
    done

  let orphan_ctx b ~into (vc : ctx) slots =
    L.push_parcel b.lc ~origin:vc.tid slots;
    Smr_stats.add into vc.st;
    b.ctxs.(vc.tid) <- None

  let deregister c =
    if L.depart c.b.lc c.tid then begin
      (* Hand the departing thread's magazine caches back to the depot:
         an abandoned magazine would strand up to a magazine's worth of
         free slots per size class.  Safe here: we won the depart CAS, so
         no watchdog owns this tid's state. *)
      P.flush_thread c.b.pool ~tid:c.tid;
      retract_published c.b c.tid;
      let slots = Limbo_bag.drain c.bag in
      L.with_stats_lock c.b.lc (fun () ->
          orphan_ctx c.b ~into:c.b.done_stats c slots)
    end

  (* Crash watchdog (see [Lifecycle]): HP is bounded, so it takes part in
     recovery — a peer frozen past the death threshold is claimed, its
     hazard slots cleared and its bag orphaned.  No signals to re-send. *)
  let watchdog c =
    L.scan c.b.lc ~self:c.tid ~timeout_ns:c.b.cfg.Smr_config.wd_timeout_ns
      ~rounds:c.b.cfg.Smr_config.wd_rounds
      ~on_round:(fun ~peer:_ ~round:_ -> ())
      ~reap:(fun v ->
        P.flush_thread c.b.pool ~tid:v;
        retract_published c.b v;
        match c.b.ctxs.(v) with
        | None -> ()
        | Some vc ->
            orphan_ctx c.b ~into:c.st vc
              (L.seize_bag c.b.lc ~origin:vc.tid vc.bag))

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
    let hz = c.b.hazards.(c.tid) in
    let slot = c.hpi in
    c.hpi <- (c.hpi + 1) mod c.b.window;
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

  (* Data reads only ever target records the traversal just protected, so
     a [Stale] result means the protection race was lost after all (the
     validation window of [protect_from] closed on a copy) — abort the
     read phase like any failed validation rather than consume recycled
     memory. *)
  let read_data c ~src ~field =
    match P.read_data c.b.pool src field with
    | P.Value v -> v
    | P.Stale _ ->
        Smr_stats.note_uaf c.st;
        raise Rt.Neutralized

  let peek_ptr c ~src ~field =
    match P.read_ptr c.b.pool src field with
    | P.Value v -> v
    | P.Stale _ ->
        Smr_stats.note_uaf c.st;
        raise Rt.Neutralized

  (* HP cannot protect through a mark-tagged word (it does not know the
     encoding) — the P5 limitation the paper describes.  Structures that
     need [read_raw] (Harris list, traversal over marked nodes) must not be
     paired with HP; the benchmarks never do. *)
  let read_raw c ~src ~field = P.raw_load_ptr c.b.pool src field

  (* The reservations passed by the data structure are the last few records
     it protected; the rotation window is sized so they are still live, so
     the write phase needs no further publication. *)
  let phase c ~read ~write =
    let attempts = ref 0 in
    let out =
      Rt.checkpoint (fun () ->
          incr attempts;
          if !attempts > 1 then Smr_stats.uaf_abort c.st;
          let payload, _recs = read () in
          Smr_stats.uaf_commit c.st;
          write payload)
    in
    Smr_stats.add_restarts c.st (!attempts - 1);
    out

  let read_only c f =
    let attempts = ref 0 in
    let out =
      Rt.checkpoint (fun () ->
          incr attempts;
          if !attempts > 1 then Smr_stats.uaf_abort c.st;
          let r = f () in
          Smr_stats.uaf_commit c.st;
          r)
    in
    Smr_stats.add_restarts c.st (!attempts - 1);
    out

  let mem_sorted a n x =
    let rec go lo hi =
      if lo >= hi then false
      else
        let mid = (lo + hi) / 2 in
        if a.(mid) = x then true
        else if a.(mid) < x then go (mid + 1) hi
        else go lo mid
    in
    go 0 n

  (* Hazard scan + sweep — the threshold-crossing body of [retire], also
     run threshold-free under pool pressure.  Own hazards are skipped, as
     in the retire-time scan: records in our bag were retired by us and
     are never touched again, whatever our hazard slots still point at. *)
  let flush c =
    watchdog c;
    if Limbo_bag.size c.bag > 0 then begin
      let k = ref 0 in
      for t = 0 to c.b.n - 1 do
        if t <> c.tid then
          for i = 0 to c.b.window - 1 do
            let v = Rt.load c.b.hazards.(t).(i) in
            if v >= 0 then begin
              c.scratch.(!k) <- v;
              incr k
            end
          done
      done;
      let a = Array.sub c.scratch 0 !k in
      Array.sort compare a;
      Array.blit a 0 c.scratch 0 !k;
      let freed =
        Limbo_bag.sweep c.bag ~upto:(Limbo_bag.abs_tail c.bag)
          ~keep:(fun s -> mem_sorted c.scratch !k s)
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
    Limbo_bag.push c.bag slot;
    if Limbo_bag.size c.bag >= c.b.cfg.Smr_config.bag_threshold then
      if not (maybe_offload c) then flush c;
    let g = Limbo_bag.size c.bag in
    Smr_stats.note_garbage c.st g

  let ctx_stats (c : ctx) = c.st

  let stats b =
    let acc = Smr_stats.zero () in
    L.with_stats_lock b.lc (fun () -> Smr_stats.add acc b.done_stats);
    Array.iter (function None -> () | Some c -> Smr_stats.add acc c.st) b.ctxs;
    acc
end
