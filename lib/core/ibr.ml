(** 2GEIBR: two-global-epoch interval-based reclamation (Wen et al.,
    PPoPP'18) — the IBR variant the paper benchmarks.

    Every record carries two eras of metadata: the global era at
    allocation (birth) and at retirement.  Every thread announces an
    interval [lower, upper]: [lower] is the era at operation start and
    [upper] is ratcheted up to the current era at {e every dereference of a
    new record} — the per-read overhead the paper charges against P1/P3.
    A reclaimer frees a record iff its [birth, retire] interval intersects
    no announced interval.

    Bounded: a stalled thread pins a fixed interval, so only records whose
    lifetime overlaps it leak — everything born after the stall reclaims
    normally.

    Era protection shares HP's structure obligation (paper P5): the
    ratcheted upper bound only covers records reached through links that
    are re-read from {e live} sources.  A thread descheduled mid-traversal
    can wake inside a retired (but still pinned) record whose frozen link
    points at a record born {e after} the sleeper's announced upper bound —
    by then already swept, and no amount of ratcheting resurrects it.
    [read_ptr] therefore validates its source whenever the ratchet fires
    and aborts the read phase through the checkpoint, exactly like HP's
    announce-and-validate; and structures that traverse mark-tagged links
    of unlinked records ([read_raw]: Harris list and its hash-set buckets)
    are never paired with IBR, as with HP/HE. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)
  module L = Lifecycle.Make (Rt)

  type aint = Rt.aint
  type pool = P.t

  type t = {
    pool : P.t;
    n : int;
    cfg : Smr_config.t;
    era : Rt.aint;
    lo : Rt.aint array;
    hi : Rt.aint array;
    birth : Rt.cells;  (** per-record metadata (real algorithm state) *)
    retire_era : Rt.cells;
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
    mutable cached_hi : int;
    mutable alloc_count : int;
    (* interval snapshot scratch for reclamation *)
    slo : int array;
    shi : int array;
  }

  let scheme_name = "ibr"
  let bounded_garbage = true

  let inactive_lo = max_int
  let inactive_hi = -1

  let create pool ~nthreads cfg =
    P.set_generation_check pool (not cfg.Smr_config.unsafe_no_generation_check);
    {
      pool;
      n = nthreads;
      cfg;
      (* Padded: the era is bumped on retires and read per dereference;
         lo/hi are per-thread SWMR interval bounds scanned by reclaimers.
         The per-record birth/retire stamps below stay unpadded — they are
         capacity-sized and accessed with the record, not contended rows. *)
      era = Rt.make_padded 1;
      lo = Array.init nthreads (fun _ -> Rt.make_padded inactive_lo);
      hi = Array.init nthreads (fun _ -> Rt.make_padded inactive_hi);
      birth = Rt.make_cells (P.capacity pool) 0;
      retire_era = Rt.make_cells (P.capacity pool) 0;
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
        cached_hi = 0;
        alloc_count = 0;
        slo = Array.make b.n inactive_lo;
        shi = Array.make b.n inactive_hi;
      }
    in
    b.ctxs.(tid) <- Some c;
    c

  let begin_op c =
    L.check_self c.b.lc c.tid;
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.Begin_op 0
        0;
    let e = Rt.load c.b.era in
    Rt.store c.b.lo.(c.tid) e;
    Rt.store c.b.hi.(c.tid) e;
    c.cached_hi <- e

  (* Orphan birth/retire eras live in the t-level metadata arrays, so the
     slots alone carry everything the interval sweep needs. *)
  let adopt_orphans c =
    let n =
      L.adopt c.b.lc ~tid:c.tid ~push:(fun slot -> Limbo_bag.push c.bag slot)
    in
    if n > 0 then Smr_stats.note_garbage c.st (Limbo_bag.size c.bag)

  (* Limbo-bag externalization (DESIGN.md §12).  Birth/retire eras live in
     the t-level metadata arrays, so handed-off slots carry everything the
     collector's interval sweep needs — the orphan-parcel argument. *)

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
    Rt.store c.b.lo.(c.tid) inactive_lo;
    Rt.store c.b.hi.(c.tid) inactive_hi;
    if L.has_orphans c.b.lc && L.is_active c.b.lc c.tid then adopt_orphans c

  (* Retract [tid]'s announced interval so it stops pinning records. *)
  let retract_published b tid =
    Rt.store b.lo.(tid) inactive_lo;
    Rt.store b.hi.(tid) inactive_hi

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

  (* Crash watchdog (see [Lifecycle]): IBR is bounded, so it takes part
     in recovery — a peer frozen past the death threshold is claimed, its
     interval retracted and its bag orphaned.  No signals to re-send. *)
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

  (* Interval scan + sweep — the threshold-crossing body of [retire],
     also run threshold-free under pool pressure.  Safe mid-operation:
     our own announced interval is part of the scan, so anything we might
     still dereference stays pinned. *)
  let flush c =
    watchdog c;
    if Limbo_bag.size c.bag > 0 then begin
      for t = 0 to c.b.n - 1 do
        c.slo.(t) <- Rt.load c.b.lo.(t);
        c.shi.(t) <- Rt.load c.b.hi.(t)
      done;
      let pinned s =
        let u = P.uid c.b.pool s in
        let birth = Rt.plain_load_at c.b.birth u in
        let death = Rt.plain_load_at c.b.retire_era u in
        let hit = ref false in
        for t = 0 to c.b.n - 1 do
          if (not !hit) && birth <= c.shi.(t) && death >= c.slo.(t) then
            hit := true
        done;
        !hit
      in
      let freed =
        Limbo_bag.sweep c.bag ~upto:(Limbo_bag.abs_tail c.bag) ~keep:pinned
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

  let alloc ?cls c =
    let slot = P.alloc ~on_pressure:(fun () -> flush c) ?cls c.b.pool in
    c.alloc_count <- c.alloc_count + 1;
    if c.alloc_count mod c.b.cfg.Smr_config.epoch_freq = 0 then
      ignore (Rt.faa c.b.era 1);
    (* Era metadata is per {e slot}, not per handle: [uid] keeps the
       arrays dense across size-classes and generations. *)
    Rt.store_at c.b.birth (P.uid c.b.pool slot) (Rt.load c.b.era);
    slot

  let retire c slot =
    P.note_retired c.b.pool slot;
    Smr_stats.add_retires c.st 1;
    Rt.store_at c.b.retire_era (P.uid c.b.pool slot) (Rt.load c.b.era);
    Limbo_bag.push c.bag slot;
    if Limbo_bag.size c.bag >= c.b.cfg.Smr_config.bag_threshold then
      if not (maybe_offload c) then flush c;
    let g = Limbo_bag.size c.bag in
    Smr_stats.note_garbage c.st g

  (* IBR imposes the same restart obligation on structures as HP: a
     dereference that cannot be revalidated aborts the read phase through
     the checkpoint (see [guarded_read]). *)
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

  (* The 2GE per-dereference protocol (Wen et al., fig. 4): read the
     pointer, then check that the global era still equals the announced
     upper bound; if not, extend the announcement and re-read.  The value
     finally returned was read while [hi = era], so its birth era is
     covered by the announced interval.

     That induction has a second leg: the re-read only proves anything if
     the cell reflects the current structure.  When the ratchet fires, the
     era moved while we held the cell — potentially a whole deschedule, in
     which [src] itself may have been retired.  Its links are then frozen
     stale copies: they can point at a record born after our old upper
     bound that a sweep (correctly) never saw as pinned and has already
     freed, and re-reading the frozen cell just returns the same dangling
     value.  So a fired ratchet validates that the source is still live,
     and aborts the read phase through the checkpoint when it is not —
     HP's validation obligation, surfacing in IBR only on the era-moved
     slow path.  ([src] is [-1] for the root: structure heads are never
     retired, so their cells are always current and need no validation.
     The word itself is addressed as in [Hp.link]: [root] when
     [field < 0], else pointer field [field] of [src], with the never-read
     [no_root] in [root].  Int sentinels rather than options keep the
     per-read fast path allocation-free.) *)
  let no_root = Rt.make P.nil

  let link c root ~src ~field =
    if field < 0 then Rt.load root else P.raw_load_ptr c.b.pool src field

  let guarded_read c root ~src ~field =
    let rec loop () =
      let v = link c root ~src ~field in
      let e = Rt.plain_load c.b.era in
      if e <> c.cached_hi then begin
        Rt.store c.b.hi.(c.tid) e;
        c.cached_hi <- e;
        (* [unsafe_ibr_no_validate] is ablation A3: skipping this check
           reintroduces the PR 4 frozen-link unsoundness, which the
           schedule-explorer regression re-finds from a certificate. *)
        if
          src >= 0
          && (not c.b.cfg.Smr_config.unsafe_ibr_no_validate)
          && not (P.live c.b.pool src)
        then raise Rt.Neutralized;
        loop ()
      end
      else v
    in
    let v = loop () in
    if v >= 0 && P.record_read c.b.pool v then Smr_stats.note_uaf c.st;
    v

  let read_root c root = guarded_read c root ~src:(-1) ~field:(-1)
  let read_ptr c ~src ~field = guarded_read c no_root ~src ~field

  (* Interval protection covers targets of guarded dereferences, so data
     reads of an already-covered record need no ratchet.  A [Stale]
     result is the frozen-link unsoundness surfacing (possible only with
     ablation A3, or through the paper's P5-style misuse): the foil-like
     honest behaviour is to consume the recycled memory and let
     [record_read] convict the access — which is exactly what the
     stored-certificate regression replays. *)
  let read_data c ~src ~field =
    match P.read_data c.b.pool src field with
    | P.Value v -> v
    | P.Stale v ->
        if P.record_read c.b.pool src then Smr_stats.note_uaf c.st;
        v

  let peek_ptr c ~src ~field =
    match P.read_ptr c.b.pool src field with
    | P.Value v -> v
    | P.Stale v ->
        if P.record_read c.b.pool src then Smr_stats.note_uaf c.st;
        v

  (* Mark-tagged links are read out of unlinked records (Harris traversal),
     where no liveness validation is possible — the P5 limitation, exactly
     as for HP/HE.  Structures that need [read_raw] are never paired with
     IBR; the ratchet is kept so the announced interval stays monotone. *)
  let read_raw c ~src ~field =
    let rec loop () =
      let v = P.raw_load_ptr c.b.pool src field in
      let e = Rt.plain_load c.b.era in
      if e <> c.cached_hi then begin
        Rt.store c.b.hi.(c.tid) e;
        c.cached_hi <- e;
        loop ()
      end
      else v
    in
    loop ()

  let ctx_stats (c : ctx) = c.st

  let stats b =
    let acc = Smr_stats.zero () in
    L.with_stats_lock b.lc (fun () -> Smr_stats.add acc b.done_stats);
    Array.iter (function None -> () | Some c -> Smr_stats.add acc c.st) b.ctxs;
    acc
end
