(** Shared machinery of NBR and NBR+ (Algorithm 1 of the paper).

    Contains everything except the [retire] policy, which is where the two
    schemes differ: reservations, the restartable flag discipline, the
    reader–reclaimer and writers' handshakes, [signalAll] and
    [reclaimFreeable].  {!Nbr.Make} and {!Nbr_plus.Make} instantiate this
    base and plug in Algorithm 1's and Algorithm 2's [retire]. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)
  module L = Lifecycle.Make (Rt)

  type aint = Rt.aint
  type pool = P.t

  type t = {
    pool : P.t;
    n : int;
    cfg : Smr_config.t;
    reservations : Rt.aint array array;
        (** [reservations.(tid).(i)]: swmr announcement slots (line 5). *)
    announce_ts : Rt.aint array;
        (** NBR+ per-thread even/odd broadcast timestamps (Algorithm 2);
            allocated here so the base can stay scheme-agnostic. *)
    lc : L.t;  (** thread lifecycle: orphan parcels + crash watchdog *)
    done_stats : Smr_stats.t;  (** folded in from finished contexts *)
    mutable ctxs : ctx option array;
    mutable offload : Smr_intf.Offload.t option;
        (** background-reclamation switchboard; None = inline only *)
  }

  and ctx = {
    b : t;
    tid : int;
    bag : Limbo_bag.t;
    scratch : int array;  (** collected reservations, sorted in place *)
    st : Smr_stats.t;
    (* Handshake snapshots (one slot per peer), scratch for [broadcast]: *)
    hs_seen0 : int array;
    hs_hb0 : int array;
    (* NBR+ LoWatermark state (unused by plain NBR): *)
    scan_ts : int array;
    mutable first_lo : bool;
    mutable bookmark : int;
    mutable retires_since_scan : int;
  }

  let create pool ~nthreads cfg =
    P.set_generation_check pool (not cfg.Smr_config.unsafe_no_generation_check);
    {
      pool;
      n = nthreads;
      cfg;
      (* Padded cells: each thread's SWMR slots are written on every
         [end_read] and scanned by every reclaimer — unpadded, eight
         threads' worth of [Atomic.t] blocks pack into one cache line and
         every publication invalidates every reader's line. *)
      reservations =
        Array.init nthreads (fun _ ->
            Array.init cfg.Smr_config.max_reservations (fun _ ->
                Rt.make_padded P.nil));
      announce_ts = Array.init nthreads (fun _ -> Rt.make_padded 0);
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
        bag = Limbo_bag.create ~capacity:(b.cfg.Smr_config.bag_threshold + 8) ();
        scratch = Array.make (b.n * b.cfg.Smr_config.max_reservations) 0;
        st = Smr_stats.zero ();
        hs_seen0 = Array.make b.n 0;
        hs_hb0 = Array.make b.n 0;
        scan_ts = Array.make b.n 0;
        first_lo = true;
        bookmark = 0;
        retires_since_scan = 0;
      }
    in
    b.ctxs.(tid) <- Some c;
    c

  (* ------------------------------------------------------------------ *)
  (* Read/write phase protocol (Algorithm 1, lines 6–13).                *)

  let begin_read c =
    let res = c.b.reservations.(c.tid) in
    for i = 0 to Array.length res - 1 do
      Rt.store res.(i) P.nil
    done;
    (* Signals sent while we held no pointers need no action (the paper's
       "quiescent/preamble" handler case). *)
    Rt.drain_signals_t c.tid;
    (* CAS(&restartable,0,1): the RMW orders the flag before any
       subsequent read of shared records (paper line 8 discussion). *)
    Rt.set_restartable_t c.tid true;
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
        Nbr_obs.Trace.Checkpoint_set 0 0

  let end_read c recs =
    let res = c.b.reservations.(c.tid) in
    let r = Array.length recs in
    assert (r <= Array.length res);
    for i = 0 to r - 1 do
      Rt.store res.(i) recs.(i)
    done;
    (* CAS(&restartable,1,0): fence broadcasting the reservations before
       the thread becomes non-restartable (paper line 12 discussion). *)
    Rt.set_restartable_t c.tid false;
    if !Nbr_obs.Trace.on then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
        Nbr_obs.Trace.Reservation_publish r 0;
    (* Polling runtimes: a signal that arrived before the publication
       completed may have been missed by the sender's scan; restart (no
       shared write has happened yet, so this is always legal).  The
       [unsafe_end_read] knob disables this for ablation A2. *)
    if
      (not c.b.cfg.Smr_config.unsafe_end_read)
      && Rt.consume_pending_t c.tid
    then raise Rt.Neutralized;
    (* The phase completed: any UAF reads it performed were acted on. *)
    Smr_stats.uaf_commit c.st

  (* A replay entering the checkpoint body again: between the Neutralized
     event of the aborted attempt and the Reservation_publish of the next
     successful one, which is what puts the four timeline events of a
     neutralized reader in causal order. *)
  let note_attempt c attempts =
    if attempts > 1 then begin
      (* The previous attempt was neutralized: its UAF reads (if any)
         were poll-window reads whose value was discarded — benign. *)
      Smr_stats.uaf_abort c.st;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.Restart
          (attempts - 1) 0
    end

  let phase c ~read ~write =
    let attempts = ref 0 in
    let out =
      Rt.checkpoint (fun () ->
          incr attempts;
          note_attempt c !attempts;
          begin_read c;
          let payload, recs = read () in
          end_read c recs;
          write payload)
    in
    Smr_stats.add_restarts c.st (!attempts - 1);
    out

  let read_only c f =
    let attempts = ref 0 in
    let out =
      Rt.checkpoint (fun () ->
          incr attempts;
          note_attempt c !attempts;
          begin_read c;
          let r = f () in
          end_read c [||];
          r)
    in
    Smr_stats.add_restarts c.st (!attempts - 1);
    out

  (* ------------------------------------------------------------------ *)
  (* Guarded traversal.                                                  *)

  (* [poll_t c.tid] rather than [poll ()]: the context already knows its
     tid, so the per-dereference DLS lookup the argless form pays in the
     native runtime disappears from the hottest path in the system. *)

  let read_root c root =
    Rt.poll_t c.tid;
    let v = Rt.load root in
    if v >= 0 && P.record_read c.b.pool v then Smr_stats.note_uaf c.st;
    v

  let read_ptr c ~src ~field =
    Rt.poll_t c.tid;
    match P.read_ptr c.b.pool src field with
    | P.Value v ->
        if v >= 0 && P.record_read c.b.pool v then Smr_stats.note_uaf c.st;
        v
    | P.Stale _ ->
        (* The source record was freed under us — only possible in the
           native poll window (exact delivery in the sim neutralizes us
           first).  We are restartable by protocol, so abandon the read
           phase instead of traversing recycled memory; the restart
           bookkeeping classifies the detected read as benign. *)
        Smr_stats.note_uaf c.st;
        raise Rt.Neutralized

  (* Validated read-phase reads of non-pointer state (keys, marks,
     structural predicates): same staleness discipline as [read_ptr],
     minus the target protection — nothing is dereferenced. *)

  let read_data c ~src ~field =
    Rt.poll_t c.tid;
    match P.read_data c.b.pool src field with
    | P.Value v -> v
    | P.Stale _ ->
        Smr_stats.note_uaf c.st;
        raise Rt.Neutralized

  let peek_ptr c ~src ~field =
    Rt.poll_t c.tid;
    match P.read_ptr c.b.pool src field with
    | P.Value v -> v
    | P.Stale _ ->
        Smr_stats.note_uaf c.st;
        raise Rt.Neutralized

  let read_raw c ~src ~field =
    Rt.poll_t c.tid;
    P.raw_load_ptr c.b.pool src field

  (* ------------------------------------------------------------------ *)
  (* Reclamation (Algorithm 1, lines 14–24).                             *)

  let signal_all c =
    for t = 0 to c.b.n - 1 do
      if t <> c.tid then Rt.send_signal t
    done

  (* ------------------------------------------------------------------ *)
  (* Crash recovery (see [Lifecycle]): reap a peer declared dead by the
     watchdog, and confirm broadcasts when signal delivery is suspect.   *)

  (* Retract [tid]'s published protection so it stops pinning records:
     reservations to nil, and a dead broadcaster's announce_ts rounded up
     to even so NBR+ LoWatermark scanners never treat its aborted
     broadcast as forever in-flight. *)
  let retract_published b tid =
    let res = b.reservations.(tid) in
    for i = 0 to Array.length res - 1 do
      Rt.store res.(i) P.nil
    done;
    let v = Rt.load b.announce_ts.(tid) in
    if v land 1 = 1 then Rt.store b.announce_ts.(tid) (v + 1)

  (* Publish [slots], the entries of [vc]'s limbo bag (drained by the
     owner on leave, seized by a reaper), as an orphan parcel and fold
     [vc]'s stats into [into] (the claimer's own, single-writer).  The records stay Retired
     in the pool; adopters re-buffer and free them through their sweeps. *)
  let orphan_ctx b ~into vc slots =
    L.push_parcel b.lc ~origin:vc.tid slots;
    Smr_stats.add into vc.st;
    b.ctxs.(vc.tid) <- None

  let reap_peer c victim =
    (* Reclaim the dead thread's magazines along with its bags. *)
    P.flush_thread c.b.pool ~tid:victim;
    retract_published c.b victim;
    match c.b.ctxs.(victim) with
    | None -> ()
    | Some vc ->
        orphan_ctx c.b ~into:c.st vc (L.seize_bag c.b.lc ~origin:vc.tid vc.bag)

  let watchdog c =
    L.scan c.b.lc ~self:c.tid ~timeout_ns:c.b.cfg.Smr_config.wd_timeout_ns
      ~rounds:c.b.cfg.Smr_config.wd_rounds
      ~on_round:(fun ~peer ~round:_ -> Rt.send_signal peer)
      ~reap:(fun v -> reap_peer c v)

  (* Wait until every live, executing peer has observed *some* signal
     since our pre-broadcast snapshot.  Any observation after the
     snapshot suffices: the observing thread restarts (or re-checks at
     end_read) after our retires were unlinked, which is all the
     handshake needs — the handler does not care who signalled.  Peers
     whose heartbeat freezes are dropped from the wait: a frozen peer is
     not executing, so its pending signal is delivered before its next
     access regardless (and the watchdog will deal with it if it stays
     frozen).  Peers that keep executing without observing — dropped
     signals — get escalating re-sends, then we give up: total wait is
     bounded by [wd_timeout_ns * 2^wd_rounds].

     The wait itself is exponential-backoff polling, not a busy spin:
     each unproductive check doubles a stall (capped at an eighth of the
     base timeout), so a writer stuck behind a slow acknowledger yields
     the core/fiber instead of burning it.  Giving up is itself an
     escalation: each still-unacked peer gets a [Handshake_timeout]
     event and one final watchdog scan — by now its heartbeat has been
     frozen through every backoff round, so a genuinely dead reader is
     claimed and reaped right here rather than wedging each subsequent
     broadcast for the full bounded wait. *)
  let confirm_broadcast c =
    let timeout = c.b.cfg.Smr_config.wd_timeout_ns in
    let rounds = c.b.cfg.Smr_config.wd_rounds in
    let t0 = Rt.now_ns () in
    let round = ref 0 in
    let backoff = ref 100 in
    let backoff_cap = max 100 (timeout / 8) in
    let unacked = ref [] in
    for t = c.b.n - 1 downto 0 do
      if
        t <> c.tid
        && L.is_active c.b.lc t
        && not (L.looks_stale c.b.lc t ~timeout_ns:timeout)
      then unacked := t :: !unacked
    done;
    let give_up = ref false in
    while (not !give_up) && !unacked <> [] do
      let late = Rt.now_ns () - t0 > timeout in
      unacked :=
        List.filter
          (fun t ->
            Rt.signals_seen t <= c.hs_seen0.(t)
            && not (late && Rt.heartbeat t = c.hs_hb0.(t)))
          !unacked;
      if !unacked <> [] then begin
        let age = Rt.now_ns () - t0 in
        if age > timeout lsl !round then
          if !round >= rounds then give_up := true
          else begin
            List.iter
              (fun t ->
                if !Nbr_obs.Trace.on then
                  Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
                    Nbr_obs.Trace.Heartbeat_timeout t !round;
                Rt.send_signal t)
              !unacked;
            incr round;
            backoff := 100
          end
        else begin
          (* Acknowledge peers' signals (and advance our own heartbeat)
             before sleeping, so two concurrently-confirming writers
             unblock each other; we are non-restartable here, so this
             only consumes. *)
          Rt.poll_t c.tid;
          Rt.stall_ns !backoff;
          backoff := min (2 * !backoff) backoff_cap
        end
      end
    done;
    if !give_up then begin
      Smr_stats.add_handshake_timeouts c.st (List.length !unacked);
      List.iter
        (fun t ->
          if !Nbr_obs.Trace.on then
            Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
              Nbr_obs.Trace.Handshake_timeout t rounds)
        !unacked;
      L.scan c.b.lc ~self:c.tid ~timeout_ns:timeout ~rounds
        ~on_round:(fun ~peer ~round:_ -> Rt.send_signal peer)
        ~reap:(fun v -> reap_peer c v)
    end

  (* [signal_all], upgraded: runs the crash watchdog first, and — only
     when a fault decider is installed, i.e. delivery is suspect — the
     blocking confirmation above.  Fault-free runs keep the paper's
     wait-free fire-and-forget broadcast. *)
  let broadcast c =
    watchdog c;
    if Rt.fault_injection_active () then begin
      for t = 0 to c.b.n - 1 do
        c.hs_seen0.(t) <- Rt.signals_seen t;
        c.hs_hb0.(t) <- Rt.heartbeat t
      done;
      signal_all c;
      confirm_broadcast c
    end
    else signal_all c

  (* Collect every other thread's reservations into [c.scratch], sorted;
     returns the count.  Scanned *after* signalling (writers' handshake
     step 3). *)
  let collect_reservations c =
    let k = ref 0 in
    for t = 0 to c.b.n - 1 do
      if t <> c.tid then begin
        let res = c.b.reservations.(t) in
        for i = 0 to Array.length res - 1 do
          let v = Rt.load res.(i) in
          if v >= 0 then begin
            c.scratch.(!k) <- v;
            incr k
          end
        done
      end
    done;
    let a = Array.sub c.scratch 0 !k in
    Array.sort compare a;
    Array.blit a 0 c.scratch 0 !k;
    !k

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

  (* Free every unreserved record retired before absolute bag position
     [upto]. *)
  let reclaim_freeable c ~upto =
    let k = collect_reservations c in
    let before = Limbo_bag.size c.bag in
    let freed =
      Limbo_bag.sweep c.bag ~upto
        ~keep:(fun slot -> mem_sorted c.scratch k slot)
        ~free:(fun slot -> P.free c.b.pool slot)
    in
    Smr_stats.add_freed c.st freed;
    if !Nbr_obs.Trace.on then begin
      let ns = Rt.now_ns () in
      Nbr_obs.Trace.emit ~tid:c.tid ~ns Nbr_obs.Trace.Bag_sweep before
        (before - freed);
      Nbr_obs.Trace.emit ~tid:c.tid ~ns Nbr_obs.Trace.Reclaim freed
        (Limbo_bag.size c.bag)
    end

  (* ------------------------------------------------------------------ *)

  (* Record the bounded-garbage high-water mark after a bag push. *)
  let note_buffered c n = Smr_stats.note_garbage c.st n

  let begin_op c =
    L.check_self c.b.lc c.tid;
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.Begin_op 0
        0

  (* Re-buffer departed/crashed threads' retires as our own: they free
     through our normal sweeps and count against *our* garbage bound. *)
  let adopt_orphans c =
    let n =
      L.adopt c.b.lc ~tid:c.tid ~push:(fun slot -> Limbo_bag.push c.bag slot)
    in
    if n > 0 then note_buffered c (Limbo_bag.size c.bag)

  (* ------------------------------------------------------------------ *)
  (* Limbo-bag externalization (DESIGN.md §12): the whole bag is drained
     into a lifecycle handoff parcel, exactly like [orphan_ctx] drains a
     dead thread's bag — flattened slot lists are conservatively safe
     because adopters re-buffer them as freshly retired. *)

  let limbo_size c = Limbo_bag.size c.bag

  let export_bag c =
    let slots = Limbo_bag.drain c.bag in
    L.push_handoff c.b.lc ~origin:c.tid slots;
    List.length slots

  let hand_off c = export_bag c

  (* Retire-path gate: offer the full bag to the reclaimer.  [false]
     means sweep inline — no offload installed, degraded, or the channel
     is backlogged (which flips the degrade switch as a side effect). *)
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
      note_buffered c (Limbo_bag.size c.bag);
      match c.b.offload with
      | Some o ->
          Smr_intf.Offload.note_collected o ~tid:c.tid ~ns:(Rt.now_ns ())
            ~count:n
      | None ->
          (* End-of-trial drain with the switchboard already gone: still
             emit the collection so the sanitizer's foreign-sweep credit
             and the trace timeline stay complete. *)
          if !Nbr_obs.Trace.on then
            Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
              Nbr_obs.Trace.Handoff_collect n 0
    end;
    n

  let end_op c =
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.End_op 0 0;
    (* One stdlib atomic load on the hot path; the active check guards a
       thread resuming after an [Expelled] verdict from adopting. *)
    if L.has_orphans c.b.lc && L.is_active c.b.lc c.tid then adopt_orphans c

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
  (* else: a watchdog claimed us first and owns all of this state. *)

  (* Threshold-independent reclamation event, for pool pressure: a full
     broadcast + sweep regardless of bag size (Algorithm 1's HiWatermark
     body, run early).  Legal wherever [alloc] is: the caller is
     non-restartable, holds no locks inside the SMR layer, and never
     touches records it has retired. *)
  let flush c =
    if Limbo_bag.size c.bag > 0 then begin
      broadcast c;
      reclaim_freeable c ~upto:(Limbo_bag.abs_tail c.bag);
      Smr_stats.add_reclaim_events c.st 1
    end
    else watchdog c

  let alloc ?cls c = P.alloc ~on_pressure:(fun () -> flush c) ?cls c.b.pool

  let note_retired c slot =
    P.note_retired c.b.pool slot;
    Smr_stats.add_retires c.st 1

  (* Buffer an unlinked record: the tail of both schemes' [retire]. *)
  let bag_push c slot =
    Limbo_bag.push c.bag slot;
    let n = Limbo_bag.size c.bag in
    if !Nbr_obs.Trace.on then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.Bag_push
        slot n;
    note_buffered c n

  let ctx_stats (c : ctx) = c.st

  let stats b =
    let acc = Smr_stats.zero () in
    L.with_stats_lock b.lc (fun () -> Smr_stats.add acc b.done_stats);
    Array.iter (function None -> () | Some c -> Smr_stats.add acc c.st) b.ctxs;
    acc
end
