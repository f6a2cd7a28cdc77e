(** Shared machinery of NBR and NBR+ (Algorithm 1 of the paper).

    Contains everything except the [retire] policy, which is where the two
    schemes differ: reservations, the restartable flag discipline, the
    reader–reclaimer and writers' handshakes, [signalAll] and
    [reclaimFreeable].  {!Nbr.Make} and {!Nbr_plus.Make} instantiate this
    base and plug in Algorithm 1's and Algorithm 2's [retire]. *)

(* [read_raw] loads raw inside a restartable read phase: neutralization,
   not a validation, is what protects it. *)
[@@@alert "-nbr_raw"]

module Make
    (Rt : Nbr_runtime.Runtime_intf.S)
    (D : sig val descriptor : Smr_intf.scheme end) =
struct
  module P = Nbr_pool.Pool.Make (Rt)
  module L = Lifecycle.Make (Rt)

  type shared = {
    reservations : Rt.aint array array;
        (** [reservations.(tid).(i)]: swmr announcement slots (line 5). *)
    announce_ts : Rt.aint array;
        (** NBR+ per-thread even/odd broadcast timestamps (Algorithm 2);
            allocated here so the base can stay scheme-agnostic. *)
  }

  type local = {
    bag : Limbo_bag.t;
    scratch : int array;  (** collected reservations, sorted in place *)
    (* Handshake snapshots (one slot per peer), scratch for [broadcast]: *)
    hs_seen0 : int array;
    hs_hb0 : int array;
    (* NBR+ LoWatermark state (unused by plain NBR): *)
    scan_ts : int array;
    mutable first_lo : bool;
    mutable bookmark : int;
    mutable retires_since_scan : int;
    mutable published : int;
        (** leading reservation slots the last [end_read] wrote; every
            slot at or above it holds [nil] *)
  }

  module B = Smr_base.Make (Rt) (struct
    type inst = shared
    type thr = local

    let descriptor = D.descriptor

    let create_inst ~capacity:_ ~nthreads cfg =
      {
        (* Padded cells: each thread's SWMR slots are written on every
           [end_read] and scanned by every reclaimer — unpadded, eight
           threads' worth of [Atomic.t] blocks pack into one cache line
           and every publication invalidates every reader's line. *)
        reservations =
          Array.init nthreads (fun _ ->
              Array.init cfg.Smr_config.max_reservations (fun _ ->
                  Rt.make_padded P.nil));
        announce_ts = Array.init nthreads (fun _ -> Rt.make_padded 0);
      }

    let create_thr ~nthreads cfg =
      {
        bag = Limbo_bag.create ~capacity:(cfg.Smr_config.bag_threshold + 8) ();
        scratch = Array.make (nthreads * cfg.Smr_config.max_reservations) 0;
        hs_seen0 = Array.make nthreads 0;
        hs_hb0 = Array.make nthreads 0;
        scan_ts = Array.make nthreads 0;
        first_lo = true;
        bookmark = 0;
        retires_since_scan = 0;
        (* A row is all [nil] when created and after every [retract],
           and a tid registers again only after one: [deregister] and
           the watchdog's reaping both retract. *)
        published = 0;
      }

    let size x = Limbo_bag.size x.bag

    (* Flattened slot lists are conservatively safe: adopters and the
       reclaimer re-buffer them as freshly retired. *)
    let push _ x slot = Limbo_bag.push x.bag slot
    let drain x = Limbo_bag.drain x.bag
    let exportable = size
    let export = drain

    (* Reservations to nil, and a dead broadcaster's announce_ts rounded
       up to even so NBR+ LoWatermark scanners never treat its aborted
       broadcast as forever in-flight. *)
    let retract s tid =
      let res = s.reservations.(tid) in
      for i = 0 to Array.length res - 1 do
        Rt.store res.(i) P.nil
      done;
      let v = Rt.load s.announce_ts.(tid) in
      if v land 1 = 1 then Rt.store s.announce_ts.(tid) (v + 1)
  end)

  include B

  module W = Watchdog (struct
    let bag x = x.bag
  end)

  (* ------------------------------------------------------------------ *)
  (* Read/write phase protocol (Algorithm 1, lines 6–13).                *)

  (* Only the owner stores a non-nil value into its row, and only in
     [end_read], slots [0 .. published-1]; [retract] stores [nil] into
     every slot.  So every slot at or above [published] already holds
     [nil], and clearing just the leading [published] slots leaves the
     row exactly as clearing all of them would: only stores of [nil]
     over [nil] are skipped.  After a read-only phase that is every
     store.  The clearing stays here: folded into the next [end_read],
     it would leave a different state, in which a reader stalled inside
     its next read phase still pins its last write phase's records. *)
  let begin_read c =
    let res = c.b.shared.reservations.(c.tid) in
    let x = c.local in
    for i = 0 to x.published - 1 do
      Rt.store res.(i) P.nil
    done;
    x.published <- 0;
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
    let res = c.b.shared.reservations.(c.tid) in
    let r = Array.length recs in
    assert (r <= Array.length res);
    (* Before the stores: a signal delivered between two of them raises
       [Neutralized] from the second one's prologue, and the slots
       already written must still be cleared by the retry's
       [begin_read]. *)
    c.local.published <- r;
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
       mutant [nbr_end_read_recheck] (test/mutants) removes it. *)
    if Rt.consume_pending_t c.tid then raise Rt.Neutralized;
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

  (* One attempt of a read phase.  A function of its own, so that the
     replay closure [read_phase] allocates per phase captures this and
     its arguments rather than every helper the attempt calls. *)
  let read_attempt c read recs attempts =
    incr attempts;
    note_attempt c !attempts;
    begin_read c;
    let r =
      match read c with r -> r | exception P.Stale _ -> B.restart_stale c
    in
    end_read c (recs r);
    r

  (* The restartable read phase of both verbs: [read], then publish the
     reservations [recs] picks out of its result.  A write phase runs
     after it returns: the thread is non-restartable by then, so the
     checkpoint could never replay it, and a lookup needs no payload
     tuple. *)
  let read_phase c read recs =
    let attempts = ref 0 in
    let out = Rt.checkpoint (fun () -> read_attempt c read recs attempts) in
    Smr_stats.add_restarts c.st (!attempts - 1);
    out

  let phase c ~read ~write =
    run_write c write (fst (read_phase c read.read snd))
  let read_only c v = read_phase c v.view (fun _ -> [||])

  (* ------------------------------------------------------------------ *)
  (* Guarded traversal.                                                  *)

  (* [poll_t c.tid] rather than [poll ()]: the context already knows its
     tid, so the per-dereference DLS lookup the argless form pays in the
     native runtime disappears from the hottest path in the system. *)

  (* A stale [src] — the record was freed under us, only possible in the
     native poll window (exact delivery in the sim neutralizes us first)
     — raises [P.Stale] to [read_phase].  We are restartable by protocol,
     so it abandons the read phase instead of traversing recycled memory;
     the restart bookkeeping classifies the detected read as benign. *)
  let read_ptr c ~src ~field =
    Rt.poll_t c.tid;
    let v = P.read_ptr c.b.pool src field in
    if v >= 0 && P.record_read c.b.pool v then Smr_stats.note_uaf c.st;
    v

  (* Validated read-phase reads of non-pointer state (keys, marks,
     structural predicates): a poll point, then the shared layer's
     read, which restarts on stale through [read_phase] — [read_ptr]'s
     discipline minus the target protection, since nothing is
     dereferenced. *)

  let read_data c ~src ~field =
    Rt.poll_t c.tid;
    B.read_data c ~src ~field

  let peek_ptr c ~src ~field =
    Rt.poll_t c.tid;
    B.peek_ptr c ~src ~field

  (* The dereference of [src] is reported here rather than through
     [note_read]: this is the Harris list's per-node read, and the
     shared layer's function would cost a call per node. *)
  let read_raw c ~src ~field =
    if P.record_read c.b.pool src then Smr_stats.note_uaf c.st;
    Rt.poll_t c.tid;
    P.raw_load_ptr c.b.pool src field

  (* ------------------------------------------------------------------ *)
  (* Reclamation (Algorithm 1, lines 14–24), with crash recovery: the
     watchdog re-sends the neutralization signal to a frozen peer at
     each escalation round, and broadcasts confirm their handshake when
     signal delivery is suspect.                                        *)

  let signal_all c =
    for t = 0 to c.b.n - 1 do
      if t <> c.tid then Rt.send_signal t
    done

  let watchdog c =
    W.watchdog c ~on_round:(fun ~peer ~round:_ -> Rt.send_signal peer)

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
    let x = c.local in
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
            Rt.signals_seen t <= x.hs_seen0.(t)
            && not (late && Rt.heartbeat t = x.hs_hb0.(t)))
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
      watchdog c
    end

  (* [signal_all], upgraded: runs the crash watchdog first, and — only
     when a fault decider is installed, i.e. delivery is suspect — the
     blocking confirmation above.  Fault-free runs keep the paper's
     wait-free fire-and-forget broadcast. *)
  let broadcast c =
    watchdog c;
    if Rt.fault_injection_active () then begin
      let x = c.local in
      for t = 0 to c.b.n - 1 do
        x.hs_seen0.(t) <- Rt.signals_seen t;
        x.hs_hb0.(t) <- Rt.heartbeat t
      done;
      signal_all c;
      confirm_broadcast c
    end
    else signal_all c

  (* Free every unreserved record retired before absolute bag position
     [upto].  Reservations are scanned {e after} signalling (writers'
     handshake step 3). *)
  let reclaim_freeable c ~upto =
    let x = c.local in
    let k = collect_published c c.b.shared.reservations x.scratch in
    sweep c x.bag ~upto ~keep:(fun slot -> Smr_base.mem_sorted x.scratch k slot)

  (* Algorithm 1's HiWatermark body, also run threshold-free under pool
     pressure: a full broadcast + sweep of a non-empty bag.  Legal
     wherever [alloc] is: the caller is non-restartable, holds no locks
     inside the SMR layer, and never touches records it has retired. *)
  let flush c =
    let bag = c.local.bag in
    if Limbo_bag.size bag > 0 then begin
      broadcast c;
      reclaim_freeable c ~upto:(Limbo_bag.abs_tail bag);
      Smr_stats.add_reclaim_events c.st 1
    end
    else watchdog c

  (* Buffer an unlinked record: the tail of both schemes' [retire]. *)
  let bag_push c slot =
    let bag = c.local.bag in
    Limbo_bag.push bag slot;
    let n = Limbo_bag.size bag in
    if !Nbr_obs.Trace.on then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.Bag_push
        slot n;
    Smr_stats.note_garbage c.st n

  (* NBR and NBR+ keep the shared layer's operation start and end. *)
  let op c body = bracket ~begin_op ~end_op c body
  let abandon = begin_op
end
