(** Thread lifecycle and crash recovery, shared by every scheme.

    PR 1's chaos plans crash threads mid-operation, orphaning their
    announcements, reservation rows and limbo bags; until now nothing
    ever recovered that memory, so one crash silently turned every
    bounded-garbage scheme into a leaky one.  This module is the common
    machinery behind the two recovery paths of DEBRA+-style robustness
    (Brown, PODC'17):

    - {e graceful leave} ([Smr_intf.S.deregister]): the departing thread
      publishes its buffered retires as {e orphan parcels} on a
      lock-free Treiber stack; any live thread adopts and drains them on
      a later [end_op]/[on_pressure] ([Smr_intf.S.adopt_orphans]).
    - {e crash detection} ({!scan}): schemes with a reclamation scan
      piggyback a watchdog on it.  Every thread's runtime heartbeat
      ({!Rt.heartbeat}) is a monotone counter advanced at each delivery
      point; a peer whose heartbeat stays frozen through exponentially
      spaced escalation rounds is declared dead — one watchdog wins the
      claim CAS, clears the victim's published rows (scheme-specific),
      drains its bag into orphan parcels, and folds its stats away.

    A claimed thread that turns out to be alive (a stall longer than the
    watchdog threshold) is {e expelled}: its next [begin_op] raises
    {!Smr_intf.Expelled} before it can touch shared state, so the claim
    is never racing a live owner through a later operation (one landing
    mid-operation meets the limbo bag's custody token: see [seize_bag]).
    The watchdog threshold ([Smr_config.wd_timeout_ns], escalated
    [wd_rounds] times) is therefore chosen an order of magnitude above
    any injected stall.

    Determinism: in the simulator heartbeats are exact and every scan
    step is a charged access of the single-domain scheduler, so watchdog
    verdicts — and the chaos trials built on them — replay bit-for-bit
    from a seed.  Natively the heartbeat reads are stale-tolerant plain
    loads; staleness only delays a verdict. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  type parcel = { origin : int; slots : int list }
  (** A dead or departed thread's buffered retires.  The records are
      already marked Retired in the pool; adopters re-buffer them as
      their own and free them through their normal sweeps. *)

  (* Per-thread lifecycle states.  Transitions:
       active --CAS(watchdog)--> claimed --> reaped --register--> active
       active --CAS(owner)----> departed --register--> active      *)
  let st_active = 0
  let st_claimed = 1
  let st_reaped = 2
  let st_departed = 3

  type t = {
    n : int;
    orphans : parcel Nbr_sync.Treiber.t;
    handoffs : parcel Nbr_sync.Treiber.t;
        (** limbo bags exported by live workers for the background
            reclaimer.  A separate channel from [orphans] on purpose:
            orphans are anyone's to adopt on the next [end_op], while a
            handoff is addressed to whoever plays the reclaimer role —
            workers must not race it for parcels they just shed. *)
    seized : (int * Limbo_bag.t) list Atomic.t;
        (** bags the watchdog took from claimed peers, with their
            origins: a claimed peer that is in fact alive may still hand
            entries over (see {!seize_bag}) *)
    state : Rt.aint array;  (** padded per-thread lifecycle state *)
    stats_lock : Rt.aint;  (** guards [done_stats] folds (cold paths only) *)
    (* Watchdog freshness bookkeeping.  Plain host arrays written by
       whichever thread runs a scan: races lose an observation at worst,
       which delays a verdict; the claim CAS above is the only
       irreversible step and it is properly serialized. *)
    hb_seen : int array;
    hb_seen_at : int array;  (** 0 = not yet observed *)
    round : int array;
  }

  let create ~nthreads =
    {
      n = nthreads;
      orphans = Nbr_sync.Treiber.create ();
      handoffs = Nbr_sync.Treiber.create ();
      seized = Nbr_sync.Padded.make [];
      state = Array.init nthreads (fun _ -> Rt.make_padded st_active);
      stats_lock = Rt.make_padded 0;
      hb_seen = Array.make nthreads 0;
      hb_seen_at = Array.make nthreads 0;
      round = Array.make nthreads 0;
    }

  (* Called by [register]: make the slot live (again) and forget stale
     watchdog bookkeeping from a previous occupant. *)
  let reset_slot l tid =
    l.hb_seen.(tid) <- 0;
    l.hb_seen_at.(tid) <- 0;
    l.round.(tid) <- 0;
    Rt.store l.state.(tid) st_active

  let is_active l tid = Rt.load l.state.(tid) = st_active

  (** The expulsion check at the top of every [begin_op].  Gated on
      fault injection being active: claims only ever happen under an
      installed fault decider, so fault-free runs (every benchmark) pay
      one not-taken branch.  Raising {e before} the operation touches
      any shared state is what makes a mistaken claim of a live-but-slow
      thread safe: the victim retires instead of racing its reaper. *)
  let check_self l tid =
    if Rt.fault_injection_active () && not (is_active l tid) then
      raise Smr_intf.Expelled

  (** CAS-out for a graceful leave; false means a watchdog claimed us
      first and owns our state — the caller must touch nothing. *)
  let depart l tid = Rt.cas l.state.(tid) st_active st_departed

  (* done_stats folds come from deregistering owners and from [stats]
     readers — concurrent under churn, never on a hot path. *)
  let with_stats_lock l f =
    while not (Rt.cas l.stats_lock 0 1) do
      Rt.cpu_relax ()
    done;
    Fun.protect ~finally:(fun () -> Rt.store l.stats_lock 0) f

  let push_parcel l ~origin slots =
    if slots <> [] then begin
      (* Treiber cells are stdlib atomics (uncosted); charge the sim a
         CAS-sized publish like the pool's overflow path does. *)
      Rt.work 20;
      Nbr_sync.Treiber.push l.orphans { origin; slots }
    end

  (* One stdlib atomic load: cheap enough for every [end_op]. *)
  let has_orphans l = not (Nbr_sync.Treiber.is_empty l.orphans)

  let push_handoff l ~origin slots =
    if slots <> [] then begin
      Rt.work 20;
      Nbr_sync.Treiber.push l.handoffs { origin; slots }
    end

  (** Drain every handed-off parcel into the collector via [push] (one
      call per record); returns the number collected.  Same re-accounting
      contract as {!adopt} — the collector owns the records from here on
      and frees them through its normal sweeps. *)
  let take_handoffs l ~push =
    let total = ref 0 in
    let rec go () =
      match Nbr_sync.Treiber.pop l.handoffs with
      | None -> ()
      | Some p ->
          Rt.work 20;
          List.iter push p.slots;
          total := !total + List.length p.slots;
          go ()
    in
    go ();
    !total

  (** Drain every parcel into the adopter via [push] (one call per
      record); returns the number adopted.  The adopter must re-account
      the records as its own buffered garbage — orphans count against
      the adopter's bound, which is exactly what the strengthened chaos
      test checks. *)
  let adopt l ~tid ~push =
    let total = ref 0 in
    let rec go () =
      match Nbr_sync.Treiber.pop l.orphans with
      | None -> ()
      | Some p ->
          Rt.work 20;
          List.iter push p.slots;
          let k = List.length p.slots in
          total := !total + k;
          if !Nbr_obs.Trace.on then
            Nbr_obs.Trace.emit ~tid ~ns:(Rt.now_ns ())
              Nbr_obs.Trace.Orphan_adopted p.origin k;
          go ()
    in
    go ();
    !total

  (** Reaper side of a claim: take the claimed peer's limbo bag and
      return its entries for the orphan parcel.  The custody token of
      {!Limbo_bag} makes the transfer exactly-once even when the peer is
      alive and mid-sweep (a falsely-declared-dead native thread): the
      bag is then handed over when the peer's sweep ends, and whatever it
      hands over — or pushes before its next [begin_op] expels it — is
      collected into parcels by later {!scan}s. *)
  let seize_bag l ~origin bag =
    Limbo_bag.seize bag;
    let rec remember () =
      let old = Atomic.get l.seized in
      if not (Atomic.compare_and_set l.seized old ((origin, bag) :: old)) then
        remember ()
    in
    remember ();
    Limbo_bag.take_handed bag

  let collect_seized l =
    List.iter
      (fun (origin, bag) -> push_parcel l ~origin (Limbo_bag.take_handed bag))
      (Atomic.get l.seized)

  (** The watchdog scan, piggybacked on the reclamation path of every
      bounded-garbage scheme (and only those: DEBRA/QSBR/RCU keep their
      unbounded-foil role in the chaos suite).  For each active peer:
      record heartbeat freshness; once frozen past
      [timeout_ns * 2^round], escalate — emit [Heartbeat_timeout], run
      [on_round] (NBR re-sends its neutralization signal here), bump the
      round; frozen past [timeout_ns * 2^rounds], claim and [reap].
      Each scan first turns whatever reaped peers have handed over since
      into orphan parcels.  Runs only under an installed fault decider
      (see {!check_self}). *)
  let scan l ~self ~timeout_ns ~rounds ~on_round ~reap =
    if Rt.fault_injection_active () then begin
      collect_seized l;
      for t = 0 to l.n - 1 do
        if t <> self && is_active l t then begin
          let h = Rt.heartbeat t in
          let now = Rt.now_ns () in
          if h <> l.hb_seen.(t) || l.hb_seen_at.(t) = 0 then begin
            l.hb_seen.(t) <- h;
            l.hb_seen_at.(t) <- now;
            l.round.(t) <- 0
          end
          else begin
            let age = now - l.hb_seen_at.(t) in
            let r = l.round.(t) in
            if r < rounds then begin
              if age > timeout_ns lsl r then begin
                if !Nbr_obs.Trace.on then
                  Nbr_obs.Trace.emit ~tid:self ~ns:now
                    Nbr_obs.Trace.Heartbeat_timeout t r;
                on_round ~peer:t ~round:r;
                l.round.(t) <- r + 1
              end
            end
            else if age > timeout_ns lsl rounds then
              if Rt.cas l.state.(t) st_active st_claimed then begin
                if !Nbr_obs.Trace.on then
                  Nbr_obs.Trace.emit ~tid:self ~ns:(Rt.now_ns ())
                    Nbr_obs.Trace.Peer_declared_dead t h;
                reap t;
                Rt.store l.state.(t) st_reaped
              end
          end
        end
      done
    end

  (** Whether [t]'s heartbeat has been frozen longer than [timeout_ns]
      as of the last {!scan} observations: such a peer is not executing,
      so a pending signal will reach it before its next access and a
      broadcast handshake need not wait for its acknowledgement. *)
  let looks_stale l t ~timeout_ns =
    l.hb_seen_at.(t) > 0
    && Rt.heartbeat t = l.hb_seen.(t)
    && Rt.now_ns () - l.hb_seen_at.(t) > timeout_ns
end
