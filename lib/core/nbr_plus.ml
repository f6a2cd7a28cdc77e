(** NBR+: NBR with opportunistic reclamation (paper Algorithm 2).

    The insight: one thread's reclamation event neutralizes {e everyone},
    so during the resulting {e relaxed grace period} (RGP) every record
    already in any limbo bag becomes either reserved or safe.  A thread
    whose bag has crossed the LoWatermark therefore bookmarks its bag tail,
    snapshots everyone's broadcast timestamps, and waits: if it later
    observes some other thread's timestamp complete a full begin/end cycle
    (even → even, +2), an RGP has elapsed and it may free everything up to
    its bookmark {e without sending a single signal}.  Only a thread whose
    bag fills to the HiWatermark pays for a broadcast of its own.

    Timestamp parity: a thread increments its [announceTS] to an odd value
    before broadcasting and to an even value after (lines 7–9).

    Implementation note (parity round-up): Algorithm 2's check
    [announceTS ≥ scanTS + 2] is taken with the snapshot rounded up to the
    next even value.  For an odd snapshot (a broadcast was mid-flight when
    we bookmarked), [+2] alone would accept the completion of that same
    in-flight broadcast — whose earlier signals may predate our bookmark —
    plus the {e beginning} of the next; rounding up demands a broadcast
    that began strictly after the bookmark, which is what the safety
    argument (Lemma 9) actually needs. *)

let scheme_name = "nbr+"
let descriptor =
  { Smr_intf.name = scheme_name; bounded_garbage = true;
    protection = Neutralization }

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  include Nbr_base.Make (Rt) (struct let descriptor = descriptor end)

  let cleanup c =
    c.local.first_lo <- true;
    c.local.retires_since_scan <- 0

  (* A full HiWatermark broadcast and sweep, with the announce-timestamp
     parity kept up so peers waiting at their LoWatermark can count this
     RGP towards their own signal-free reclamation. *)
  let reclaim_all c =
    let ts = c.b.shared.announce_ts.(c.tid) in
    ignore (Rt.faa ts 1) (* odd: broadcasting  *);
    broadcast c;
    ignore (Rt.faa ts 1) (* even: RGP complete *);
    reclaim_freeable c ~upto:(Limbo_bag.abs_tail c.local.bag);
    Smr_stats.add_reclaim_events c.st 1;
    cleanup c

  (* Pool-pressure flush: the HiWatermark body regardless of bag size. *)
  let on_pressure c =
    if Limbo_bag.size c.local.bag > 0 then reclaim_all c else watchdog c

  let register = register_flushing ~flush:on_pressure

  (* Algorithm 2, lines 5–26.  Its watermarks are tested before the push
     and the LoWatermark path has no flush at all, so this is not the
     shared [buffer_retired]. *)
  let retire c slot =
    count_retire c slot;
    let open Smr_config in
    let cfg = c.b.cfg and x = c.local in
    let ts = c.b.shared.announce_ts in
    let size = Limbo_bag.size x.bag in
    if size >= cfg.bag_threshold then begin
      (* HiWatermark — first offered to the background reclaimer: an
         accepted handoff costs one channel push where an RGP of our own
         costs n-1 signals.  The bookmark state resets either way. *)
      if maybe_offload c then cleanup c else reclaim_all c
    end
    else if size >= cfg.lo_watermark then begin
      if x.first_lo then begin
        (* First retire past the LoWatermark: bookmark and snapshot
           (lines 13–16), rounding odd timestamps up — see note above. *)
        x.bookmark <- Limbo_bag.abs_tail x.bag;
        for t = 0 to c.b.n - 1 do
          let v = Rt.load ts.(t) in
          x.scan_ts.(t) <- v + (v land 1)
        done;
        x.first_lo <- false;
        x.retires_since_scan <- 0
      end
      else begin
        (* Amortized RGP scan (footnote c). *)
        x.retires_since_scan <- x.retires_since_scan + 1;
        if x.retires_since_scan >= cfg.scan_period then begin
          x.retires_since_scan <- 0;
          let rgp = ref false in
          let t = ref 0 in
          while (not !rgp) && !t < c.b.n do
            if !t <> c.tid && Rt.load ts.(!t) >= x.scan_ts.(!t) + 2 then
              rgp := true;
            incr t
          done;
          if !rgp then begin
            reclaim_freeable c ~upto:x.bookmark;
            Smr_stats.add_lo_reclaims c.st 1;
            cleanup c
          end
        end
      end
    end;
    bag_push c slot
end
