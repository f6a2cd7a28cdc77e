(** Tuning knobs shared by all reclamation schemes.

    One record serves every scheme so the harness can sweep parameters
    uniformly; each scheme reads the fields that concern it and ignores the
    rest. *)

type t = {
  bag_threshold : int;
      (** Retired records a thread buffers before triggering a reclamation
          event (the paper's HiWatermark; 32k in their experiments, scaled
          down here with the structure sizes). *)
  lo_watermark : int;
      (** NBR+ LoWatermark: bag size at which a thread starts watching for
          relaxed grace periods (paper suggests 1/2 or 1/4 of the bag). *)
  scan_period : int;
      (** NBR+ footnote (c): scan announceTS only every [scan_period]
          retires while at the LoWatermark, to amortize cache misses. *)
  max_reservations : int;
      (** R: records a thread may reserve per write phase.  2 suffices for
          the lazy list, 3 for DGT / Harris / (a,b)-tree (paper §6). *)
  epoch_freq : int;
      (** IBR/HE: allocations between global-era bumps; DEBRA: amortization
          of the epoch-advance scan (checks epoch_freq/8 threads per
          begin_op, so the default of 16 gives DEBRA its characteristic
          two-load per-operation overhead). *)
  wd_timeout_ns : int;
      (** Crash-recovery watchdog base interval: a peer whose runtime
          heartbeat stays frozen longer than this triggers escalation
          (trace event + NBR signal re-send); frozen past
          [wd_timeout_ns * 2^wd_rounds] the peer is declared dead and its
          state reaped (see [Lifecycle]).  Must sit well above any
          legitimate pause — the chaos plans stall threads for up to
          ~100µs, so the default of 150µs escalating to a 600µs death
          threshold never expels a merely-stalled thread there.  Only
          consulted while a fault decider is installed. *)
  wd_rounds : int;
      (** Escalation rounds before the watchdog declares a frozen peer
          dead (exponential back-off: round [r] fires at
          [wd_timeout_ns * 2^r]). *)
}

let default =
  {
    bag_threshold = 512;
    lo_watermark = 256;
    scan_period = 4;
    max_reservations = 3;
    epoch_freq = 16;
    wd_timeout_ns = 150_000;
    wd_rounds = 2;
  }

let with_threshold c n = { c with bag_threshold = n; lo_watermark = n / 2 }

(** Per-thread bounded-garbage cap for schemes declaring
    [bounded_garbage].  A threshold-triggered sweep keeps only what peers
    pin: reservation/hazard slots, plus (interval schemes) records whose
    lifetime overlaps a stalled interval — at worst every node alive when
    the peer stalled, ≤ ~2·live for our structures.  On top of that
    a bag refills to the threshold before the next sweep.  Anything past
    this bound means garbage tracking a stalled thread's {e duration},
    i.e. the unbounded failure mode.  The bound covers background
    reclamation too: the reclaimer's handoff channel is capped
    ([max_backlog] = 2 × threshold, see [Nbr_workload.Cohort]) below the
    slack this formula already carries, so its collected-but-unswept
    garbage stays inside it. *)
let garbage_bound c ~threads ~live =
  c.bag_threshold + (threads * c.max_reservations) + (2 * live) + 64
