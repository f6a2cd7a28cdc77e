(** Tuning knobs shared by all reclamation schemes.

    One record serves every scheme so the harness can sweep parameters
    uniformly; each scheme reads the fields that concern it and ignores
    the rest. *)

type t = {
  bag_threshold : int;
      (** Retired records a thread buffers before triggering a
          reclamation event (the paper's HiWatermark; 32k in their
          experiments, scaled down here with the structure sizes).  With
          a background reclaimer attached (DESIGN.md §12) the crossing
          exports the bag instead of sweeping inline. *)
  lo_watermark : int;
      (** NBR+ LoWatermark: bag size at which a thread starts watching
          for relaxed grace periods (paper suggests 1/2 or 1/4 of the
          bag). *)
  scan_period : int;
      (** NBR+ footnote (c): scan announceTS only every [scan_period]
          retires while at the LoWatermark, to amortize cache misses. *)
  max_reservations : int;
      (** R: records a thread may reserve per write phase.  2 suffices
          for the lazy list, 3 for DGT / Harris / (a,b)-tree (paper
          §6). *)
  epoch_freq : int;
      (** IBR/HE: allocations between global-era bumps; DEBRA:
          amortization of the epoch-advance scan (checks epoch_freq/8
          threads per begin_op, so the default of 16 gives DEBRA its
          characteristic two-load per-operation overhead). *)
  wd_timeout_ns : int;
      (** Crash-recovery watchdog base interval: a peer whose runtime
          heartbeat stays frozen longer than this triggers escalation
          (trace event + NBR signal re-send); frozen past
          [wd_timeout_ns * 2^wd_rounds] the peer is declared dead and
          its state reaped (see [Lifecycle]).  Must sit well above any
          legitimate pause — the chaos plans stall threads for up to
          ~100µs, so the default of 150µs escalating to a 600µs death
          threshold never expels a merely-stalled thread there.  Only
          consulted while a fault decider is installed. *)
  wd_rounds : int;
      (** Escalation rounds before the watchdog declares a frozen peer
          dead (exponential back-off: round [r] fires at
          [wd_timeout_ns * 2^r]). *)
}

val default : t
(** 512-entry bags, LoWatermark at half, 3 reservations — the scale the
    experiments run at (see DESIGN.md §5 for the mapping from the
    paper's sizes). *)

val with_threshold : t -> int -> t
(** [with_threshold c n] sets [bag_threshold] to [n] and [lo_watermark]
    to [n/2], the paper's recommended ratio. *)

val garbage_bound : t -> threads:int -> live:int -> int
(** Per-thread bounded-garbage cap for schemes declaring
    [bounded_garbage]: [bag_threshold] + the reservations [threads]
    peers can pin ([max_reservations] each) + interval-overlap slack
    (2 × [live], the live-set size) + 64 slots of bag refill headroom.
    Anything past this means garbage tracking a stalled thread's
    {e duration} — the unbounded failure mode. *)
