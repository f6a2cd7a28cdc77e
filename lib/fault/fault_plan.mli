(** Deterministic fault schedules for chaos trials.

    A plan is data, not behaviour: per-thread lists of faults anchored
    to operation indices, plus an optional signal-fate policy.  The
    trial runner ({!Nbr_workload.Runner}) and the KV service interpret
    thread faults between operations through {!pop_due} and install
    {!decider} into the runtime via [Rt.set_signal_fault]; the SMR
    schemes under test run unmodified.  Everything is derived from one
    seed through {!Nbr_sync.Rng}, so a chaos trial is as replayable as
    a clean one.

    The fault vocabulary matches the adversities the paper's robustness
    argument (E2, §7) is about: stalls (delayed threads pinning
    garbage), crashes (the stall made permanent), allocation hogs
    (manufactured pool pressure), signal faults (late or lost
    neutralization signals, probing Assumption 4), and reclaimer faults
    (the background reclaimer role stalling or crashing, probing the
    degrade-to-inline fallback — DESIGN.md §12). *)

type thread_fault =
  | Stall of { at_op : int; ns : int }
      (** stop for [ns] simulated/wall nanoseconds after completing
          operation [at_op], while {e inside} the next operation's read
          phase (the paper's delayed-thread scenario) *)
  | Crash of { at_op : int }
      (** after [at_op] operations, enter an operation and never return:
          no [end_op], reservations and limbo bag orphaned *)
  | Hog of { at_op : int; slots : int; ns : int }
      (** after [at_op] operations, allocate [slots] pool slots
          directly, hold them for [ns], then free them — induced pool
          pressure *)
  | Shard_hog of { at_op : int; shard : int; slots : int; ns : int }
      (** like [Hog], but aimed at one shard of a sharded store: the
          slots come from that shard's pool, so the pressure (and any
          circuit-breaker trip) lands on a known shard.  Interpreters
          without shards (the single-pool trial runner) treat it as
          [Hog]. *)

type reclaimer_fault =
  | R_stall of { at_iter : int; ns : int }
      (** after [at_iter] reclaimer loop iterations, sleep [ns] without
          draining — handoffs pile up until workers degrade to inline *)
  | R_crash of { at_iter : int; restart_ns : int }
      (** after [at_iter] iterations, deregister and go dark; come back
          after [restart_ns] (negative = never restart) *)

type signal_fault = {
  delay_pct : int;  (** % of signals whose handler runs late *)
  delay_ns : int;  (** how late *)
  drop_pct : int;
      (** % of signals lost outright.  POSIX forbids this for
          [pthread_kill]; non-zero values are for demonstrating what the
          guarantee buys (expect UAF reads) — keep 0 in safety-asserting
          tests. *)
}

type t = {
  seed : int;
  threads : thread_fault list array;  (** per tid, sorted by trigger op *)
  signals : signal_fault option;
  reclaimer : reclaimer_fault list;  (** sorted by trigger iteration *)
}

val none : nthreads:int -> t
(** The empty plan: no thread faults, signals untouched. *)

val chaos :
  seed:int ->
  nthreads:int ->
  ?stalls:int ->
  ?crashes:int ->
  ?stall_ns:int ->
  ?ops_window:int ->
  ?signal:signal_fault ->
  unit ->
  t
(** Seeded chaos: [stalls] stalled threads and [crashes] crashed
    threads, each triggered at a random operation index in
    [\[1, ops_window\]].  Victims are drawn without replacement {e
    within} each fault kind but the pool resets between kinds, so one
    thread can draw both a stall and a crash.  Thread 0 is never a
    victim, so every plan leaves at least one thread running to
    completion.  Per-thread fault lists are ordered by trigger op with
    crashes last on ties (a crash is terminal).  Raises
    [Invalid_argument] when [nthreads < 2]. *)

val pressure_chaos :
  seed:int ->
  nthreads:int ->
  ?stalls:int ->
  ?crashes:int ->
  ?hogs:int ->
  ?hog_slots:int ->
  ?stall_ns:int ->
  ?ops_window:int ->
  ?reclaimer_stall_ns:int ->
  ?restart_ns:int ->
  ?signal:signal_fault ->
  unit ->
  t
(** The reclaim experiment's adversary: a {!chaos} base plus [hogs]
    allocation-hog bursts for pool pressure, plus a fixed reclaimer
    schedule — a stall long enough to trip the backlog detector, then a
    crash that restarts after [restart_ns] ([restart_ns < 0] keeps the
    reclaimer dead: the permanent degradation case). *)

val shard_pressure :
  seed:int ->
  nthreads:int ->
  shard:int ->
  ?hogs:int ->
  ?hog_slots:int ->
  ?start_op:int ->
  ?stagger_ops:int ->
  ?hold_ns:int ->
  unit ->
  t
(** The slo-chaos adversary: a fixed schedule of [hogs] overlapping
    {!Shard_hog} bursts aimed at [shard], staggered [stagger_ops]
    operations apart from [start_op] and each held for [hold_ns].  The
    target shard's pool occupancy stays high across several consecutive
    service health polls — walking its circuit breaker up the brownout
    ladder and open — then drains completely so half-open probes succeed
    and the breaker closes.  Fixed (not seed-drawn) so the traced
    open → half-open → close round-trip is present in every plan; [seed]
    is recorded for bookkeeping.  Thread 0 never hogs.  Raises
    [Invalid_argument] when [nthreads < 2] or [shard < 0]. *)

val faults_for : t -> int -> thread_fault list
(** The (sorted) fault list for one thread; [] out of range. *)

val reclaimer_fault_iter : reclaimer_fault -> int
(** The loop iteration a reclaimer fault triggers at. *)

val fault_op : thread_fault -> int
(** The operation index a fault triggers at (the runner's cursor key). *)

val crashed_tids : t -> int list
val stalled_tids : t -> int list

val faults_threads : t -> bool
(** Whether the plan faults any worker or the reclaimer role. *)

val fate_fn :
  t -> (sender:int -> target:int -> Nbr_runtime.Runtime_intf.signal_fate) option
(** The decider to install with [Rt.set_signal_fault], or [None] if the
    plan leaves signals alone.  Call once per trial: the returned
    closure numbers sends with a private counter, and the fate of signal
    [k] from [sender] to [target] is a pure function of
    (plan seed, k, sender, target). *)

val decider :
  t -> (sender:int -> target:int -> Nbr_runtime.Runtime_intf.signal_fate) option
(** The decider a run installs for its length: {!fate_fn} when the plan
    faults signals; else, when it faults threads or the reclaimer, a
    pass-through one that delivers every signal, because an installed
    decider ([Rt.fault_injection_active]) is what arms the schemes'
    watchdog and recovery machinery; else [None]. *)

val pop_due :
  thread_fault list ref -> tid:int -> now:(unit -> int) -> int ->
  thread_fault option
(** [pop_due faults ~tid ~now ops] pops thread [tid]'s next fault once
    [ops] completed operations reach its trigger index, tracing it as a
    [Fault_action] event at [now ()]; [None] while nothing is due. *)

val pp : Format.formatter -> t -> unit
