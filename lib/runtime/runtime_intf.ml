(** Execution-substrate signature.

    NBR (Singh, Brown, Mashtizadeh, PPoPP'21) is specified against a raw
    shared-memory multiprocessor with POSIX signals and
    [sigsetjmp]/[siglongjmp].  None of those can be used directly from OCaml
    (asynchronously long-jumping out of an OCaml signal handler would corrupt
    the runtime), so every algorithm in this repository is written against
    this signature instead, and we provide two implementations:

    - {!Sim_rt}: a deterministic discrete-event simulation of a multicore
      machine.  Every shared-memory access is a scheduling point, signals are
      delivered before the target's next shared access (the paper's
      Assumption 4, exactly), and time is virtual cycles under a calibrated
      cost model.  This is what the benchmark figures run on, because it can
      simulate the paper's 192-thread machine on this container's single
      core.
    - {!Native_rt}: real OCaml domains.  Signals become per-thread monotone
      counters consumed by {!S.poll_t}; neutralization is an exception
      unwinding to the nearest {!S.checkpoint}.

    The unit of "shared memory" is the atomic integer cell: a standalone
    {!aint}, or one index of a {!cells} block.  All shared state in the
    repository — record fields and lock words in the pool (blocks),
    reservation arrays, epochs (standalone cells) — is made of them,
    which is what lets the simulator interleave and cost every access. *)

type signal_fate =
  | Sig_deliver  (** normal delivery (the default when no fault is set) *)
  | Sig_delay of int
      (** deliver, but only after this many nanoseconds: the handler does
          not run until the delay matures.  The signal stays {e visible} to
          {!S.consume_pending_t} from the moment it is sent — delivery is
          late, the kernel's bookkeeping is not — so NBR's [end_read]
          re-check (the writers' handshake closer) still observes it and
          the discipline stays safe; what the delay stresses is Assumption
          4: readers keep traversing (and may read freed slots,
          uncommitted) until the late handler or the next phase boundary
          stops them. *)
  | Sig_drop
      (** the signal is lost entirely — never delivered, never visible.
          POSIX guarantees this cannot happen to [pthread_kill]; injecting
          it shows what NBR's safety argument buys from that guarantee
          (use-after-free becomes possible, as with the mutant that
          drops NBR's signal broadcast, test/mutants/nbr_signal_all).
          Schemes that do not use signals are unaffected. *)
(** Fault-injected fate of one neutralization signal (see
    {!S.set_signal_fault}). *)

module type S = sig
  val name : string
  (** Human-readable runtime name ("sim" or "native"). *)

  (** {1 Shared atomic cells} *)

  type aint
  (** A shared integer cell.  All operations are sequentially consistent
      (matching OCaml's [Atomic] and close enough to the paper's x86-TSO
      reasoning; the paper's explicit-fence subtleties are modelled by cost,
      not by weak ordering). *)

  val make : int -> aint

  val make_padded : int -> aint
  (** Like {!make}, but the cell is guaranteed not to share a cache line
      with any other runtime-allocated cell.  Use it for SWMR announcement
      slots written on hot paths by one thread and scanned by reclaimers —
      reservation rows, broadcast timestamps, epoch/era announcements,
      hazard slots — where false sharing would bill every writer for its
      neighbours' traffic.  Natively this pads the heap block to whole
      cache lines (the [Atomic.make_contended] of OCaml ≥ 5.2, via
      {!Nbr_sync.Padded} on the pinned 5.1 toolchain); in the simulator it
      is identical to {!make}, because the cost model tracks coherence
      ownership per cell, never packing two cells into one line. *)

  val load : aint -> int

  val plain_load : aint -> int
  (** A cheaper, non-serializing read.  Same value semantics as {!load} in
      both runtimes; in the simulator it is charged as a plain load rather
      than a synchronising one.  Use it where the C implementation would use
      an ordinary (non-[volatile]) read, e.g. reading your own reservation
      slots. *)

  val store : aint -> int -> unit
  val cas : aint -> int -> int -> bool
  val faa : aint -> int -> int
  val xchg : aint -> int -> int

  (** {2 Cell blocks}

      A [cells] block is [n] shared integer cells addressed by index
      [0 .. n-1]: the pool keeps each record field of a size-class in one
      block, so a million-record pool is a handful of flat arrays rather
      than millions of one-word heap objects.  Each indexed operation has
      exactly the semantics {e and the cost} of the same operation on a
      standalone {!aint}: cell [i] of a block behaves, in both runtimes,
      like an {!aint} of its own (its own coherence owner in the
      simulator, its own atomic natively).  Out-of-range indices raise
      [Invalid_argument]. *)

  type cells

  val make_cells : int -> int -> cells
  (** [make_cells n v]: [n] cells, each holding [v]. *)

  val load_at : cells -> int -> int
  val plain_load_at : cells -> int -> int
  val store_at : cells -> int -> int -> unit
  val cas_at : cells -> int -> int -> int -> bool
  val faa_at : cells -> int -> int -> int
  val xchg_at : cells -> int -> int -> int

  (** {1 Threads} *)

  val self : unit -> int
  (** Id of the calling worker thread, [0 .. nthreads-1].  Only valid inside
      the body passed to {!run} (or during setup, where it returns 0). *)

  val nthreads : unit -> int
  (** Number of worker threads of the current {!run}, 1 during setup. *)

  (** {1 Neutralization signals}

      The paper's signal machinery, distilled: a reclaimer
      {!send_signal}s a victim; the victim's "handler" runs before its next
      shared-memory access ({!Sim_rt}) or at its next {!poll_t}
      ({!Native_rt}); the handler restarts the victim's current read phase
      — by raising {!Neutralized}, caught by the innermost {!checkpoint} —
      iff the victim is restartable.

      All delivery-point operations take the calling thread's id
      explicitly ([poll_t] and friends below).  PR 2 introduced these as
      fast paths next to argless wrappers; the wrappers cost a
      {!Domain.DLS} lookup per call in the native runtime and every
      caller already threads its tid, so the wrappers are gone and the
      [_t] forms are the API. *)

  exception Neutralized
  (** The [siglongjmp] analogue.  Raised at a delivery point when the thread
      is restartable.  Never caught by library code except in
      {!checkpoint}. *)

  val checkpoint : (unit -> 'a) -> 'a
  (** [checkpoint f] is the [sigsetjmp] analogue: runs [f], and re-runs it
      from scratch whenever it is aborted by {!Neutralized}.  Nesting is
      allowed (k-NBR); an abort restarts the innermost live checkpoint.
      [f] must obey the paper's read-phase rules (no locks held, no
      allocation, no writes to shared memory before the thread becomes
      non-restartable) so that abandoning it mid-flight is harmless. *)

  val is_restartable : unit -> bool
  (** The calling thread's restartable flag (handlers and assertions). *)

  val send_signal : int -> unit
  (** [send_signal t] sends a neutralization signal to thread [t] (the
      [pthread_kill] analogue).  Charged with the kernel-crossing cost in the
      simulator.  Signals coalesce like POSIX signals: what is guaranteed is
      that [t] executes a handler after the send and before its next
      dereference of a shared record. *)

  (** {2 Delivery points (tid-threaded)}

      Each function takes the calling thread's id explicitly: the SMR
      layer already holds it in its per-thread context, and discovering
      it afresh — a {!Domain.DLS} lookup in the native runtime — would be
      charged on {e every guarded dereference}.  [t] {b must} be the
      calling thread's id (the one {!self} would return): passing another
      thread's id reads and writes that thread's single-writer state and
      voids the discipline. *)

  val poll_t : int -> unit
  (** A signal-delivery point for the calling thread [t].  In
      {!Native_rt} this is where pending signals are consumed (raising
      {!Neutralized} when restartable); in {!Sim_rt} every shared access
      is already a delivery point and [poll_t] is free.  The SMR layer
      calls this at the top of every guarded dereference and in
      [end_read].  When no fault decider is installed this must cost one
      plain flag check plus one load-compare of the thread's pending
      counter — the paper's "no per-access overhead" claim lives or dies
      here. *)

  val consume_pending_t : int -> bool
  (** Mark the calling thread [t]'s pending signals handled and report
      whether there were any, without restarting.  NBR's [end_read] calls
      this right after the fenced flag flip: in a polling runtime a
      signal that arrived before the thread's reservations were published
      would otherwise be missed by both sides (the reclaimer's scan
      preceded the publication, and the thread is no longer restartable),
      so [end_read] restarts the phase itself — legal, since no shared
      write has happened yet.  In the delivery-exact simulator such
      signals are already delivered at the flag-flip access, so this
      always returns [false] there. *)

  val set_restartable_t : int -> bool -> unit
  (** Set the calling thread [t]'s restartable flag.  Implements the
      fenced transitions of Algorithm 1 lines 8 and 12: the flag change
      is a sequentially-consistent read-modify-write, so reservations
      published before [set_restartable_t t false] are visible to any
      thread that subsequently observes the thread as non-restartable,
      and no read of a shared record can be reordered before
      [set_restartable_t t true]. *)

  val drain_signals_t : int -> unit
  (** Consume any signals pending for the calling thread [t] without
      restarting, regardless of the restartable flag.  Used when
      (re-)entering a read phase: the thread holds no shared pointers
      yet, so signals sent earlier need no action — this is the "handler
      runs while quiescent" case of the paper. *)

  val signals_sent : unit -> int
  (** Total signals sent since the current {!run} began (for the O(n) vs
      O(n²) ablation).  Counts sends, including delayed and dropped ones. *)

  (** {2 Cross-thread progress observation}

      The two readouts below are the raw material of the crash-recovery
      watchdog (see [Nbr_core.Lifecycle]): unlike the [_t] family they
      take {e any} thread's id and may be called by {e other} threads.
      Both are monotone counters read without synchronisation — a stale
      value is indistinguishable from a slow peer and merely delays
      detection, never causes a false "alive" verdict to persist. *)

  val heartbeat : int -> int
  (** [heartbeat t] is a monotone progress counter for thread [t],
      advanced by the runtime every time [t] passes a delivery point
      (every shared access in the simulator, every {!poll_t} natively).
      A value frozen across a watchdog interval means [t] has not
      executed any guarded step in that interval: it is stalled, crashed,
      or descheduled.  Returns 0 for out-of-range ids or outside
      {!run}. *)

  val signals_seen : int -> int
  (** [signals_seen t]: how many signal observations thread [t] has made
      (handler deliveries plus [consume_pending_t]/[drain_signals_t]
      consumptions).  A reclaimer snapshots this before {!send_signal}
      and knows its signal reached [t] once the counter advances — the
      confirmation step of the watchdog's blocking handshake, sound
      because [t]'s reservation publication precedes its observation
      bump in program order.  Returns 0 for out-of-range ids. *)

  val fault_injection_active : unit -> bool
  (** Whether a signal-fate decider is currently installed
      ({!set_signal_fault}).  The SMR layer uses it to gate the blocking
      handshake: with no decider, delivery is reliable by construction
      and the wait-free fire-and-forget broadcast needs no
      confirmation. *)

  (** {1 Fault injection}

      Hooks for the chaos harness ([lib/fault]): deterministic adversity —
      late or lost signals — injected underneath the SMR layer, which runs
      unmodified.  No fault is active unless explicitly installed. *)

  val set_signal_fault :
    (sender:int -> target:int -> signal_fate) option -> unit
  (** Install (or clear, with [None]) the decider consulted on every
      {!send_signal}.  The decider must be cheap and, for reproducible sim
      runs, deterministic in its inputs and call order.  Cleared
      automatically by {!run} completing is {e not} guaranteed — callers
      pair installation with removal. *)

  val signals_dropped : unit -> int
  (** Signals discarded by an installed {!set_signal_fault} decider since
      the current {!run} began. *)

  (** {1 Time} *)

  val now_ns : unit -> int
  (** Monotonic time in nanoseconds — virtual in the simulator,
      [CLOCK_MONOTONIC] in the native runtime.  Trial durations,
      throughput and delayed-signal maturity are measured with this;
      implementations must never use a wall clock (NTP-steppable,
      non-monotonic, and short of precision at ns scale). *)

  val stall_ns : int -> unit
  (** Stop making progress for the given duration (the "stalled thread" of
      experiment E2).  The thread does not reach a delivery point while
      stalled, exactly like a descheduled pthread. *)

  val cpu_relax : unit -> unit
  (** Spin-wait hint (PAUSE analogue). *)

  val work : int -> unit
  (** Charge [n] cycles of thread-local computation to the calling thread in
      the simulator; a no-op natively.  Lets workloads model per-operation
      local work. *)

  (** {1 Execution} *)

  val run : nthreads:int -> (int -> unit) -> unit
  (** [run ~nthreads body] executes [body tid] on [nthreads] concurrent
      threads and returns when all complete.  Shared state ([aint]s, pools,
      SMR instances) must be created before [run] by the orchestrating
      (setup) code; creating more during the run is allowed. *)
end
