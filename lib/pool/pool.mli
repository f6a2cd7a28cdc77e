(** Simulated manual memory: a pool of fixed-shape records behind
    generational handles.

    OCaml is garbage-collected, so "freeing" a record cannot unmap it.
    The pool provides explicitly allocated and freed memory where a slot
    freed too early gets recycled under a reader's feet — real
    use-after-free dynamics, minus the segfault.  A record is named by a
    {e generational handle}: one immutable int packing
    [(generation, size_class, index)] (see {!Handle}).  [free] bumps the
    slot's generation, so every previously-minted handle becomes
    {e detectably stale}: validated accessors raise {!exception-Stale}
    (carrying what the recycled memory holds {e now}, never the dead
    record's data) instead of silently reading another record — the
    version-counter substrate VBR (arXiv 2107.13843) builds reclamation
    out of.

    Records live in {e size-classes} (per-class slot widths and
    capacities).  A class's capacity is a limit, not an allocation: its
    storage is made one chunk of {!chunk_slots} slots at a time, when the
    allocator first hands out a slot of the chunk, and a chunk never
    moves, so a pool's memory follows the slots it has ever handed out.
    Allocation is two-level in the Bonwick magazine style: a per-thread,
    padded magazine of ready handles per class, backed by a lock-free
    depot of full/empty magazines, so steady-state [alloc]/[free]
    touches only thread-local state.

    Exhaustion is graceful: [alloc] invokes the caller-supplied
    reclamation flush, announces itself as starving (rerouting concurrent
    frees to a shared per-class overflow stack), and retries with
    exponential backoff before giving up with {!Exhausted}.  See DESIGN.md
    "Fault model" and §13 "Pool architecture". *)

type exhausted_info = {
  x_capacity : int;
  x_in_use : int;  (** Live + Retired slots at the moment of failure *)
  x_garbage : int;  (** Retired-but-unreclaimed slots *)
  x_allocs : int;
  x_frees : int;
  x_attempts : int;  (** pressure-loop retries performed before giving up *)
}

exception Exhausted of exhausted_info
(** Raised by [alloc] only after the pressure retry loop fails — shared
    by every {!Make} instance so CLI entry points can catch it
    uniformly. *)

exception Stale of int
(** Raised, without a backtrace, by a validated read ([read_data] /
    [read_ptr]) through a handle whose record was freed.  The payload is
    the recycled memory's current contents, never the dead record's data
    (for foil schemes that knowingly race reclamation; sound schemes
    treat it as a restart/failure signal).  The valid path returns a
    plain [int] and allocates nothing. *)

val pp_exhausted : Format.formatter -> exhausted_info -> unit

(** Handle packing: [(generation lsl 28) lor (size_class lsl 24) lor index].
    24 index bits, 4 class bits, 33 generation bits — handles stay below
    2^61 so they survive mark-tagging ([h lsl 1]) in OCaml's 63-bit int.
    Handles are opaque to well-behaved clients; the codec is exposed for
    tests and for the Harris list's tagged-word encoding. *)
module Handle : sig
  val gen_mask : int
  val max_classes : int
  val max_capacity : int
  val pack : cls:int -> index:int -> gen:int -> int
  val index : int -> int
  val cls : int -> int
  val gen : int -> int
end

type class_spec = {
  cc_capacity : int;  (** slots in this class (1 .. 2^24) *)
  cc_data_fields : int;
  cc_ptr_fields : int;
}

val chunk_slots : int
(** Slots per chunk of a class's storage (a class smaller than this gets
    exactly its capacity).  A fixed power of two, not a setting. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) : sig
  exception Exhausted of exhausted_info
  (** Alias of the top-level {!exception-Exhausted}. *)

  exception Stale of int
  (** Alias of the top-level {!exception-Stale}. *)

  type t
  (** A pool instance.  All mutation goes through the functions below;
      the representation (field arrays, magazines, depots,
      instrumentation counters) is private to the implementation. *)

  val nil : int
  (** The null "pointer" (-1).  Never a packable handle. *)

  val create :
    capacity:int ->
    data_fields:int ->
    ptr_fields:int ->
    nthreads:int ->
    unit ->
    t
  (** Single-size-class pool (class 0).  The malloc/free fast path costs
      30 simulated cycles; frees past 2048 consecutive frees (burst
      reclamation overflowing a thread's arena), cross-thread hand-offs
      and depot exchanges pay 150 extra. *)

  val create_classed :
    classes:class_spec array ->
    nthreads:int ->
    unit ->
    t
  (** Multi-size-class pool: one {!class_spec} per class, at most
      {!Handle.max_classes}. *)

  val capacity : t -> int
  (** Total capacity across all classes. *)

  val nclasses : t -> int
  val class_capacity : t -> int -> int

  val valid : t -> int -> bool
  (** Whether a handle's packed generation matches its slot's current
      one, i.e. the record it names has not been freed. *)

  val uid : t -> int -> int
  (** Stable flat index in [0, capacity) for the slot a handle names:
      per-record metadata arrays (IBR/HE birth eras, RCU retire epochs)
      index by this so they stay dense across size-classes. *)

  (** {1 Occupancy watermarks}

      A memory-pressure early-warning line for background reclamation:
      when total occupancy across classes (Live + Retired slots) crosses
      [hi], the pool emits a [Watermark_high] trace event and calls
      [on_high] — once per excursion, re-armed only after occupancy falls
      back below [lo] (hysteresis), and again on each entry to the
      allocation pressure path.  Occupancy is published in per-thread
      batches, so crossings are detected within a small slop (batch ×
      threads) of the mark.  The hook must be cheap and non-blocking
      (typically an atomic nudge waking a reclaimer); it runs on
      whichever thread crossed the mark and must never reclaim inline
      itself. *)

  val set_watermarks : t -> lo:int -> hi:int -> on_high:(unit -> unit) -> unit
  (** Requires [0 <= lo < hi <= capacity]; raises [Invalid_argument]
      otherwise.  Replaces any previous watermark configuration. *)

  val occupancy : t -> int
  (** Published total occupancy (slots in use) across all size classes.
      Occupancy is published in per-thread batches, so the value may
      trail the exact count by a small slop (batch × threads).  Cheap —
      one atomic load per class — and safe from any thread; intended as
      a health signal for admission control and circuit breakers. *)

  val pressured : t -> bool
  (** True while the pool sits in the high-watermark excursion (occupancy
      crossed [hi] and has not yet fallen back below [lo]).  Always false
      when no watermarks are configured.  One atomic load. *)

  (** {1 Lifecycle} *)

  val alloc : ?on_pressure:(unit -> unit) -> ?cls:int -> t -> int
  (** Allocate a record from size-class [cls] (default 0) and return its
      handle: the thread's magazine, then a depot/fresh refill, and under
      exhaustion the pressure loop — announce starvation, call
      [on_pressure] (the SMR scheme's flush), retry with backoff, and
      raise {!Exhausted} only when repeated flushes yield nothing. *)

  val note_retired : t -> int -> unit
  (** Mark a record retired (unlinked, awaiting reclamation).  Called by
      the SMR layer from [retire]; affects instrumentation only.  Stale
      handles are counted and ignored. *)

  val free : t -> int -> unit
  (** Return a record to the allocator.  Bumps the slot's generation
      (all outstanding handles become stale) and caches the re-minted
      handle in the thread's magazine — or, while any allocator is
      starving, pushes it to the shared per-class overflow stack so the
      capacity is visible across threads.  Stale and double frees raise
      [Invalid_argument]. *)

  val flush_thread : t -> tid:int -> unit
  (** Flush a thread's magazines (every class) to the depot and publish
      its residual occupancy deltas: called by the thread itself on
      graceful leave, or by a watchdog adopting a reaped peer's cached
      capacity so departed threads' magazines are never leaked. *)

  val magazine_fill : t -> cls:int -> tid:int -> int
  (** Number of handles in a thread's magazine for one class (tests). *)

  (** {1 Field access}

      Three tiers (DESIGN.md §13): {e validated} reads ([read_data] /
      [read_ptr]) check the generation and raise {!Stale} rather than
      return another record's data; {e plain} accessors ([get_]/[set_]) are for
      write phases and sequential code where the record is reserved — a
      generation miss is counted and traced, then applied to the
      recycled memory (memory-safe, observable, never a crash); {e raw}
      accessors perform no generation check — the substrate SMR schemes
      build protected reads and tagged-word access on (alert [nbr_raw]) —
      and call sites instrument via {!record_read}.  Every accessor is
      addressed by (handle, field); each field of a size-class is one flat runtime
      {!Nbr_runtime.Runtime_intf.S.cells} block per chunk, never one heap
      object per word.  The pre-rewrite index-clamping accessors are
      gone.  A handle whose index lies past the slots made so far names
      no record (none was ever handed out): validation refuses it, and a
      peek through it reads slot 0, as for any other non-handle. *)

  val read_data : t -> int -> int -> int
  val read_ptr : t -> int -> int -> int
  (** [read_data t h f] / [read_ptr t h f]: field [f] of the record [h]
      names (a plain load / a synchronising load), or [Stale] raised with
      the slot's current contents when [h] is stale.  The generation
      check has no off switch; removing it is the [pool_generation_check]
      mutant (test/mutants/). *)

  val raw_load_ptr : t -> int -> int -> int
  [@@alert
    nbr_raw
      "raw cell addressing bypasses generation validation: go through \
       the scheme's validated accessors (read_data / read_ptr / \
       peek_ptr), or waive a deliberate use with [@@@alert \"-nbr_raw\"] \
       and its reason"]
  (** [raw_load_ptr t h f]: synchronising load of pointer field [f] of
      the slot [h] addresses, with {e no} generation check (a stale or
      non-handle [h] reads whatever that memory holds now).  Outside
      [lib/pool] only the SMR schemes' protected reads and tagged-word
      accessors ([Smr_base]) may use it: alert [nbr_raw], an error
      everywhere but where a file waives it. *)

  val raw_cas_ptr : t -> int -> int -> int -> int -> bool
  [@@alert
    nbr_raw
      "raw cell addressing bypasses generation validation: go through \
       the scheme's validated accessors (read_data / read_ptr / \
       peek_ptr), or waive a deliberate use with [@@@alert \"-nbr_raw\"] \
       and its reason"]
  (** [raw_cas_ptr t h f old v]: CAS on pointer field [f], unchecked like
      {!raw_load_ptr}. *)

  val get_data : t -> int -> int -> int
  val set_data : t -> int -> int -> int -> unit
  val get_ptr : t -> int -> int -> int
  val set_ptr : t -> int -> int -> int -> unit
  (** A [get_] through a stale handle reads the recycled memory, a
      committed read of a freed record: it is traced as an access as
      well as a stale handle. *)

  (** {1 Record locks}

      Test-and-test-and-set spinlocks for the lock-based structures (lazy
      list, skip list, DGT tree, (a,b)-tree).  A record's lock word is an
      ordinary data field that the structure declares (by convention its
      last, [f_lock]), so records of structures that never lock carry no
      lock word.  Like the raw tier, lock operations do no generation
      check.  A lock is released before its record is retired, so a
      recycled slot's lock is free.

      NBR interplay: locks may only be taken in a write phase (the thread
      is non-restartable there), so a lock holder can never be
      neutralized while holding a lock — the deadlock that rules out
      DEBRA+ for these structures (paper §1) cannot happen by
      construction.  An assertion in [lock] enforces the discipline; the
      write token of [Smr_intf.S] (DESIGN.md §16) enforces it
      at compile time for structures, which lock only through it. *)

  val try_lock : t -> int -> int -> bool
  (** [try_lock t h f] attempts to acquire the lock in data field [f] of
      record [h]; never blocks. *)

  val lock : t -> int -> int -> unit
  (** [lock t h f] spins until it holds the lock in data field [f] of
      record [h].  Must not be called while the calling thread is
      restartable (read phase). *)

  val unlock : t -> int -> int -> unit
  (** [unlock t h f] releases; the caller must hold the lock. *)

  val is_locked : t -> int -> int -> bool
  (** Whether the lock in data field [f] of record [h] is held by anyone
      (validation aid). *)

  (** {1 Instrumentation} *)

  type state = Free | Live | Retired

  val state : t -> int -> state
  (** Lifecycle state of the record a handle names; [Free] for a stale
      handle (whatever occupies the slot now, the named record is gone). *)

  val seqno : t -> int -> int
  (** Current generation of the slot a handle names, bumped on each
      free: the ABA/UAF witness.  Equals [Handle.gen h] iff [valid]. *)

  val live : t -> int -> bool
  (** Costed lifecycle check for protection validation (hazard-style
      schemes): whether the handle is valid and its record currently
      Live.  Charged like the cache-hit mark load it models. *)

  val stamp : t -> int -> int
  (** {!seqno} with an access charge: lets validators detect
      free-and-recycle (ABA on the slot) between two reads. *)

  val record_read : t -> int -> bool
  (** Called by the SMR layer when a guarded dereference lands on a
      handle; counts reads through stale handles (freed, or
      freed-and-recycled — the generation catches both) and, when
      fine-grained tracing is on, emits an [Access] event.  Returns
      [true] iff this read was stale, so the scheme can classify it
      committed vs benign in its own {!Nbr_core.Smr_stats}.  [nil] is
      not counted.  Zero hits for a sound scheme under the
      exact-delivery (sim) runtime. *)

  type stats = {
    s_allocs : int;
    s_frees : int;
    s_in_use : int;
    s_peak_in_use : int;
    s_garbage : int;
    s_peak_garbage : int;
    s_pressure_events : int;
    s_alloc_retries : int;
    s_uaf_reads : int;
    s_wm_trips : int;  (** high-watermark crossings (see above) *)
    s_depot_exchanges : int;  (** magazine pushes/pops at the depot *)
  }

  val stats : t -> stats
  (** Totals across classes; exact at quiescence (per-thread residual
      deltas are folded in). *)

  type class_stats = {
    k_capacity : int;
    k_in_use : int;
    k_peak_in_use : int;
    k_garbage : int;
    k_peak_garbage : int;
    k_allocs : int;
    k_frees : int;
  }

  val class_stats : t -> int -> class_stats

  val reset_peak : t -> unit
  (** Reset the high-water marks to the current values (called after
      prefill so E2 measures steady-state peaks, not setup). *)
end
