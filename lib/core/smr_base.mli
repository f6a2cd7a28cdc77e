(** The thread-lifecycle and offload layer every scheme shares.

    The schemes differ in how a retired record is judged safe to free:
    NBR's reservations plus neutralization, DEBRA's epochs, HP's
    hazards, IBR's intervals.  Everything around that test is the same
    and lives here, once: the per-instance and per-thread records,
    [create]/[register]/[deregister], orphan adoption, the retire-path
    offload gate and the reclaimer's [collect_handoffs], the watchdog
    reap, statistics, the operation bracket and the [begin_op]/[end_op]
    bookkeeping (expulsion check, fine trace, orphan adoption) it runs,
    the phase tokens, the write phase (allocation with the scheme's
    pressure flush, plain field access, record locks, and the runner
    that releases the locks a write phase still holds when it exits),
    the retire tail, the scan of published words, the limbo-bag sweep
    with its trace, and the three read-phase implementations.

    A scheme supplies a {!SCHEME}: its limbo-buffer shape (push, count,
    flatten), the retraction of its published state, and its
    constructors.  It keeps its own read path, retire labelling, sweep
    predicate and, for NBR/NBR+, the signal handshake.  The usual shape
    of a scheme file is

    {v
      let scheme_name = "..."
      let descriptor = { Smr_intf.name = scheme_name; ... }
      module Make (Rt) = struct
        module B = Smr_base.Make (Rt) (struct let descriptor ... end)
        include B
        let begin_op c = B.begin_op c; (* publish *) ...
        let op c body = bracket ~begin_op ~end_op c body
        let abandon = begin_op
        let flush c = ...
        let on_pressure = flush
        let register = register_flushing ~flush
      end
    v}

    The bracket is applied after the scheme's own [begin_op]/[end_op],
    so the operation it opens runs them and not this layer's defaults. *)

(** What a scheme plugs into the shared layer. *)
module type SCHEME = sig
  type inst
  (** Per-instance state: published rows, epochs, eras. *)

  type thr
  (** Per-thread state: the limbo buffer and scratch. *)

  val descriptor : Smr_intf.scheme
  (** The scheme's declared facts, which give {!Smr_intf.S.scheme_name}
      and [bounded_garbage].  Bounded schemes run the watchdog, and
      their [deregister] publishes its parcel inside the stats lock; the
      others publish it just before taking the lock. *)

  val create_inst : capacity:int -> nthreads:int -> Smr_config.t -> inst
  (** [capacity] is the pool's, for per-record metadata. *)

  val create_thr : nthreads:int -> Smr_config.t -> thr

  val size : thr -> int
  (** Records buffered ({!Smr_intf.S.limbo_size}). *)

  val push : inst -> thr -> int -> unit
  (** Buffer an adopted or collected record as retired now.  Adopted
      records only ever have their release delayed. *)

  val drain : thr -> int list
  (** Remove every buffered record, for a departure's orphan parcel. *)

  val exportable : thr -> int
  (** Records a full buffer may hand to the background reclaimer. *)

  val export : thr -> int list
  (** Remove the {!exportable} records, for a handoff parcel. *)

  val retract : inst -> int -> unit
  (** Withdraw thread [tid]'s published protection state so it pins
      nothing (on departure, and when a watchdog reaps it). *)
end

val mem_sorted : int array -> int -> int -> bool
(** [mem_sorted a n x]: binary search for [x] in the sorted prefix
    [a.(0 .. n-1)] — the sweep's "is this record reserved / hazardous"
    test in NBR and HP. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) (X : SCHEME) : sig
  type pool = Nbr_pool.Pool.Make(Rt).t

  type t = private {
    pool : pool;
    n : int;  (** thread slots *)
    cfg : Smr_config.t;
    lc : Lifecycle.Make(Rt).t;  (** orphan parcels, handoffs, watchdog *)
    done_stats : Smr_stats.t;  (** folded in from departed contexts *)
    reaped : Smr_stats.t list Atomic.t;
        (** reaped contexts' statistics: in {!stats}, never in the
            reaper's {!ctx_stats} *)
    ctxs : ctx option array;
    mutable offload : Smr_intf.Offload.t option;
        (** background-reclamation switchboard; [None] = inline only *)
    shared : X.inst;
  }

  and ctx = private {
    b : t;
    tid : int;
    st : Smr_stats.t;
    local : X.thr;
    pressure : (unit -> unit) option;
        (** the scheme's flush, closed over this context *)
    mutable held : int array;
        (** locks held through the write token: (slot, field) pairs *)
    mutable nheld : int;
  }

  (** {1 Phase tokens}

      Inside a scheme every token is the context itself, so the
      schemes' [ctx -> ...] read paths and the write-phase accessors
      below already have the types {!Smr_intf.S} gives them; the
      abstraction happens at the signature. *)

  type op = ctx
  type 's rd = ctx
  type 'a reader = { read : 's. 's rd -> 'a * int array } [@@unboxed]
  type 'a viewer = { view : 's. 's rd -> 'a } [@@unboxed]
  type 's wr = ctx
  type ('a, 'b) writer = { write : 's. 's wr -> 'a -> 'b } [@@unboxed]

  (** {1 The shared half of {!Smr_intf.S}} *)

  val scheme_name : string
  val bounded_garbage : bool
  val create : pool -> nthreads:int -> Smr_config.t -> t

  val register : t -> tid:int -> ctx
  (** {!Smr_intf.S.register} for a scheme with no pressure flush: its
      {!alloc} passes none to the pool. *)

  val register_flushing : flush:(ctx -> unit) -> t -> tid:int -> ctx
  (** {!Smr_intf.S.register} for a scheme whose {!alloc} runs [flush] on
      the new context under pool pressure; the closure is built here,
      once per context. *)

  val deregister : ctx -> unit
  val adopt_orphans : ctx -> unit
  val set_offload : t -> Smr_intf.Offload.t option -> unit
  val limbo_size : ctx -> int
  val collect_handoffs : ctx -> int
  val stats : t -> Smr_stats.t
  val ctx_stats : ctx -> Smr_stats.t

  val begin_op : ctx -> unit
  (** The expulsion check and the fine [Begin_op] trace event.  Schemes
      that publish at operation start do so after it. *)

  val end_op : ctx -> unit
  (** {!note_end_op} then {!adopt_pending}: for schemes with nothing to
      withdraw at operation end. *)

  val retract_end_op : ctx -> unit
  (** {!note_end_op}, {!SCHEME.retract} of the caller's own published
      state, then {!adopt_pending}: the [end_op] of schemes whose hazard
      or era slots, interval or announcement cover one operation. *)

  val bracket :
    begin_op:(ctx -> unit) -> end_op:(ctx -> unit) -> ctx -> (op -> 'a) -> 'a
  (** [bracket ~begin_op ~end_op c body]: {!Smr_intf.S.op} for a scheme
      whose operation start and end are [begin_op] and [end_op].  [end_op]
      also runs when [body] raises, before the exception is re-raised;
      an exception from [begin_op] (an {!Smr_intf.Expelled} verdict)
      leaves before the operation opens, so [end_op] does not run. *)

  val note_end_op : ctx -> unit
  (** The fine [End_op] trace event. *)

  val adopt_pending : ctx -> unit
  (** Adopt orphan parcels if any are pending (one stdlib atomic load
      otherwise) and the thread still holds its slot. *)

  (** {1 The write phase}

      {!Smr_intf.S}'s write-phase accessors, once for every scheme. *)

  val alloc : ?cls:int -> ctx -> int
  (** [Pool.alloc] with the context's flush, if it has one.  IBR and HE
      wrap it with their birth-era stamp. *)

  val free : ctx -> int -> unit
  val get_data : ctx -> int -> int -> int
  val set_data : ctx -> int -> int -> int -> unit
  val get_ptr : ctx -> int -> int -> int
  val set_ptr : ctx -> int -> int -> int -> unit
  val load_tagged : ctx -> int -> int -> int
  val cas_tagged : ctx -> int -> int -> int -> int -> bool

  val lock : ctx -> int -> int -> unit
  (** [Pool.lock], then push the lock on the context's stack. *)

  val unlock : ctx -> int -> int -> unit
  (** Take the lock off the stack, then [Pool.unlock]. *)

  val run_write : ctx -> ('a, 'b) writer -> 'a -> 'b
  (** Run a write phase on [payload]; release, last taken first, the
      locks it took and still holds when it returns or raises.  The
      write half of every [phase] here and in the NBR family.
      Allocates nothing. *)

  val note_read : ctx -> int -> unit
  (** Report a dereference of a record to the pool's use-after-free
      detector ([Pool.record_read]) and count a stale one; for reads
      that do not validate.  Negative words (nil) are skipped. *)

  (** {1 Retire-path helpers} *)

  val count_retire : ctx -> int -> unit
  (** Mark the record Retired in the pool and count the retire. *)

  val maybe_offload : ctx -> bool
  (** Offer the {!SCHEME.exportable} records to the background
      reclaimer; [true] if they were handed off, [false] to sweep inline
      (no offload installed, degraded, or backlogged). *)

  val buffer_retired : ctx -> int -> flush:(ctx -> unit) -> unit
  (** The retire tail of HP, HE, IBR and RCU: {!SCHEME.push} the record;
      at the sweep threshold {!maybe_offload}, or else [flush]; then note
      the buffered garbage.  The NBR family, DEBRA and QSBR order their
      threshold test differently and keep their own tails. *)

  (** {1 Reclamation helpers} *)

  val collect_published : ctx -> Rt.aint array array -> int array -> int
  (** [collect_published c rows scratch] loads every other thread's row
      of published words (NBR reservations, HP hazards), skips nil, and
      leaves them sorted in [scratch.(0 .. k-1)]; returns [k], for
      {!mem_sorted}.  [scratch] must hold every row. *)

  val sweep : ctx -> Limbo_bag.t -> upto:int -> keep:(int -> bool) -> unit
  (** {!Limbo_bag.sweep} the caller's bag up to absolute position [upto],
      freeing to the pool every entry [keep] does not pin; count the
      frees, and trace [Bag_sweep] (a = bag size before, b = those not
      freed) then [Reclaim] (a = freed, b = size after).  The caller
      counts the reclamation event. *)

  (** {1 Crash recovery}

      For bounded schemes, whose threads each keep one {!Limbo_bag}. *)

  module Watchdog (_ : sig
    val bag : X.thr -> Limbo_bag.t
  end) : sig
    val reap : ctx -> int -> unit
    (** Reap a claimed peer: flush its magazines, {!SCHEME.retract} its
        state, {!Lifecycle.Make.seize_bag} its bag into an orphan
        parcel and park its statistics in [reaped]. *)

    val watchdog : ctx -> on_round:(peer:int -> round:int -> unit) -> unit
    (** One {!Lifecycle.Make.scan} that reaps with {!reap}. *)
  end

  (** {1 Read paths} *)

  (** The read side of schemes with no per-read protection or restarts
      (DEBRA, QSBR, RCU and the foils): an epoch or grace-period
      announcement pins a whole operation, or nothing is protected at
      all.  A phase runs straight through and commits its UAF reads; a
      read reports a landing on a stale handle to the pool's detector
      and the caller's statistics, and consumes the recycled memory as
      the unprotected read it is. *)
  module Unguarded : sig
    val phase : op -> read:'a reader -> write:('a, 'b) writer -> 'b
    val read_only : op -> 'a viewer -> 'a
    val read_ptr : ctx -> src:int -> field:int -> int
    val read_raw : ctx -> src:int -> field:int -> int
    val read_data : ctx -> src:int -> field:int -> int
    val peek_ptr : ctx -> src:int -> field:int -> int
  end

  (** The restartable phases and data reads of the validating schemes
      (HP, HE; IBR takes the phases only): an aborted read phase replays
      through {!Rt.checkpoint} and its UAF reads count as benign; a data
      read that finds its record recycled raises [Pool.Stale] to the
      phase, which aborts through [restart_stale].  [phase] is
      [read_only] over its reader, then the write phase, which runs
      once the checkpointed read phase has returned. *)

  val restart_stale : ctx -> 'a
  (** Count a stale validated read and raise {!Rt.Neutralized}: what a
      restartable read phase does when [Pool.Stale] reaches it. *)

  val phase : op -> read:'a reader -> write:('a, 'b) writer -> 'b
  val read_only : op -> 'a viewer -> 'a
  val read_data : ctx -> src:int -> field:int -> int
  val peek_ptr : ctx -> src:int -> field:int -> int
end
