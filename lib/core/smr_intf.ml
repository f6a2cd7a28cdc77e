(** The common interface of all safe-memory-reclamation schemes.

    Data structures are written once against this signature and instantiated
    with any scheme (NBR, NBR+, DEBRA, QSBR, RCU, IBR, HP, leaky...).  The
    operation protocol mirrors the paper's Figure 1/2b:

    {v
      op ctx (fun op ->
        ... preamble: globals ...
        phase op
          ~read:{ read = (fun rd -> (* Φread: traverse from a sentinel
                                       record via read_ptr rd / read_data rd *)
                                    (payload, [| reserved records ... |])) }
          ~write:{ write = (fun wr payload ->
                    (* Φwrite: locks, validation, allocation, updates —
                       all through wr, on reserved records only *) ...) })
    v}

    The types carry the protocol.  Only {!op} opens an operation, and it
    closes it on every exit, exceptions included; {!phase} and
    {!read_only} demand the [op] token it hands out, so a phase cannot
    run outside an operation.  The validated reads demand a read token
    ['s rd], which only a running read phase hands out; everything a
    write phase does (allocation, retirement, plain field access, record
    locks, the tagged-word load and CAS) demands a write token ['s wr],
    which only a running write phase hands out.  Both tokens' record
    fields are polymorphic in ['s], so a token cannot be returned, stored
    in an outer reference or otherwise outlive the phase that issued it,
    and a read lambda, holding no write token, can neither write, lock
    nor allocate (paper §4.1).  The phase releases, last taken first,
    every lock taken through its write token that is still held when the
    write phase exits, by any path, so a write phase that raises (a
    [Pool.Exhausted] allocation) cannot leave a record locked.

    A traversal starts at a record the structure allocated outside any
    operation and never retires (a sentinel head or anchor), so every
    guarded read names a source record and a field.

    [phase] encapsulates the whole neutralization discipline: it
    checkpoints ([sigsetjmp]), runs the read phase restartably, publishes
    the reservations with the fenced flag flip of Algorithm 1 (lines
    11–12), and runs the write phase non-restartably.  k-NBR structures
    (Harris list, (a,b)-tree) simply invoke [phase] several times per
    operation; each read phase must then re-traverse from the root
    (paper §5.2).

    Schemes without phases implement [phase] as plain function application,
    so the same data-structure code runs under every scheme.  For HP,
    [read_ptr] performs the announce/fence/validate dance and aborts the
    read phase (via the checkpoint) when validation fails. *)

(** Shared state of the limbo-bag externalization protocol: one record
    per scheme instance, linking the workers' retire paths to whichever
    thread plays the background-reclaimer role.

    The protocol (DESIGN.md §12): a worker whose bag crosses the sweep
    threshold first offers it here ({!Offload.try_accept}); accepted bags
    travel through the lifecycle handoff channel and are collected,
    re-accounted and swept by the reclaimer off the operation path.  The
    record doubles as the degradation switch — when the reclaimer stalls,
    crashes, or falls behind (channel backlog beyond [max_backlog]),
    acceptance flips off and every scheme is automatically back to plain
    inline reclamation; a recovered reclaimer flips it back on.

    All fields are stdlib atomics on the instrumentation side of the
    cost model: the decisions they drive (who sweeps) are part of the
    modelled algorithm, but the flags themselves model cheap
    always-cached loads, like the pool's counters. *)
module Offload = struct
  type t = {
    reclaimer : int;  (** tid of the reclaimer role *)
    enabled : bool Atomic.t;  (** false = degraded: sweep inline *)
    backlog : int Atomic.t;  (** records sitting in the handoff channel *)
    max_backlog : int;  (** degrade threshold on [backlog] *)
    handed : int Atomic.t;  (** total records ever accepted *)
    collected : int Atomic.t;  (** total records the reclaimer adopted *)
    degrades : int Atomic.t;
    restores : int Atomic.t;
  }

  let create ?(max_backlog = 1024) ~reclaimer () =
    if max_backlog < 1 then invalid_arg "Offload.create: max_backlog";
    {
      reclaimer;
      enabled = Atomic.make true;
      backlog = Atomic.make 0;
      max_backlog;
      handed = Atomic.make 0;
      collected = Atomic.make 0;
      degrades = Atomic.make 0;
      restores = Atomic.make 0;
    }

  (* Worker side: may this bag of [count] records go to the reclaimer
     instead of an inline sweep?  A backlog past [max_backlog] means the
     reclaimer has fallen behind its drain rate (or is stalled or dead):
     the first worker to notice flips the degrade switch — once, with a
     trace event — and everyone sweeps inline until a restore. *)
  let try_accept o ~tid ~ns ~count =
    if not (Atomic.get o.enabled) then false
    else if Atomic.get o.backlog > o.max_backlog then begin
      if Atomic.compare_and_set o.enabled true false then begin
        Atomic.incr o.degrades;
        if !Nbr_obs.Trace.on then
          Nbr_obs.Trace.emit ~tid ~ns Nbr_obs.Trace.Degrade 0
            (Atomic.get o.backlog)
      end;
      false
    end
    else begin
      let b = Atomic.fetch_and_add o.backlog count + count in
      ignore (Atomic.fetch_and_add o.handed count);
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid ~ns Nbr_obs.Trace.Bag_handoff count b;
      true
    end

  (* Reclaimer side (or the end-of-trial drainer): [count] records just
     left the channel and became the caller's own garbage. *)
  let note_collected o ~tid ~ns ~count =
    if count > 0 then begin
      let b = Atomic.fetch_and_add o.backlog (-count) - count in
      ignore (Atomic.fetch_and_add o.collected count);
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid ~ns Nbr_obs.Trace.Handoff_collect count b
    end

  (* Explicit degrade, for faults targeting the reclaimer itself (it
     knows it is about to crash or stall) — reason code 1, against the
     workers' backlog-detected reason 0. *)
  let degrade o ~tid ~ns =
    if Atomic.compare_and_set o.enabled true false then begin
      Atomic.incr o.degrades;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid ~ns Nbr_obs.Trace.Degrade 1
          (Atomic.get o.backlog)
    end

  let restore o ~tid ~ns =
    if Atomic.compare_and_set o.enabled false true then begin
      Atomic.incr o.restores;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid ~ns Nbr_obs.Trace.Restore
          (Atomic.get o.backlog) 0
    end

  let degraded o = not (Atomic.get o.enabled)
end

exception Expelled
(** Raised by {!S.op} (and {!S.abandon}) when the calling thread was
    declared dead by a peer's crash-recovery watchdog while it was frozen
    (stalled or descheduled past the watchdog threshold) and its SMR
    state has been reaped.  The context is unusable from then on: the
    thread must stop, or rejoin with a fresh {!S.register}.  Raised
    before the operation touches any shared state, so a mistaken claim
    of a live-but-slow thread never races its reaper through an
    operation.  Only possible while fault injection is active (see
    [Lifecycle.check_self]). *)

(** {1 Declared facts}

    A scheme's guarantees and a structure's needs (the paper's P2 and
    P5), declared at the top of each scheme and structure file, outside
    its functor, so reading a fact builds nothing.  [Registry] derives
    the refused pairings from them.  A scheme's [protection]:
    [Neutralization] (nbr, nbr+) reserves before the write phase and
    restarts readers by signal; [Epoch] (debra, qsbr, rcu) waits out
    grace periods; [Interval] (ibr) validates one era interval per
    thread; [Hazard] (hp, he) validates a hazard pointer or era per
    read, in a rotating window of slots; [Unprotected] (none,
    unsafe-free) is a baseline or a foil.  [bounded_garbage] is P2: the
    scheme bounds unreclaimed records under stalled threads. *)
type protection = Neutralization | Epoch | Interval | Hazard | Unprotected

type scheme = { name : string; bounded_garbage : bool; protection : protection }

(** A structure's traversal is [raw] when it follows links with
    {!S.read_raw}, through records that may be unlinked; it [keeps_old]
    when it must keep protected records older than its last few reads
    (the skip list's cross-level predecessors). *)
type traversal = { raw : bool; keeps_old : bool }

module type S = sig
  type pool
  type t
  type ctx

  val scheme_name : string
  (** The scheme's declared [name]. *)

  val bounded_garbage : bool
  (** The scheme's declared [bounded_garbage]. *)

  val create : pool -> nthreads:int -> Smr_config.t -> t
  (** One instance per data structure; [nthreads] worker contexts may
      register. *)

  val register : t -> tid:int -> ctx
  (** The context for worker [tid]; must be called by each worker (or
      before the run) before its first operation on this instance.
      Calling it again after {!deregister} (or after an {!Expelled}
      verdict) re-joins with a fresh context — the dynamic-membership
      path exercised by the churn workloads. *)

  val deregister : ctx -> unit
  (** Graceful leave.  Retracts the thread's published protection state
      (reservations, hazard/era slots, epoch announcements), hands its
      buffered retires to the scheme's orphan stack for any live thread
      to adopt, and folds its statistics into the instance aggregate.
      The context must not be used afterwards; the same [tid] may
      {!register} again later.  If a crash-recovery watchdog claimed the
      thread first, this is a no-op (the reaper owns the state). *)

  val adopt_orphans : ctx -> unit
  (** Drain any orphan parcels (buffered retires of departed or crashed
      threads) into the calling thread's own limbo state, where they are
      reclaimed by its normal sweeps and counted against {e its} garbage
      bound.  Called automatically when an operation ends with orphans
      pending; exposed for explicit end-of-run draining. *)

  (** {1 Limbo-bag externalization}

      The background-reclamation hooks (DESIGN.md §12).  With an
      {!Offload} installed, a worker whose bag crosses the sweep
      threshold exports it through the lifecycle handoff channel instead
      of sweeping inline — when the offload record accepts; otherwise
      (no offload, or degraded) [retire] behaves exactly as before.
      Foil schemes buffer nothing ([none], [unsafe-free]), so for them
      these report 0. *)

  val set_offload : t -> Offload.t option -> unit
  (** Install (or with [None] remove) the externalization switchboard.
      Installed by the reclaimer role at startup, removed when it leaves;
      racing workers see either behaviour, both safe. *)

  val limbo_size : ctx -> int
  (** Records currently buffered in the calling thread's limbo state. *)

  val collect_handoffs : ctx -> int
  (** Drain the handoff channel into the calling thread's own limbo
      state (re-accounted as its garbage, freed by its normal sweeps)
      and credit the offload record; returns the number collected.  The
      reclaimer's main verb, also used by the end-of-trial drainer. *)

  (** {1 Operations} *)

  type op
  (** Proof that an operation is open: only {!op} issues one. *)

  type 's rd
  (** A read token: only a running read phase issues one, and the
      polymorphic ['s] keeps it from leaving that phase. *)

  type 'a reader = { read : 's. 's rd -> 'a * int array } [@@unboxed]
  (** The read phase of {!phase}. *)

  type 'a viewer = { view : 's. 's rd -> 'a } [@@unboxed]
  (** The read phase of {!read_only}. *)

  type 's wr
  (** A write token: only a running write phase issues one, and the
      polymorphic ['s] keeps it from leaving that phase. *)

  type ('a, 'b) writer = { write : 's. 's wr -> 'a -> 'b } [@@unboxed]
  (** The write phase of {!phase}: the token, then the read phase's
      payload. *)

  val op : ctx -> (op -> 'a) -> 'a
  (** [op ctx body] runs [body] as one operation: the scheme's operation
      start (expulsion check, epoch or era publication), then [body],
      then its operation end (retraction, orphan adoption) — also when
      [body] raises, before the exception is re-raised.  An {!Expelled}
      verdict is raised before the operation opens. *)

  val abandon : ctx -> unit
  (** Fault injection: enter an operation and never leave it, as a
      thread that dies mid-operation does.  Whatever the scheme publishes
      at operation start stays published. *)

  val on_pressure : ctx -> unit
  (** Reclamation flush for pool pressure: free whatever the scheme can
      free {e right now}, ignoring thresholds and amortization — NBR
      broadcasts and sweeps, epoch schemes attempt a full (non-amortized)
      epoch advance, QSBR parks and collects.  Invoked by the pool's
      graceful-exhaustion retry loop ({!alloc} passes it to
      [Pool.alloc ?on_pressure]), so it must be legal in a write phase,
      and must not itself allocate.  Schemes that pin memory through a
      stalled peer can only shed what that peer does not pin: this is
      exactly the degradation the chaos suite measures. *)

  (** {1 Phases} *)

  val phase : op -> read:'a reader -> write:('a, 'b) writer -> 'b
  (** Run one Φread/Φwrite pair.  [read] must obey the paper's read-phase
      rules (§4.1): traverse shared records only through {!read_ptr} /
      {!read_raw} / {!read_data} / {!peek_ptr} — with no write token it
      cannot write, allocate or lock — since it can be abandoned and
      replayed at any moment.  Its result array lists every record the
      write phase will access (at most [max_reservations]).  [write] runs
      exactly once per successful read phase and must only access
      reserved records (plus records it allocates).  Locks [write] took
      through its token and still holds when it returns or raises are
      released, last taken first, before [phase] returns or re-raises. *)

  val read_only : op -> 'a viewer -> 'a
  (** A degenerate phase for operations with no write phase (contains):
      for a viewer [v], equivalent to
      [phase ~read:{ read = (fun rd -> (v.view rd, [||])) }
      ~write:{ write = (fun _ x -> x) }]. *)

  (** {1 Guarded traversal} *)

  val read_ptr : 's rd -> src:int -> field:int -> int
  (** Follow pointer field [field] of record [src] (which must have been
      obtained through guarded traversal in the current read phase).  This
      is the delivery/poll point of the neutralization discipline and the
      protect point of HP-style schemes. *)

  val read_raw : 's rd -> src:int -> field:int -> int
  (** Guarded load of pointer field [field] of record [src] when the word
      is not a plain record pointer — e.g. a mark-tagged link in the
      Harris list, where the slot id and the mark share the word.  A
      delivery/poll point like {!read_ptr}, but it validates neither
      [src] nor the target, and [Hazard] and [Interval] schemes cannot
      publish protection through it: this is precisely the paper's P5
      limitation of HP with structures that traverse marked nodes.  A
      structure that uses it declares [raw] in its {!traversal}, and
      [Registry] refuses those pairings.  It reports the
      dereference of [src] to the pool's use-after-free detector
      ([Pool.record_read]) before it loads, and counts it in the
      caller's statistics if [src] is stale. *)

  val read_data : 's rd -> src:int -> field:int -> int
  (** Read data field [field] of record [src] inside a read phase.  The
      generation-validated counterpart of the write phase's plain
      {!get_data}: the scheme decides what a [Pool.Stale] refusal means
      for its protocol — restartable schemes (NBR family; HP/HE after
      failed validation) abandon the read phase, epoch-based schemes
      whose guarantees make staleness impossible treat it as the benign
      poll-window read it is, and foil schemes consume the recycled
      memory knowingly.  Structures use this for every key/mark read
      along an unvalidated traversal. *)

  val peek_ptr : 's rd -> src:int -> field:int -> int
  (** Read pointer field [field] of record [src] as a {e value}, without
      following it: no protection is published for the target and no
      poll point is crossed for it.  For structural predicates on the
      current record ("is this node a leaf?") where the target is never
      dereferenced.  Validates [src] like {!read_data}. *)

  (** {1 Write-phase access}

      Everything a write phase does to shared records goes through its
      token.  The field accessors are the pool's plain tier: the records
      are reserved or locked, so their handles cannot go stale under a
      sound scheme. *)

  val alloc : ?cls:int -> 's wr -> int
  (** Allocate a record from pool size-class [cls] (default 0), applying
      scheme hooks (e.g. IBR birth eras); under pool pressure the
      scheme's {!on_pressure} flush runs before each retry. *)

  val retire : 's wr -> int -> unit
  (** Hand an {e unlinked} record to the scheme.  May trigger reclamation
      (and, for NBR/NBR+, neutralization signals).  The caller must not
      touch the record afterwards. *)

  val free : 's wr -> int -> unit
  (** Give back, with no grace period, a record this write phase
      allocated and never published. *)

  val get_data : 's wr -> int -> int -> int
  val set_data : 's wr -> int -> int -> int -> unit
  val get_ptr : 's wr -> int -> int -> int
  val set_ptr : 's wr -> int -> int -> int -> unit
  (** [get_data wr h f] / [set_data wr h f v] and the pointer-field pair:
      plain access to field [f] of record [h]. *)

  val lock : 's wr -> int -> int -> unit
  (** [lock wr h f] spins until it holds the lock in data field [f] of
      record [h].  The phase releases it if the write phase exits still
      holding it. *)

  val unlock : 's wr -> int -> int -> unit
  (** Release a lock taken with {!lock}. *)

  val load_tagged : 's wr -> int -> int -> int
  (** [load_tagged wr h f]: synchronising load of pointer field [f] when
      the word is not a plain handle (a mark-tagged Harris link). *)

  val cas_tagged : 's wr -> int -> int -> int -> int -> bool
  (** [cas_tagged wr h f old v]: CAS on such a word. *)

  (** {1 Introspection} *)

  val stats : t -> Smr_stats.t
  (** Aggregate statistics across every registered context (plus finished
      ones).  Allocates; never call on a hot path. *)

  val ctx_stats : ctx -> Smr_stats.t
  (** The calling thread's own live statistics record (not a copy): the
      workload harness reads per-operation deltas from it — e.g. the
      restart count of the operation just completed — without the
      allocation or cross-thread traffic of {!stats}. *)
end
