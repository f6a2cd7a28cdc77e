(** Thread lifecycle and crash recovery, shared by every scheme.

    PR 1's chaos plans crash threads mid-operation, orphaning their
    announcements, reservation rows and limbo bags; this module is the
    common machinery behind the two recovery paths of DEBRA+-style
    robustness (Brown, PODC'17): {e graceful leave} (the departing
    thread publishes its buffered retires as orphan parcels for live
    threads to adopt) and {e crash detection} (a heartbeat watchdog
    piggybacked on the reclamation scan claims frozen peers, reaps their
    published state, and orphans their bags).

    A claimed thread that turns out to be alive is {e expelled}: its
    next [begin_op] raises {!Smr_intf.Expelled} before it touches shared
    state, so a claim never races a live owner through a later
    operation; one landing mid-operation meets the limbo bag's custody
    token, which hands the bag over exactly once ({!seize_bag}).

    Determinism: under the simulator heartbeats are exact and every scan
    step is a charged access of the single-domain scheduler, so watchdog
    verdicts replay bit-for-bit from a seed.  See lifecycle.ml for the
    full protocol narrative and state machine. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) : sig
  type parcel = { origin : int; slots : int list }
  (** A dead or departed thread's buffered retires.  The records are
      already marked Retired in the pool; adopters re-buffer them as
      their own and free them through their normal sweeps. *)

  type t

  val create : nthreads:int -> t

  val reset_slot : t -> int -> unit
  (** Called by [register]: make the slot live (again) and forget stale
      watchdog bookkeeping from a previous occupant. *)

  val is_active : t -> int -> bool
  (** The thread holds its slot: neither departed, claimed nor reaped. *)

  val check_self : t -> int -> unit
  (** The expulsion check at the top of every [begin_op]: raises
      {!Smr_intf.Expelled} if a watchdog claimed this thread.  Gated on
      [Rt.fault_injection_active], so fault-free runs pay one not-taken
      branch. *)

  val depart : t -> int -> bool
  (** CAS-out for a graceful leave; [false] means a watchdog claimed us
      first and owns our state — the caller must touch nothing. *)

  val with_stats_lock : t -> (unit -> 'a) -> 'a
  (** Serialize [done_stats] folds (deregistering owners and [stats]
      readers — cold paths only). *)

  val push_parcel : t -> origin:int -> int list -> unit
  (** Publish a departing/reaped thread's buffered retires as an orphan
      parcel (no-op on the empty list). *)

  val has_orphans : t -> bool
  (** One stdlib atomic load: cheap enough for every [end_op]. *)

  val adopt : t -> tid:int -> push:(int -> unit) -> int
  (** Drain every parcel into the adopter via [push] (one call per
      record); returns the number adopted.  The adopter must re-account
      the records as its own buffered garbage — orphans count against
      the adopter's bound. *)

  val push_handoff : t -> origin:int -> int list -> unit
  (** Export a live worker's limbo bag for the background reclaimer
      (no-op on the empty list).  Unlike {!push_parcel}, the records go
      to a dedicated handoff channel that only the reclaimer role (or an
      explicit end-of-trial drainer) consumes via {!take_handoffs} —
      workers never race it for parcels they just shed. *)

  val take_handoffs : t -> push:(int -> unit) -> int
  (** Drain every handed-off parcel into the collector via [push] (one
      call per record); returns the number collected.  Same
      re-accounting contract as {!adopt}: the collector owns the records
      from here on and frees them through its normal sweeps. *)

  val seize_bag : t -> origin:int -> Limbo_bag.t -> int list
  (** Reaper side of a claim ([reap] below): take the claimed peer
      [origin]'s limbo bag ({!Limbo_bag.seize}) and return its entries
      for the orphan parcel.  If the peer is alive and mid-sweep (a
      falsely-declared-dead native thread), the bag changes hands when
      its sweep ends; what it hands over then, or pushes before its next
      [begin_op] expels it, becomes orphan parcels at later {!scan}s.
      Either way no entry is swept by two threads or lost. *)

  val scan :
    t ->
    self:int ->
    timeout_ns:int ->
    rounds:int ->
    on_round:(peer:int -> round:int -> unit) ->
    reap:(int -> unit) ->
    unit
  (** The watchdog scan, piggybacked on the reclamation path of every
      bounded-garbage scheme.  For each active peer: record heartbeat
      freshness; once frozen past [timeout_ns * 2^round], escalate —
      emit [Heartbeat_timeout], run [on_round] (NBR re-sends its
      neutralization signal here), bump the round; frozen past
      [timeout_ns * 2^rounds], claim the peer and run [reap].  Each scan
      first publishes what reaped peers have handed over since (see
      {!seize_bag}).  Runs only under an installed fault decider (see
      {!check_self}). *)

  val looks_stale : t -> int -> timeout_ns:int -> bool
  (** Whether the peer's heartbeat has been frozen longer than
      [timeout_ns] as of the last {!scan} observations: such a peer is
      not executing, so a pending signal will reach it before its next
      access and a broadcast handshake need not wait for its
      acknowledgement. *)
end
