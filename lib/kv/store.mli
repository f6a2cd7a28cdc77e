(** Sharded key-value store over the DS + SMR + pool stack: each shard
    owns one structure instance (hash-set or (a,b)-tree) over its own
    pool and its own instance of the reclamation scheme selected by name
    through {!Nbr_workload.Registry}.  Scheme module types are erased
    behind per-shard closures, so one [t] holds any of the ten schemes.

    Thread model: worker tids [0, nthreads) register with every shard;
    with background reclamation on, shard [i] gets its own reclaimer
    role at tid [nthreads + i] wired to that shard's pool watermarks
    (run it from {!run_reclaimer} inside [Rt.run]).  Each shard is one
    {!Nbr_workload.Cohort}, the set-up the trial runner uses too. *)

type stats = {
  st_size : int;
  st_in_use : int;
  st_peak_in_use : int;
  st_uaf_reads : int;
  st_committed_uaf : int;
  st_max_garbage : int;  (** worst per-shard per-thread high-water *)
  st_peak_garbage : int;  (** worst per-shard pool-wide high-water *)
  st_pressure_events : int;
  st_alloc_retries : int;
  st_restarts : int;
  st_degrades : int;  (** offload degrade events across shards *)
  st_restores : int;
  st_handshake_timeouts : int;
      (** bounded-wait handshakes that gave up (summed over shards) *)
}
(** Aggregated per-store counters — runtime-independent, so reports
    from different runtimes share one type. *)

type health = {
  h_occupancy : int;
  h_capacity : int;
  h_pressured : bool;  (** pool inside its high-watermark excursion *)
  h_degraded : bool;  (** offload switchboard fell back to inline *)
}
(** Cheap per-shard health snapshot (a few atomic loads) — the signal
    set the service guard's circuit breakers poll. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) : sig
  module P : module type of Nbr_pool.Pool.Make (Rt)

  module Cfg : sig
    type t = {
      scheme : string;
      structure : string;  (** ["hash-set"] or ["ab-tree"] *)
      nshards : int;
      nthreads : int;  (** worker threads; tids in [0, nthreads) *)
      keyspace : int;  (** keys are in [0, keyspace) *)
      shard_capacity : int;  (** pool slots per shard *)
      smr : Nbr_core.Smr_config.t;
      reclaim : Nbr_reclaim.Reclaimer.policy option;
          (** per-shard background reclaimer role + pool watermarks *)
      reclaimer_faults : Nbr_fault.Fault_plan.reclaimer_fault list;
          (** fault schedule applied to {e every} shard's reclaimer *)
    }

    val make :
      ?structure:string ->
      ?nshards:int ->
      ?keyspace:int ->
      ?shard_capacity:int ->
      ?smr:Nbr_core.Smr_config.t ->
      ?reclaim:Nbr_reclaim.Reclaimer.policy ->
      ?reclaimer_faults:Nbr_fault.Fault_plan.reclaimer_fault list ->
      scheme:string ->
      nthreads:int ->
      unit ->
      t
    (** Defaults: hash-set shards, 8 of them, a 2²⁰-key keyspace, a
        shard capacity of half the shard's keyspace share (clamped to
        [8192, 256K] slots — heavy drivers pass it explicitly), default
        SMR config,
        no background reclamation.  Raises [Invalid_argument] on
        unknown scheme/structure names and on paper-P5-unsafe pairings
        (hp/he/ibr shards must be ab-tree). *)
  end

  type t

  val create : Cfg.t -> t
  (** Builds every shard: pools, scheme instances, structures, worker
      contexts, and (if configured) per-shard reclaimers. *)

  val cfg : t -> Cfg.t
  val nshards : t -> int
  val nthreads : t -> int
  val keyspace : t -> int
  val reclaim_on : t -> bool

  val foil : t -> bool
  (** Whether the configured scheme is a deliberately unsound baseline
      (unsafe-free) — validation skips the UAF assertions for foils. *)

  val bounded_claim : t -> bool
  (** Whether the scheme declares the paper's P2 bounded-garbage
      property. *)

  (** {1 Request path} *)

  val shard_of : t -> int -> int
  (** Key → shard routing (a SplitMix64-style finalizer, independent of
      the hash-set's internal bucket hash). *)

  val get : t -> tid:int -> int -> bool
  val put : t -> tid:int -> int -> bool
  val delete : t -> tid:int -> int -> bool

  val scan : t -> tid:int -> int -> int -> int
  (** [scan t ~tid k len]: how many keys of [k, k+len) (mod the
      keyspace) are present in [k]'s shard — the single-partition leg of
      a scatter-gather range read on a hash-partitioned store.  A range
      that wraps past the keyspace is counted in two pieces.

      On an (a,b)-tree shard a piece is one read phase that descends
      once per leaf it reaches: it counts that leaf's keys in the range
      and descends again from the leaf's upper bound.  On a hash-set
      shard it is one membership probe per key.  Under concurrent
      updates each leaf is read atomically (a published leaf never
      changes), but the scan as a whole is not: a leaf reached later may
      hold updates made after an earlier one was counted, just as a
      later probe may.  Under a sound scheme the answer is at most
      [len].  Raises [Invalid_argument] when [len] exceeds the
      keyspace, where the wrapped range would meet itself. *)

  val shard_of_op : t -> Nbr_workload.Traffic.op -> int

  val exec_on : t -> tid:int -> shard:int -> Nbr_workload.Traffic.op -> int
  (** Execute one request on shard [shard] (which must be its
      [shard_of_op] — the batching pipeline groups per shard first).
      Returns 1 for a successful update / present key, else 0; a
      [Scan (k, len)] is {!scan}[ t ~tid k len] and returns its count.
      May raise {!Nbr_core.Smr_intf.Expelled} under fault injection,
      like any structure operation. *)

  val size : t -> int
  (** Total keys across shards.  Quiescent callers only. *)

  (** {1 Fault & lifecycle verbs} (composed by the service pipeline) *)

  val stall : t -> tid:int -> int -> unit
  (** Pause inside a read phase on shard 0 for the given nanoseconds —
      E2's delayed thread at the serving layer. *)

  val crash : t -> tid:int -> unit
  (** Enter an operation on shard 0 and never leave; the caller must
      stop using [tid] afterwards. *)

  val hog : t -> shard:int -> slots:int -> ns:int -> unit
  (** Manufactured pool pressure against a chosen shard (shard 0 for a
      plain hog; the slo-chaos adversary's victim for a shard hog, so
      the pressure, and any breaker trip, lands on a known shard).
      [shard] is taken modulo the shard count. *)

  val churn : t -> tid:int -> unit
  (** Deregister and immediately re-register [tid] on every shard,
      orphaning its buffered retires for survivors to adopt. *)

  val drain : t -> tid:int -> unit
  (** End-of-run drain on every shard: collect stranded handoffs, adopt
      orphans, flush. *)

  val run_reclaimer : t -> int -> unit
  (** The role body for shard [i]'s reclaimer; no-op when reclamation
      is off. *)

  val stop_reclaimers : t -> unit
  val reset_peaks : t -> unit

  (** {1 Introspection} *)

  val health : t -> shard:int -> health
  (** One shard's current health signals.  Safe from any thread; cheap
      enough to poll once per shard batch. *)

  val hs_timeouts : t -> tid:int -> shard:int -> int
  (** Cumulative handshake timeouts recorded by [tid]'s own context on
      [shard] — single-writer, so cheap to poll; callers diff
      successive reads to detect fresh timeouts. *)

  val garbage_bound : t -> int
  (** Worst per-shard bounded-garbage cap (the trial runner's formula
      with the live-set term scaled to one shard's keyspace share). *)

  val stats : t -> stats
  (** Aggregated across shards.  Allocates; not for hot paths. *)
end
