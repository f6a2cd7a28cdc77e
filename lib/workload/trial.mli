(** Trial configuration and results for the benchmark harness.

    One {!Cfg.t} describes one data point of a paper figure: a
    structure, a reclamation scheme, a thread count, an operation mix,
    and a duration.  The harness runs the workload, validates
    set-semantics invariants, and returns a {!result} with throughput
    plus every reclamation metric the paper's experiments discuss.

    Construct configurations with {!Cfg.make} — the labeled smart
    constructor owns every default, so adding a knob never churns
    callers.  The record fields stay exposed (read-only by convention)
    because results embed their [cfg] and reporting code reads it. *)

type stall = {
  stall_tid : int;  (** which worker stalls (usually 1) *)
  stall_ns : int;  (** how long it sleeps inside its operation *)
}
(** E2's delayed thread: the worker enters an operation (and, under
    phase-based schemes, a read phase) and sleeps there, exactly like
    the paper's thread that is "made to sleep within a data-structure
    operation". *)

module Cfg : sig
  type t = {
    nthreads : int;
    duration_ns : int;
        (** measured with the runtime's clock (virtual in sim) *)
    key_range : int;  (** keys are drawn uniformly from [0, key_range) *)
    prefill : int;  (** distinct keys inserted before the clock starts *)
    ins_pct : int;  (** percent of operations that are inserts *)
    del_pct : int;  (** percent deletes; the rest are contains *)
    smr : Nbr_core.Smr_config.t;
    pool_capacity : int;
    seed : int;
    stall : stall option;
    faults : Nbr_fault.Fault_plan.t option;
        (** chaos schedule (multi-thread stalls, crashes, hogs, signal
            faults) interpreted by the runner; [stall] above is the
            simpler fixed-thread E2 knob and composes with it *)
    churn_ops : int;
        (** dynamic membership: when positive, every worker except
            thread 0 deregisters from the scheme and re-registers after
            each [churn_ops] completed operations.  0 = static. *)
    reclaim : Nbr_reclaim.Reclaimer.policy option;
        (** background reclamation: one extra thread runs the
            {!Nbr_reclaim.Reclaimer} role under this policy, with pool
            watermarks wired to its pressure kick.  [None] = inline. *)
    record_latency : bool;
        (** per-operation latency + restarts-per-op histograms *)
  }

  val make :
    ?nthreads:int ->
    ?duration_ns:int ->
    ?key_range:int ->
    ?prefill:int ->
    ?ins_pct:int ->
    ?del_pct:int ->
    ?smr:Nbr_core.Smr_config.t ->
    ?pool_capacity:int ->
    ?seed:int ->
    ?stall:stall ->
    ?faults:Nbr_fault.Fault_plan.t ->
    ?churn_ops:int ->
    ?reclaim:Nbr_reclaim.Reclaimer.policy ->
    ?record_latency:bool ->
    unit ->
    t
  (** Defaults: 4 threads, 2 ms, 1024 keys, prefill [key_range/2],
      25/25/50 ins/del/contains mix, default SMR config, a pool sized
      for the structure plus leaky churn, seed 1, no faults, static
      membership, inline reclamation, latency recording off. *)
end

type cfg = Cfg.t = {
  nthreads : int;
  duration_ns : int;
  key_range : int;
  prefill : int;
  ins_pct : int;
  del_pct : int;
  smr : Nbr_core.Smr_config.t;
  pool_capacity : int;
  seed : int;
  stall : stall option;
  faults : Nbr_fault.Fault_plan.t option;
  churn_ops : int;
  reclaim : Nbr_reclaim.Reclaimer.policy option;
  record_latency : bool;
}
(** Re-export of {!Cfg.t} for field access; construct via {!Cfg.make}. *)

type latency = {
  lat_insert : Nbr_obs.Histogram.summary;
  lat_delete : Nbr_obs.Histogram.summary;
  lat_contains : Nbr_obs.Histogram.summary;
  lat_restarts : Nbr_obs.Histogram.summary;
      (** read-phase restarts per operation (counts, not nanoseconds) *)
}
(** Merged across threads after the run; nanosecond scale (virtual under
    the simulator).  Present iff [cfg.record_latency]. *)

type result = {
  scheme : string;
  structure : string;
  runtime : string;
  cfg : cfg;
  total_ops : int;
  throughput_mops : float;  (** million operations per second *)
  peak_unreclaimed : int;  (** pool high-water mark after prefill *)
  final_in_use : int;
  uaf_reads : int;  (** guarded reads that hit freed slots *)
  signals : int;
  signals_dropped : int;  (** lost to an injected signal fault *)
  peak_garbage : int;  (** pool-wide retired-unfreed high-water mark *)
  pressure_events : int;
      (** allocs that entered the exhaustion retry loop *)
  alloc_retries : int;
  smr_stats : Nbr_core.Smr_stats.t;
  garbage_bound : int;
      (** per-thread cap a [bounded_garbage] scheme claims:
          {!Nbr_core.Smr_config.garbage_bound} with the structure's
          reservations, every participant (a reclaimer too) and the key
          range as the live set *)
  final_size : int;
  expected_size : int;  (** prefill + successful inserts - deletes *)
  latency : latency option;
}

val valid : result -> bool
(** Set semantics must hold everywhere; zero UAF reads additionally
    required under the simulator's exact signal delivery (unless signal
    faults were injected). *)

val pp_row : Format.formatter -> result -> unit
