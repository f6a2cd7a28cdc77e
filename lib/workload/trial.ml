(** Trial configuration and results for the benchmark harness.

    One {!cfg} describes one data point of a paper figure: a structure,
    a reclamation scheme, a thread count, an operation mix, and a duration.
    The harness runs the workload, validates set-semantics invariants, and
    returns a {!result} with throughput plus every reclamation metric the
    paper's experiments discuss. *)

type stall = {
  stall_tid : int;  (** which worker stalls (usually 1) *)
  stall_ns : int;  (** how long it sleeps inside its operation *)
}
(** E2's delayed thread: the worker enters an operation (and, under
    phase-based schemes, a read phase) and sleeps there, exactly like the
    paper's thread that is "made to sleep within a data-structure
    operation". *)

module Cfg = struct
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
            faults) interpreted by the runner; [stall] above is the simpler
            fixed-thread E2 knob and composes with it *)
    churn_ops : int;
        (** dynamic membership: when positive, every worker except thread 0
            deregisters from the scheme and re-registers after each
            [churn_ops] completed operations, orphaning whatever it had
            buffered for the survivors to adopt.  0 = static membership. *)
    reclaim : Nbr_reclaim.Reclaimer.policy option;
        (** background reclamation: when set, the runner adds one extra
            thread running the {!Nbr_reclaim.Reclaimer} role under this
            policy, installs pool watermarks wired to its pressure kick,
            and workers export threshold-crossing limbo bags to it instead
            of sweeping inline.  Reclaimer faults in [faults] are
            interpreted by that role.  [None] = classic inline trial. *)
    record_latency : bool;
        (** per-operation latency + restarts-per-op histograms (two clock
            reads and two O(1) histogram inserts per operation while on —
            a single bool check while off) *)
  }

  let make ?(nthreads = 4) ?(duration_ns = 2_000_000) ?(key_range = 1024)
      ?prefill ?(ins_pct = 25) ?(del_pct = 25)
      ?(smr = Nbr_core.Smr_config.default) ?pool_capacity ?(seed = 1) ?stall
      ?faults ?(churn_ops = 0) ?reclaim ?(record_latency = false) () =
    let prefill = match prefill with Some p -> p | None -> key_range / 2 in
    let pool_capacity =
      match pool_capacity with
      | Some c -> c
      | None ->
          (* Room for the live structure plus leaky churn.  Structures
             allocate at most ~2 records per element (tree routers, CoW);
             leaky runs additionally consume a slot per update.  Kept tight
             because pool construction cost is per-trial; trials that
             genuinely need more pass [pool_capacity] explicitly. *)
          (4 * key_range) + 200_000 + (nthreads * 12_000)
    in
    {
      nthreads;
      duration_ns;
      key_range;
      prefill;
      ins_pct;
      del_pct;
      smr;
      pool_capacity;
      seed;
      stall;
      faults;
      churn_ops;
      reclaim;
      record_latency;
    }
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
(** Re-export of {!Cfg.t} so existing field accesses ([cfg.key_range])
    keep working; construct via {!Cfg.make}, never by record literal —
    new knobs get defaults there instead of churning every caller. *)

(** Whether the configuration tampers with neutralization signals.
    Delayed handlers open a window in which a reader keeps traversing
    freed slots — counted by the pool, but uncommitted: [end_read] still
    observes the (visible-if-late) signal and restarts, exactly the
    benign native poll-window of DESIGN.md §3.  Dropped signals
    additionally void the delivery guarantee and can commit UAF (their
    point). *)
let signal_faults_injected cfg =
  match cfg.faults with
  | None -> false
  | Some p -> p.Nbr_fault.Fault_plan.signals <> None

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
  pressure_events : int;  (** allocs that entered the exhaustion retry loop *)
  alloc_retries : int;
  smr_stats : Nbr_core.Smr_stats.t;
  garbage_bound : int;
  final_size : int;
  expected_size : int;  (** prefill + successful inserts - deletes *)
  latency : latency option;
}

(* Validity: set semantics must hold everywhere.  Freedom from reads of
   freed slots is exact only under the simulator's instantaneous signal
   delivery; the native (polling) runtime has the benign
   poll-to-dereference window analysed in DESIGN.md §3 — such reads are
   never committed, but they are counted, so they must not fail native
   trials.  Injected signal faults open the same benign window in sim
   (delays) or void delivery outright (drops), so they relax the
   sim-side check too — set semantics still must hold. *)
let valid r =
  r.final_size = r.expected_size
  && (r.runtime <> "sim" || r.uaf_reads = 0 || signal_faults_injected r.cfg)

let pp_row ppf r =
  Format.fprintf ppf
    "%-12s %-8s n=%-3d %3di/%3dd  %8.3f Mops/s  peak=%-8d sig=%-8d restarts=%-6d %s"
    r.structure r.scheme r.cfg.nthreads r.cfg.ins_pct r.cfg.del_pct
    r.throughput_mops r.peak_unreclaimed r.signals (Nbr_core.Smr_stats.restarts r.smr_stats)
    (if valid r then "" else "INVALID")
