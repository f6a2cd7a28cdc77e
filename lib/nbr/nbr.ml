(** The public face of the NBR reproduction.

    One curated namespace over the internal libraries, organized the way
    a user builds things up (see examples/quickstart.ml):

    + pick a runtime: {!Runtime.Native} (OCaml domains) or
      {!Runtime.Sim} (deterministic simulated multicore);
    + create a {!Pool} of records over it;
    + create a reclamation {!Scheme} over the pool ({!Scheme.Nbr_plus}
      is the paper's contribution; nine baselines ride along);
    + instantiate a data structure from {!Ds} — or drive whole
      scheme × structure × runtime sweeps through {!Workload};
    + optionally watch it run through {!Obs} (event traces, latency
      histograms) and stress it through {!Fault}.

    Application code should depend on this module alone; the underlying
    [nbr.*] libraries remain reachable for tests and internal tools but
    make no stability promise. *)

(** Execution substrates: {!Runtime.S} is the signature every algorithm
    is written against; all functors below take one of its two
    implementations. *)
module Runtime = struct
  module type S = Nbr_runtime.Runtime_intf.S

  (** The signature module itself, for [signal_fate] and other auxiliary
      types referenced in {!S}. *)
  module Intf = Nbr_runtime.Runtime_intf

  module Sim = Nbr_runtime.Sim_rt
  module Native = Nbr_runtime.Native_rt
end

(** Simulated manual memory: records as integer slots with explicit
    alloc/free, observable use-after-free, and graceful exhaustion. *)
module Pool = Nbr_pool.Pool

(** Safe-memory-reclamation schemes, each a functor over {!Runtime.S}
    producing an implementation of {!Scheme.S}. *)
module Scheme = struct
  module type S = Nbr_core.Smr_intf.S

  module Config = Nbr_core.Smr_config
  module Stats = Nbr_core.Smr_stats

  module Nbr = Nbr_core.Nbr  (** the paper's Algorithm 1 *)

  module Nbr_plus = Nbr_core.Nbr_plus  (** Algorithm 2 (use this one) *)

  module Debra = Nbr_core.Debra
  module Qsbr = Nbr_core.Qsbr
  module Rcu = Nbr_core.Rcu
  module Ibr = Nbr_core.Ibr
  module Hp = Nbr_core.Hp
  module Hazard_eras = Nbr_core.Hazard_eras
  module Leaky = Nbr_core.Leaky
  module Unsafe_free = Nbr_core.Unsafe_free
end

(** Concurrent set data structures, functors over a runtime and a
    scheme: {!Ds.Lazy_list}, {!Ds.Dgt_bst}, {!Ds.Harris_list},
    {!Ds.Ab_tree}, {!Ds.Hash_set}, {!Ds.Skip_list}. *)
module Ds = Nbr_ds

(** The benchmark/validation harness: {!Workload.Trial} configs and
    results, {!Workload.Registry} (the scheme-name → functor table),
    {!Workload.Traffic} (Zipfian production-shaped load),
    {!Workload.Harness} (one trial of a scheme × structure pair by name),
    {!Workload.Experiments} (the paper's figures), {!Workload.Table}. *)
module Workload = Nbr_workload

(** The serving layer (DESIGN.md §14), and the supported entry point for
    building a service on this stack: {!Kv.Store.Make} shards a
    key-value store across per-shard structure × scheme × pool
    instances, {!Kv.Service.Make} drives it with {!Workload.Traffic}
    through a batching request pipeline that records arrival→completion
    latency — flash crowds, fault plans, churn and per-shard background
    reclamation all compose.  See examples/kv_service.ml. *)
module Kv = Nbr_kv

(** Observability: {!Obs.Trace} (flag-gated event rings, Chrome
    trace-event export) and {!Obs.Histogram} (log-bucket latency
    quantiles).  See DESIGN.md §10. *)
module Obs = Nbr_obs

(** Deterministic fault plans: stalls, crashes, pool hogs, dropped or
    delayed neutralization signals, and reclaimer-role faults
    ({!Fault.pressure_chaos} bundles them into the memory-pressure
    adversary). *)
module Fault = Nbr_fault.Fault_plan

(** Background reclamation (DESIGN.md §12): a dedicated reclaimer role
    — native domain or sim fiber, same interface — that drains limbo
    bags off the hot path, driven by {!Reclaim.policy} (periodic,
    retire-count, or watermark pressure).  Workers degrade to inline
    reclamation when the reclaimer stalls or crashes and restore when
    it returns.  Usually engaged by passing [?reclaim] to
    {!Workload.Trial.Cfg.make}; [Reclaim.Make] is the standalone functor. *)
module Reclaim = Nbr_reclaim.Reclaimer

(** Analysis suite: {!Check.Explore} (schedule-exploring model checker
    over the simulator), {!Check.Sanitizer} (online SMR-protocol
    checker on the trace stream), {!Check.Certificate} (replayable
    schedule certificates).  See DESIGN.md §11. *)
module Check = Nbr_check

(** Static analysis (DESIGN.md §16): a compiler-libs pass for the
    concurrency-idiom rules, with SARIF output.  Drives [bin/nbr_lint] /
    [dune build @lint]. *)
module Analysis = Nbr_analysis

(** SplitMix64 PRNG, the repo-wide randomness source. *)
module Rng = Nbr_sync.Rng
