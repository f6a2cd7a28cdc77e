(** Generic trial runner: one scheme × one structure × one runtime.

    Builds the pool, scheme and structure through {!Cohort} (as each KV
    shard does), prefills, launches the workers, and collects metrics.
    The same code drives every cell of every figure, so any
    scheme/structure pair measured is measured identically — the
    property the paper's Setbench harness provides.

    Every trial doubles as a correctness check: successful inserts and
    deletes are counted per thread and the structure's final size must
    equal [prefill + inserts − deletes], and the pool must report zero
    committed use-after-free reads. *)

module Make
    (Rt : Nbr_runtime.Runtime_intf.S)
    (Smr : Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t)
    (Ds : Cohort.STRUCTURE
            with type pool := Nbr_pool.Pool.Make(Rt).t
             and type ctx := Smr.ctx) : sig
  val run : Trial.cfg -> Trial.result
  (** One complete trial under [Rt.run]: deterministic seed-shuffled
      prefill, [cfg.nthreads] workers (plus one background reclaimer
      role at tid [nthreads] when [cfg.reclaim] is set), fault and
      churn schedules from the config, then drain, validation counters
      and per-thread metric aggregation into the result record. *)
end
