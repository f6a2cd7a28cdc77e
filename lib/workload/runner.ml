(** Generic trial runner: one scheme × one structure × one runtime.

    Builds the pool, scheme and structure through {!Cohort} (as each KV
    shard does), prefills, launches the workers, and collects metrics.
    The same code drives every cell of every figure, so any
    scheme/structure pair measured is measured identically — the
    property the paper's Setbench harness provides.

    Every trial doubles as a correctness check: successful inserts and
    deletes are counted per thread and the structure's final size must
    equal [prefill + inserts - deletes], and the pool must report zero
    committed use-after-free reads. *)

module Make
    (Rt : Nbr_runtime.Runtime_intf.S)
    (Smr : Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t)
    (Ds : Cohort.STRUCTURE
            with type pool := Nbr_pool.Pool.Make(Rt).t
             and type ctx := Smr.ctx) =
struct
  module P = Nbr_pool.Pool.Make (Rt)
  module C = Cohort.Make (Rt) (Smr) (Ds)
  module F = Nbr_fault.Fault_plan

  (* Deterministic prefill: insert a seed-shuffled prefix of the key
     space, sequentially, before the clock starts. *)
  let prefill_keys cfg =
    let a = Array.init cfg.Trial.key_range (fun i -> i) in
    let rng = Nbr_sync.Rng.create (cfg.Trial.seed lxor 0xfeed) in
    for i = Array.length a - 1 downto 1 do
      let j = Nbr_sync.Rng.below rng (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 (min cfg.Trial.prefill cfg.Trial.key_range)

  let run (cfg : Trial.cfg) : Trial.result =
    let n = cfg.nthreads in
    let plan = Option.value cfg.faults ~default:(F.none ~nthreads:n) in
    (* The background reclaimer is one extra participant: tid [n], a
       domain natively and a fiber in sim, registered with the scheme
       like any worker so epochs/handshakes/watchdogs all count it. *)
    let reclaim_on = cfg.reclaim <> None in
    let total = if reclaim_on then n + 1 else n in
    let c =
      C.create ~capacity:cfg.pool_capacity ~nthreads:total ~workers:n
        ~reclaim:cfg.reclaim
        ~reclaimer_faults:plan.F.reclaimer ~reclaimer_tid:n cfg.smr
    in
    let { C.pool; ds; ctxs; _ } = c in
    Array.iter (fun k -> ignore (Ds.insert ds ctxs.(0) k)) (prefill_keys cfg);
    P.reset_peak pool;
    let inserts = Array.make n 0
    and deletes = Array.make n 0
    and ops = Array.make n 0 in
    (* Latency histograms, per thread (single-writer) when requested:
       index 0/1/2 = insert/delete/contains op latency, 3 = restarts
       per op (via the scheme's live per-context counter). *)
    let lat =
      if cfg.record_latency then
        Some
          (Array.init n (fun _ ->
               Array.init 4 (fun _ -> Nbr_obs.Histogram.create ())))
      else None
    in
    let deadline = Rt.now_ns () + cfg.duration_ns in
    (* Post-trial drain when membership was dynamic or threads were
       faulted: surviving workers adopt any orphan parcels still on the
       stack and flush, so end-of-trial outstanding garbage is a
       meaningful bounded-reclamation measure (and the chaos tests can
       assert it). *)
    let drains = reclaim_on || cfg.churn_ops > 0 || F.faults_threads plan in
    (* Injected signal faults live only for the duration of this run: the
       decider is process-global runtime state. *)
    Rt.set_signal_fault (F.decider plan);
    Fun.protect ~finally:(fun () -> Rt.set_signal_fault None) @@ fun () ->
    let workers_done = Atomic.make 0 in
    Rt.run ~nthreads:total (fun tid ->
        if tid >= n then
          (* The reclaimer role: loops until the last worker stops it (or
             a never-restart crash fault kills it). *)
          C.run_reclaimer c
        else
        let rng = Nbr_sync.Rng.for_thread ~seed:cfg.seed ~tid in
        (match cfg.stall with
        | Some s when s.stall_tid = tid -> C.stall c ~tid s.stall_ns
        | _ -> ());
        (* Chaos-plan faults fire between operations, once their trigger
           index is reached. *)
        let faults = ref (F.faults_for plan tid) in
        let crashed = ref false in
        let my_ins = ref 0 and my_del = ref 0 and my_ops = ref 0 in
        while (not !crashed) && Rt.now_ns () < deadline do
          try
          (match F.pop_due faults ~tid ~now:Rt.now_ns !my_ops with
          | None -> ()
          | Some (F.Stall { ns; _ }) -> C.stall c ~tid ns
          | Some (F.Crash _) ->
              C.crash c ~tid;
              crashed := true
          | Some (F.Hog { slots; ns; _ } | F.Shard_hog { slots; ns; _ }) ->
              C.hog c ~slots ~ns);
          if not !crashed then begin
            let k = Nbr_sync.Rng.below rng cfg.key_range in
            let p = Nbr_sync.Rng.below rng 100 in
            (* Returns the histogram index of the operation performed. *)
            let do_op () =
              if p < cfg.ins_pct then begin
                if Ds.insert ds ctxs.(tid) k then incr my_ins;
                0
              end
              else if p < cfg.ins_pct + cfg.del_pct then begin
                if Ds.delete ds ctxs.(tid) k then incr my_del;
                1
              end
              else begin
                ignore (Ds.contains ds ctxs.(tid) k);
                2
              end
            in
            (match lat with
            | None -> ignore (do_op ())
            | Some hists ->
                let h = hists.(tid) in
                let st = Smr.ctx_stats ctxs.(tid) in
                let r0 = Nbr_core.Smr_stats.restarts st in
                let t0 = Rt.now_ns () in
                let idx = do_op () in
                Nbr_obs.Histogram.record h.(idx) (Rt.now_ns () - t0);
                Nbr_obs.Histogram.record h.(3)
                  (Nbr_core.Smr_stats.restarts st - r0));
            incr my_ops;
            (* Dynamic membership: leave (orphaning our buffered retires
               for survivors to adopt) and immediately rejoin with a
               fresh context.  Thread 0 stays put so the trial always has
               one stable member. *)
            if cfg.churn_ops > 0 && tid > 0 && !my_ops mod cfg.churn_ops = 0
            then C.churn c ~tid
          end
          with Nbr_core.Smr_intf.Expelled ->
            (* A peer's watchdog declared this thread dead while it was
               frozen past the death threshold (a long stall) and reaped
               its state.  The context is unusable: stop, like a crash —
               completed operations all committed before the expulsion
               point, so the size invariant is unaffected. *)
            crashed := true
        done;
        if drains && not !crashed then C.drain c ~tid;
        (* The last worker out (crashed or not) releases the reclaimer;
           it drains what is left and leaves gracefully. *)
        if reclaim_on && Atomic.fetch_and_add workers_done 1 + 1 = n then
          C.stop_reclaimer c;
        inserts.(tid) <- !my_ins;
        deletes.(tid) <- !my_del;
        ops.(tid) <- !my_ops);
    let total_ops = Array.fold_left ( + ) 0 ops in
    let ins = Array.fold_left ( + ) 0 inserts
    and del = Array.fold_left ( + ) 0 deletes in
    let ps = P.stats pool in
    {
      Trial.scheme = Smr.scheme_name;
      structure = Ds.name;
      runtime = Rt.name;
      cfg;
      total_ops;
      throughput_mops =
        float_of_int total_ops /. (float_of_int cfg.duration_ns /. 1e9) /. 1e6;
      peak_unreclaimed = ps.P.s_peak_in_use;
      final_in_use = ps.P.s_in_use;
      uaf_reads = ps.P.s_uaf_reads;
      signals = Rt.signals_sent ();
      signals_dropped = Rt.signals_dropped ();
      peak_garbage = ps.P.s_peak_garbage;
      pressure_events = ps.P.s_pressure_events;
      alloc_retries = ps.P.s_alloc_retries;
      smr_stats = Smr.stats c.C.smr;
      garbage_bound =
        Nbr_core.Smr_config.garbage_bound c.C.cfg ~threads:total
          ~live:cfg.key_range;
      final_size = Ds.size pool ds;
      expected_size = cfg.prefill + ins - del;
      latency =
        Option.map
          (fun hists ->
            let s = Nbr_obs.Histogram.merged_summaries hists in
            {
              Trial.lat_insert = s.(0);
              lat_delete = s.(1);
              lat_contains = s.(2);
              lat_restarts = s.(3);
            })
          lat;
    }
end
