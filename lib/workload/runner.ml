(** Generic trial runner: one scheme × one structure × one runtime.

    Builds the pool, instantiates the scheme, prefills the structure,
    launches the workers, and collects metrics.  The same code drives
    every cell of every figure, so any scheme/structure pair measured is
    measured identically — the property the paper's Setbench harness
    provides.

    Every trial doubles as a correctness check: successful inserts and
    deletes are counted per thread and the structure's final size must
    equal [prefill + inserts - deletes], and the pool must report zero
    committed use-after-free reads. *)

module Make
    (Rt : Nbr_runtime.Runtime_intf.S)
    (Smr : Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t)
    (Ds : sig
       type t

       val name : string
       val data_fields : int
       val ptr_fields : int
       val max_reservations : int
       val create : Nbr_pool.Pool.Make(Rt).t -> t
       val contains : t -> Smr.ctx -> int -> bool
       val insert : t -> Smr.ctx -> int -> bool
       val delete : t -> Smr.ctx -> int -> bool
       val size : Nbr_pool.Pool.Make(Rt).t -> t -> int
     end) =
struct
  module P = Nbr_pool.Pool.Make (Rt)
  module R = Nbr_reclaim.Reclaimer.Make (Rt) (Smr)

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
    (* The background reclaimer is one extra participant: tid [n], a
       domain natively and a fiber in sim, registered with the scheme
       like any worker so epochs/handshakes/watchdogs all count it. *)
    let reclaim_on = cfg.reclaim <> None in
    let total = if reclaim_on then n + 1 else n in
    let pool =
      P.create ~capacity:cfg.pool_capacity ~data_fields:Ds.data_fields
        ~ptr_fields:Ds.ptr_fields ~nthreads:total ()
    in
    let smr_cfg =
      { cfg.smr with Nbr_core.Smr_config.max_reservations = Ds.max_reservations }
    in
    let smr = Smr.create pool ~nthreads:total smr_cfg in
    let ds = Ds.create pool in
    let ctxs = Array.init n (fun tid -> Smr.register smr ~tid) in
    let recl =
      match cfg.reclaim with
      | None -> None
      | Some policy ->
          let faults =
            match cfg.faults with
            | None -> []
            | Some p -> Nbr_fault.Fault_plan.reclaimer_faults p
          in
          let r =
            R.create ~policy
              ~max_backlog:
                (max 64 (2 * smr_cfg.Nbr_core.Smr_config.bag_threshold))
              ~faults smr ~tid:n
          in
          (* Watermarks with hysteresis: the high crossing (3/4 of
             capacity) kicks the reclaimer well before starvation would
             drive on_pressure, and the low mark re-arms the trigger. *)
          let cap = cfg.pool_capacity in
          P.set_watermarks pool ~lo:(cap / 2)
            ~hi:(cap - (cap / 4))
            ~on_high:(fun () -> R.kick r);
          Some r
    in
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
    (* A stall pauses inside an operation — and, for phase-based schemes,
       inside a read phase — holding whatever the scheme pins for
       in-flight operations (E2's delayed thread). *)
    let stall_in_op ctx ns =
      let stalled = ref false in
      Smr.op ctx (fun op ->
          Smr.read_only op { Smr.view = (fun _ ->
              if not !stalled then begin
                stalled := true;
                Rt.stall_ns ns
              end) })
    in
    let thread_faults =
      match cfg.faults with
      | None -> false
      | Some p ->
          Nbr_fault.Fault_plan.has_thread_faults p
          (* Reclaimer faults arm the same machinery: a stalled reclaimer
             must be reapable by the workers' watchdogs. *)
          || Nbr_fault.Fault_plan.has_reclaimer_faults p
    in
    (* Injected signal faults live only for the duration of this run: the
       decider is process-global runtime state.  A plan that faults
       threads but leaves signals alone still installs a (pass-through)
       decider: [Rt.fault_injection_active] is what arms the schemes'
       watchdog/recovery machinery, and a plan with stalled or crashed
       threads is exactly when it must be armed. *)
    (match cfg.faults with
    | None -> ()
    | Some p -> (
        match Nbr_fault.Fault_plan.fate_fn p with
        | Some _ as f -> Rt.set_signal_fault f
        | None ->
            if thread_faults then
              Rt.set_signal_fault
                (Some
                   (fun ~sender:_ ~target:_ ->
                     Nbr_runtime.Runtime_intf.Sig_deliver))));
    Fun.protect ~finally:(fun () -> Rt.set_signal_fault None) @@ fun () ->
    let workers_done = Atomic.make 0 in
    Rt.run ~nthreads:total (fun tid ->
        if tid >= n then
          (* The reclaimer role: loops until the last worker stops it (or
             a never-restart crash fault kills it). *)
          (match recl with Some r -> R.run r | None -> ())
        else
        (* A ref so dynamic membership (churn) can swap in the fresh
           context of a re-registration. *)
        let ctx = ref ctxs.(tid) in
        let rng = Nbr_sync.Rng.for_thread ~seed:cfg.seed ~tid in
        (match cfg.stall with
        | Some s when s.stall_tid = tid -> stall_in_op !ctx s.stall_ns
        | _ -> ());
        (* Chaos-plan faults fire between operations, once their trigger
           index is reached. *)
        let faults =
          ref
            (match cfg.faults with
            | None -> []
            | Some p -> Nbr_fault.Fault_plan.faults_for p tid)
        in
        let crashed = ref false in
        let my_ins = ref 0 and my_del = ref 0 and my_ops = ref 0 in
        while (not !crashed) && Rt.now_ns () < deadline do
          try
          (match !faults with
          | f :: rest when Nbr_fault.Fault_plan.fault_op f <= !my_ops -> (
              faults := rest;
              if !Nbr_obs.Trace.on then
                Nbr_obs.Trace.emit ~tid ~ns:(Rt.now_ns ())
                  Nbr_obs.Trace.Fault_action
                  (match f with
                  | Nbr_fault.Fault_plan.Stall _ -> 0
                  | Nbr_fault.Fault_plan.Crash _ -> 1
                  | Nbr_fault.Fault_plan.Hog _ -> 2
                  | Nbr_fault.Fault_plan.Shard_hog _ -> 3)
                  !my_ops;
              match f with
              | Nbr_fault.Fault_plan.Stall { ns; _ } -> stall_in_op !ctx ns
              | Nbr_fault.Fault_plan.Crash _ ->
                  (* Die mid-operation: enter but never leave.  The
                     scheme's in-op state — epoch/interval announcements,
                     the reservations left published by the previous
                     phase, the whole limbo bag — is orphaned forever. *)
                  Smr.abandon !ctx;
                  crashed := true
              | Nbr_fault.Fault_plan.Hog { slots; ns; _ }
              | Nbr_fault.Fault_plan.Shard_hog { slots; ns; _ } ->
                  (* Manufactured pool pressure: grab raw slots (no
                     reclamation flush on this path — the hog is the
                     adversary, not an SMR client) and sit on them. *)
                  let held = ref [] in
                  (try
                     for _ = 1 to slots do
                       held := P.alloc pool :: !held
                     done
                   with P.Exhausted _ -> ());
                  Rt.stall_ns ns;
                  List.iter (fun s -> P.free pool s) !held)
          | _ -> ());
          if not !crashed then begin
            let k = Nbr_sync.Rng.below rng cfg.key_range in
            let p = Nbr_sync.Rng.below rng 100 in
            (* Returns the histogram index of the operation performed. *)
            let do_op () =
              if p < cfg.ins_pct then begin
                if Ds.insert ds !ctx k then incr my_ins;
                0
              end
              else if p < cfg.ins_pct + cfg.del_pct then begin
                if Ds.delete ds !ctx k then incr my_del;
                1
              end
              else begin
                ignore (Ds.contains ds !ctx k);
                2
              end
            in
            (match lat with
            | None -> ignore (do_op ())
            | Some hists ->
                let h = hists.(tid) in
                let st = Smr.ctx_stats !ctx in
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
            then begin
              Smr.deregister !ctx;
              ctx := Smr.register smr ~tid
            end
          end
          with Nbr_core.Smr_intf.Expelled ->
            (* A peer's watchdog declared this thread dead while it was
               frozen past the death threshold (a long stall) and reaped
               its state.  The context is unusable: stop, like a crash —
               completed operations all committed before the expulsion
               point, so the size invariant is unaffected. *)
            crashed := true
        done;
        (* Post-trial drain when membership was dynamic or threads were
           faulted: surviving workers adopt any orphan parcels still on
           the stack and flush, so end-of-trial outstanding garbage is a
           meaningful bounded-reclamation measure (and the chaos tests
           can assert it). *)
        if (not !crashed) && (thread_faults || cfg.churn_ops > 0 || reclaim_on)
        then begin
          (* Stranded handoffs first: parcels exported before a reclaimer
             crash would otherwise never be swept. *)
          ignore (Smr.collect_handoffs !ctx);
          Smr.adopt_orphans !ctx;
          Smr.on_pressure !ctx
        end;
        (* The last worker out (crashed or not) releases the reclaimer;
           it drains what is left and leaves gracefully. *)
        (match recl with
        | Some r when Atomic.fetch_and_add workers_done 1 + 1 = n -> R.stop r
        | _ -> ());
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
      smr_stats = Smr.stats smr;
      final_size = Ds.size pool ds;
      expected_size = cfg.prefill + ins - del;
      latency =
        (match lat with
        | None -> None
        | Some hists ->
            let merged =
              Array.init 4 (fun _ -> Nbr_obs.Histogram.create ())
            in
            Array.iter
              (Array.iteri (fun i h ->
                   Nbr_obs.Histogram.merge_into ~into:merged.(i) h))
              hists;
            Some
              {
                Trial.lat_insert = Nbr_obs.Histogram.summary merged.(0);
                lat_delete = Nbr_obs.Histogram.summary merged.(1);
                lat_contains = Nbr_obs.Histogram.summary merged.(2);
                lat_restarts = Nbr_obs.Histogram.summary merged.(3);
              });
    }
end
