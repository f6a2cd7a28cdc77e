(* The request pipeline over a sharded store (DESIGN.md §14), fronted
   by the overload guard (DESIGN.md §15).

   Each worker runs an open-loop serving loop: a virtual arrival clock
   advances by shape-modulated exponential gaps (Traffic.next_gap_ns),
   and each turn the worker admits every request whose arrival time has
   passed (up to [batch]), groups the admissions by destination shard,
   and executes shard by shard.  Response latency is measured from
   *arrival* to completion, so when a flash crowd drives the offered
   load past the service rate, the growing admission backlog shows up
   directly in the p99.9 tail — the queueing behaviour a closed loop
   (rate 0: admit [batch] back-to-back, arrival = now) cannot exhibit.

   With a guard configured, admission additionally enforces per-request
   deadlines (late arrivals complete as timed-out), a bounded per-shard
   inflight budget (reject-newest shedding), and per-shard circuit
   breakers fed by a health poll before every shard batch; execution
   rechecks the deadline, absorbs [Pool.Exhausted] into a budgeted
   backoff-retry loop, and hard-trips the shard's breaker when the pool
   truly starves.  The guard keeps the request ledger either way: every
   admitted request ends as exactly one of completed / shed / timed-out
   ([Guard.slo_ok]), including requests a mid-batch expulsion forfeits.

   Fault plans, churn and per-shard reclamation run on the trial
   runner's code: [Fault_plan.decider] and [pop_due] interpret the plan,
   and each shard's [Nbr_workload.Cohort] applies thread faults between
   batches (a shard hog on its own shard), churn on every shard, and the
   reclaimer whose faults drive the offload degrade → restore trip. *)

type latency = {
  l_get : Nbr_obs.Histogram.summary;
  l_put : Nbr_obs.Histogram.summary;
  l_del : Nbr_obs.Histogram.summary;
  l_scan : Nbr_obs.Histogram.summary;
}

type report = {
  rep_scheme : string;
  rep_structure : string;
  rep_runtime : string;
  rep_nshards : int;
  rep_nthreads : int;
  rep_requests : int;  (** completed requests (the goodput) *)
  rep_throughput_kops : float;  (** thousand completed requests per second *)
  rep_latency : latency;  (** arrival → completion, queueing included *)
  rep_stats : Store.stats;
  rep_slo : Guard.slo;  (** request ledger + guard counters *)
  rep_garbage_bound : int;
  rep_expected_size : int;  (** prefill + successful puts − deletes *)
  rep_signal_faults : bool;
  rep_foil : bool;
  rep_bounded_claim : bool;
}

(* Set semantics must hold everywhere; committed UAF must be zero for
   every sound scheme; counted-but-uncommitted UAF reads additionally
   zero under the simulator's exact delivery (unless signal faults were
   injected).  Foils are exempt from the UAF clauses — consuming freed
   memory is what they are for. *)
let valid r =
  r.rep_stats.Store.st_size = r.rep_expected_size
  && (r.rep_foil
     || r.rep_stats.Store.st_committed_uaf = 0
        && (r.rep_runtime <> "sim"
           || r.rep_stats.Store.st_uaf_reads = 0
           || r.rep_signal_faults))

(* The paper's P2 at the service level: worst per-shard per-thread
   garbage stays under the shard bound.  Only meaningful for schemes
   that claim it; vacuously true otherwise. *)
let bounded_ok r =
  (not r.rep_bounded_claim)
  || r.rep_stats.Store.st_max_garbage <= r.rep_garbage_bound

(* The guard's ledger invariant: every admitted request is exactly one
   of completed / shed / timed-out.  Holds for unguarded runs too (the
   disabled guard still counts), except when an [Exhausted] escape
   aborted the run mid-flight — which the drivers report separately. *)
let slo_ok r = Guard.slo_ok r.rep_slo

let pp_latency_line ppf (name, (s : Nbr_obs.Histogram.summary)) =
  Format.fprintf ppf
    "%-6s n=%-9d p50=%-9.0f p90=%-9.0f p99=%-9.0f p99.9=%-9.0f max=%d@."
    name s.Nbr_obs.Histogram.s_count s.s_p50 s.s_p90 s.s_p99 s.s_p999
    s.s_max

let pp_report ppf r =
  Format.fprintf ppf
    "%s/%s on %s: %d shards, %d workers, %d reqs, %.1f kreq/s%s%s%s@."
    r.rep_scheme r.rep_structure r.rep_runtime r.rep_nshards r.rep_nthreads
    r.rep_requests r.rep_throughput_kops
    (if valid r then "" else "  INVALID")
    (if bounded_ok r then "" else "  GARBAGE-UNBOUNDED")
    (if slo_ok r then "" else "  LEDGER-BROKEN");
  pp_latency_line ppf ("get", r.rep_latency.l_get);
  pp_latency_line ppf ("put", r.rep_latency.l_put);
  pp_latency_line ppf ("delete", r.rep_latency.l_del);
  pp_latency_line ppf ("scan", r.rep_latency.l_scan);
  Format.fprintf ppf "slo: %a@." Guard.pp_slo r.rep_slo;
  Format.fprintf ppf
    "size=%d expected=%d uaf=%d committed=%d max_garbage=%d bound=%d \
     degrades=%d restores=%d@."
    r.rep_stats.Store.st_size r.rep_expected_size
    r.rep_stats.Store.st_uaf_reads r.rep_stats.Store.st_committed_uaf
    r.rep_stats.Store.st_max_garbage r.rep_garbage_bound
    r.rep_stats.Store.st_degrades r.rep_stats.Store.st_restores

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module St = Store.Make (Rt)
  module F = Nbr_fault.Fault_plan

  module Cfg = struct
    type t = {
      duration_ns : int;
      traffic : Nbr_workload.Traffic.t;
      batch : int;  (** max admissions per pipeline turn *)
      seed : int;
      prefill : int;  (** uniform-random put attempts before the clock *)
      faults : Nbr_fault.Fault_plan.t option;
      churn_ops : int;  (** per-worker requests between churn cycles; 0 = off *)
      guard : Guard.Cfg.t option;  (** overload protection; [None] = off *)
    }

    let make ?(duration_ns = 2_000_000) ?(batch = 32) ?(seed = 1)
        ?(prefill = 0) ?faults ?(churn_ops = 0) ?guard ~traffic () =
      if batch < 1 then invalid_arg "Kv.Service.Cfg.make: batch < 1";
      if duration_ns < 1 then
        invalid_arg "Kv.Service.Cfg.make: duration_ns < 1";
      if prefill < 0 then invalid_arg "Kv.Service.Cfg.make: prefill < 0";
      { duration_ns; traffic; batch; seed; prefill; faults; churn_ops; guard }
  end

  let hidx_of (op : Nbr_workload.Traffic.op) =
    match op with
    | Nbr_workload.Traffic.Get _ -> 0
    | Put _ -> 1
    | Delete _ -> 2
    | Scan _ -> 3

  let run (st : St.t) (cfg : Cfg.t) : report =
    let n = St.nthreads st in
    let nshards = St.nshards st in
    let reclaim_on = St.reclaim_on st in
    let total = n + if reclaim_on then nshards else 0 in
    let tr = cfg.Cfg.traffic in
    let g = Guard.create ?cfg:cfg.Cfg.guard ~nshards () in
    let guard_on = Guard.enabled g in
    (* Deterministic prefill, before the clock: uniform keys so every
       shard starts with comparable occupancy. *)
    let pf_rng = Nbr_sync.Rng.create (cfg.Cfg.seed lxor 0xbeef) in
    let prefilled = ref 0 in
    let ks = St.keyspace st in
    for _ = 1 to cfg.Cfg.prefill do
      if St.put st ~tid:0 (Nbr_sync.Rng.below pf_rng ks) then
        incr prefilled
    done;
    St.reset_peaks st;
    let plan = Option.value cfg.Cfg.faults ~default:(F.none ~nthreads:n) in
    let drains =
      reclaim_on || cfg.Cfg.churn_ops > 0 || F.faults_threads plan
    in
    Rt.set_signal_fault (F.decider plan);
    Fun.protect ~finally:(fun () -> Rt.set_signal_fault None) @@ fun () ->
    let reqs = Array.make n 0
    and puts_ok = Array.make n 0
    and dels_ok = Array.make n 0 in
    (* Per-worker latency histograms (single-writer), merged after the
       run: 0/1/2/3 = get/put/delete/scan arrival→completion. *)
    let hists =
      Array.init n (fun _ ->
          Array.init 4 (fun _ -> Nbr_obs.Histogram.create ()))
    in
    let workers_done = Atomic.make 0 in
    let t0 = Rt.now_ns () in
    let deadline = t0 + cfg.Cfg.duration_ns in
    let dur_f = float_of_int cfg.Cfg.duration_ns in
    let open_loop = Nbr_workload.Traffic.open_loop tr in
    Rt.run ~nthreads:total (fun tid ->
        if tid >= n then St.run_reclaimer st (tid - n)
        else begin
          let rng = Nbr_sync.Rng.for_thread ~seed:cfg.Cfg.seed ~tid in
          let faults = ref (F.faults_for plan tid) in
          let crashed = ref false in
          let arrival = ref (Rt.now_ns ()) in
          let buckets = Array.make nshards [] in
          (* Worker-local execution cursor, so a mid-batch expulsion can
             forfeit exactly the admitted-but-unexecuted requests. *)
          let pending = ref [] in
          let pending_shard = ref 0 in
          let current = ref None in
          (* Last-seen cumulative handshake-timeout count per shard (own
             context, single-writer): a fresh timeout is a health strike. *)
          let hs_seen = Array.make nshards 0 in
          let my_reqs = ref 0
          and my_puts = ref 0
          and my_dels = ref 0 in
          let h = hists.(tid) in
          (* One request on shard [s]: deadline recheck, then execute
             with [Exhausted] absorbed into the budgeted retry loop
             (guarded runs only — unguarded runs keep the raise). *)
          let exec_entry s a op probe =
            let cls = Guard.cls_of_op op in
            if
              Guard.pre_exec g ~now:(Rt.now_ns ()) ~tid ~shard:s ~arrival:a
                ~probe
            then begin
              let attempt = ref 0 in
              let finished = ref false in
              while not !finished do
                match St.exec_on st ~tid ~shard:s op with
                | ok ->
                    (match op with
                    | Nbr_workload.Traffic.Put _ ->
                        if ok > 0 then incr my_puts
                    | Nbr_workload.Traffic.Delete _ ->
                        if ok > 0 then incr my_dels
                    | _ -> ());
                    let fin = Rt.now_ns () in
                    Nbr_obs.Histogram.record h.(hidx_of op) (fin - a);
                    Guard.complete g ~now:fin ~tid ~shard:s ~probe;
                    incr my_reqs;
                    current := None;
                    finished := true;
                    if
                      cfg.Cfg.churn_ops > 0 && tid > 0
                      && !my_reqs mod cfg.Cfg.churn_ops = 0
                    then St.churn st ~tid
                | exception St.P.Exhausted x ->
                    Guard.note_exhausted g ~now:(Rt.now_ns ()) ~tid ~shard:s;
                    if not guard_on then raise (St.P.Exhausted x);
                    incr attempt;
                    (match
                       Guard.retry g ~now:(Rt.now_ns ()) ~tid ~shard:s
                         ~arrival:a ~attempt:!attempt
                     with
                    | Some delay -> Rt.stall_ns delay
                    | None ->
                        Guard.fail g ~now:(Rt.now_ns ()) ~tid ~shard:s ~cls
                          ~arrival:a ~probe;
                        current := None;
                        finished := true)
              done
            end
            else current := None
          in
          let forfeit_all () =
            let now = Rt.now_ns () in
            let forfeit_one s (_, op, probe) =
              Guard.forfeit g ~now ~tid ~shard:s
                ~cls:(Guard.cls_of_op op) ~probe
            in
            (match !current with
            | Some (s, e) -> forfeit_one s e
            | None -> ());
            current := None;
            List.iter (forfeit_one !pending_shard) !pending;
            pending := [];
            Array.iteri
              (fun s l ->
                List.iter (forfeit_one s) l;
                buckets.(s) <- [])
              buckets
          in
          while (not !crashed) && Rt.now_ns () < deadline do
            try
              (match F.pop_due faults ~tid ~now:Rt.now_ns !my_reqs with
              | None -> ()
              | Some (F.Stall { ns; _ }) -> St.stall st ~tid ns
              | Some (F.Crash _) ->
                  St.crash st ~tid;
                  crashed := true
              | Some (F.Hog { slots; ns; _ }) -> St.hog st ~shard:0 ~slots ~ns
              | Some (F.Shard_hog { shard; slots; ns; _ }) ->
                  St.hog st ~shard ~slots ~ns);
              if not !crashed then begin
                let now = Rt.now_ns () in
                (* Closed loop: no arrival process, issue back-to-back. *)
                if not open_loop then arrival := now;
                let admitted = ref 0 in
                while !arrival <= now && !admitted < cfg.Cfg.batch do
                  let op = Nbr_workload.Traffic.draw_op tr rng in
                  let s = St.shard_of_op st op in
                  (match
                     Guard.admit g ~now ~tid ~shard:s
                       ~cls:(Guard.cls_of_op op) ~arrival:!arrival
                   with
                  | Guard.Admitted { probe } ->
                      buckets.(s) <- (!arrival, op, probe) :: buckets.(s)
                  | Guard.Rejected -> ());
                  incr admitted;
                  if open_loop then begin
                    let frac =
                      Float.min 1.0
                        (Float.max 0.0
                           (float_of_int (!arrival - t0) /. dur_f))
                    in
                    arrival :=
                      !arrival
                      + Nbr_workload.Traffic.next_gap_ns tr rng ~frac
                  end
                done;
                if !admitted = 0 && not guard_on then begin
                  (* No arrival due yet: charge the poll and yield so
                     virtual time advances toward the next arrival. *)
                  Rt.work 64;
                  Rt.cpu_relax ()
                end
                else begin
                  for s = 0 to nshards - 1 do
                    (* Health poll before each shard batch — and on idle
                       turns too, so brownout ladders decay and breakers
                       progress while a shard gets no traffic. *)
                    if guard_on then begin
                      let cur = St.hs_timeouts st ~tid ~shard:s in
                      let fresh = cur > hs_seen.(s) in
                      hs_seen.(s) <- cur;
                      let hl = St.health st ~shard:s in
                      Guard.poll g ~now:(Rt.now_ns ()) ~tid ~shard:s
                        ~healthy:
                          (Guard.healthy_of
                             ~occupancy:hl.Store.h_occupancy
                             ~capacity:hl.Store.h_capacity
                             ~pressured:hl.Store.h_pressured
                             ~degraded:hl.Store.h_degraded
                             ~hs_timed_out:fresh)
                    end;
                    match buckets.(s) with
                    | [] -> ()
                    | l ->
                        buckets.(s) <- [];
                        pending := List.rev l;
                        pending_shard := s;
                        let continue_ = ref true in
                        while !continue_ do
                          match !pending with
                          | [] -> continue_ := false
                          | ((a, op, probe) as e) :: rest ->
                              pending := rest;
                              current := Some (s, e);
                              exec_entry s a op probe
                        done
                  done;
                  if !admitted = 0 then begin
                    Rt.work 64;
                    Rt.cpu_relax ()
                  end
                end
              end
            with Nbr_core.Smr_intf.Expelled ->
              (* A watchdog reaped this thread while it was frozen; its
                 contexts are gone on every shard.  Stop, like a crash —
                 completed requests all committed first, and everything
                 still admitted is forfeited (shed) so the ledger keeps
                 balancing. *)
              forfeit_all ();
              crashed := true
          done;
          if !crashed then forfeit_all ();
          if drains && not !crashed then St.drain st ~tid;
          (* Last worker out (crashed or not) releases the per-shard
             reclaimers; they drain what is left and leave. *)
          if
            reclaim_on
            && Atomic.fetch_and_add workers_done 1 + 1 = n
          then St.stop_reclaimers st;
          reqs.(tid) <- !my_reqs;
          puts_ok.(tid) <- !my_puts;
          dels_ok.(tid) <- !my_dels
        end);
    let total_reqs = Array.fold_left ( + ) 0 reqs in
    let puts = Array.fold_left ( + ) 0 puts_ok
    and dels = Array.fold_left ( + ) 0 dels_ok in
    let lat = Nbr_obs.Histogram.merged_summaries hists in
    let scfg = St.cfg st in
    {
      rep_scheme = scfg.St.Cfg.scheme;
      rep_structure = scfg.St.Cfg.structure;
      rep_runtime = Rt.name;
      rep_nshards = nshards;
      rep_nthreads = n;
      rep_requests = total_reqs;
      rep_throughput_kops =
        float_of_int total_reqs /. (dur_f /. 1e9) /. 1e3;
      rep_latency =
        {
          l_get = lat.(0);
          l_put = lat.(1);
          l_del = lat.(2);
          l_scan = lat.(3);
        };
      rep_stats = St.stats st;
      rep_slo = Guard.snapshot g;
      rep_garbage_bound = St.garbage_bound st;
      rep_expected_size = !prefilled + puts - dels;
      rep_signal_faults = plan.F.signals <> None;
      rep_foil = St.foil st;
      rep_bounded_claim = St.bounded_claim st;
    }
  end
