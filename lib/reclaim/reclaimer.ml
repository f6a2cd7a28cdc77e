(** The background reclaimer role (DESIGN.md §12).

    One extra participant — a domain under the native runtime, a fiber
    under the simulator, the same code either way — that drains the
    limbo-bag handoff channel so workers' retire paths stay allocation-
    and sweep-free.  A worker whose bag crosses the sweep threshold
    exports it through {!Nbr_core.Smr_intf.Offload} instead of sweeping
    inline; the reclaimer collects the exported bags, re-accounts them
    as its own garbage, and sweeps them with the scheme's ordinary
    pressure flush, off every operation's critical path.

    The reclaimer is an ordinary scheme client: it registers a context,
    runs each drain as one [op] (so its announcements
    participate in epochs — under DEBRA/RCU its quiescence pulses
    actively {e help} the epoch advance), adopts orphans like any other
    member, and answers neutralization handshakes through its poll
    point.

    Graceful degradation is clock-free: nobody watches the reclaimer.
    If it stalls, dies, or merely falls behind, the handoff channel's
    backlog grows past [max_backlog] and the next worker to cross its
    threshold flips the offload switch off — every scheme is instantly
    back to plain inline reclamation, correct if slower.  A recovered
    reclaimer drains the backlog and flips the switch back on.  Faults
    targeting the reclaimer itself ({!Nbr_fault.Fault_plan.reclaimer_fault})
    are interpreted inside {!Make.run}, mirroring how the trial runner
    interprets worker faults. *)

type policy =
  | Periodic of { interval_ns : int }
      (** sweep collected garbage every [interval_ns] (runtime clock) *)
  | After_n_retires of { n : int }
      (** sweep once [n] records have been collected since the last sweep *)
  | On_pressure
      (** sweep when the pool's high watermark fired ({!Make.kick}) or a
          drain just collected something — the default: idle reclaimers
          stay quiet, pressured pools are served immediately *)

module Make
    (Rt : Nbr_runtime.Runtime_intf.S)
    (Smr : Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t) =
struct
  module Offload = Nbr_core.Smr_intf.Offload

  type t = {
    smr : Smr.t;
    tid : int;  (** the extra tid the reclaimer runs as (= worker count) *)
    policy : policy;
    offload : Offload.t;
    faults : Nbr_fault.Fault_plan.reclaimer_fault list;
    slice_ns : int;  (** idle sleep per loop iteration *)
    stop_flag : bool Atomic.t;
    kicked : bool Atomic.t;  (** pool watermark hook pending *)
    iters : int Atomic.t;
    sweeps : int Atomic.t;
  }

  let create ?(policy = On_pressure) ?(max_backlog = 1024) ?(faults = [])
      ?(slice_ns = 2_000) smr ~tid =
    (match policy with
    | Periodic { interval_ns } when interval_ns <= 0 ->
        invalid_arg "Reclaimer.create: interval_ns must be positive"
    | After_n_retires { n } when n <= 0 ->
        invalid_arg "Reclaimer.create: n must be positive"
    | _ -> ());
    {
      smr;
      tid;
      policy;
      offload = Offload.create ~max_backlog ~reclaimer:tid ();
      faults;
      slice_ns;
      stop_flag = Atomic.make false;
      kicked = Atomic.make false;
      iters = Atomic.make 0;
      sweeps = Atomic.make 0;
    }

  let offload t = t.offload
  let iterations t = Atomic.get t.iters
  let sweeps t = Atomic.get t.sweeps

  (* Pool high-watermark hook: must be cheap and non-blocking (it runs on
     the allocating worker), so it only sets a flag the loop consumes. *)
  let kick t = Atomic.set t.kicked true

  let stop t = Atomic.set t.stop_flag true

  (* One guarded drain: collect whatever workers exported, and decide —
     by policy — whether to sweep it now.  Running it as an operation
     makes the reclaimer a first-class scheme member for this step:
     epoch schemes see its announcement (and its quiescence helps them
     advance), NBR peers can reserve against it, orphan parcels of
     crashed workers get adopted when it ends like anyone else's. *)
  let drain_once t ctx ~last_sweep_ns ~since_sweep =
    Smr.op ctx @@ fun _ ->
    let collected = Smr.collect_handoffs ctx in
    since_sweep := !since_sweep + collected;
    let now = Rt.now_ns () in
    let due =
      match t.policy with
      | Periodic { interval_ns } -> now - !last_sweep_ns >= interval_ns
      | After_n_retires { n } -> !since_sweep >= n
      | On_pressure -> collected > 0 || Atomic.exchange t.kicked false
    in
    if due && Smr.limbo_size ctx > 0 then begin
      let st = Smr.ctx_stats ctx in
      let f0 = Nbr_core.Smr_stats.freed st in
      Smr.on_pressure ctx;
      let freed = Nbr_core.Smr_stats.freed st - f0 in
      Atomic.incr t.sweeps;
      last_sweep_ns := now;
      since_sweep := 0;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid:t.tid ~ns:(Rt.now_ns ())
          Nbr_obs.Trace.Async_sweep freed
          (Atomic.get t.offload.Offload.backlog)
    end

  (* The role body: call from the extra thread of [Rt.run].  Returns when
     {!stop} has been observed (after a final drain) or when a
     never-restart crash fault fires. *)
  let run t =
    Smr.set_offload t.smr (Some t.offload);
    let ctx = ref (Some (Smr.register t.smr ~tid:t.tid)) in
    let faults = ref t.faults in
    let last_sweep_ns = ref (Rt.now_ns ()) in
    let since_sweep = ref 0 in
    let dead = ref false in
    let re_register () = ctx := Some (Smr.register t.smr ~tid:t.tid) in
    while (not !dead) && not (Atomic.get t.stop_flag) do
      let i = Atomic.fetch_and_add t.iters 1 + 1 in
      (* Answer pending neutralization signals even while idle: the
         bounded-wait handshake counts us among its peers. *)
      Rt.poll_t t.tid;
      (match !faults with
      | f :: rest when Nbr_fault.Fault_plan.reclaimer_fault_iter f <= i -> (
          faults := rest;
          match f with
          | Nbr_fault.Fault_plan.R_stall { ns; _ } ->
              (* Go dark without draining: the backlog piles up and the
                 workers' own detector flips the degrade switch — no
                 component watches the reclaimer's clock. *)
              Rt.stall_ns ns
          | Nbr_fault.Fault_plan.R_crash { restart_ns; _ } ->
              (* Announce the death (reason 1) so workers stop exporting
                 immediately instead of filling the channel first, then
                 orphan our collected-but-unswept garbage for them. *)
              Offload.degrade t.offload ~tid:t.tid ~ns:(Rt.now_ns ());
              (match !ctx with
              | Some c ->
                  Smr.deregister c;
                  ctx := None
              | None -> ());
              if restart_ns < 0 then begin
                Smr.set_offload t.smr None;
                dead := true
              end
              else begin
                Rt.stall_ns restart_ns;
                re_register ()
              end)
      | _ -> ());
      if not !dead then begin
        (match !ctx with
        | None -> re_register ()
        | Some _ -> ());
        (match !ctx with
        | Some c -> (
            try drain_once t c ~last_sweep_ns ~since_sweep
            with Nbr_core.Smr_intf.Expelled ->
              (* A worker's watchdog reaped us during a stall; our state
                 is orphaned already — rejoin fresh next iteration. *)
              ctx := None)
        | None -> ());
        (* Recovery: once the backlog is back under half the degrade
           threshold, re-open the channel.  CAS-guarded inside restore,
           so a healthy run never emits spurious Restore events. *)
        if
          Offload.degraded t.offload
          && Atomic.get t.offload.Offload.backlog
             <= t.offload.Offload.max_backlog / 2
        then Offload.restore t.offload ~tid:t.tid ~ns:(Rt.now_ns ());
        Rt.stall_ns t.slice_ns
      end
    done;
    (* Graceful exit: drain what is still in flight, hand the switch
       back to inline mode, and leave like any other member. *)
    if not !dead then begin
      (match !ctx with
      | Some c ->
          (try
             Smr.op c (fun _ ->
                 ignore (Smr.collect_handoffs c);
                 Smr.on_pressure c)
           with Nbr_core.Smr_intf.Expelled -> ctx := None)
      | None -> ());
      Smr.set_offload t.smr None;
      match !ctx with Some c -> Smr.deregister c | None -> ()
    end
end
