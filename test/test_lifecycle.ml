(* Thread-lifecycle tests: clean departure (deregister), orphan adoption,
   re-registration, watchdog reaping of a crashed thread (trace-asserted)
   and of a live thread caught mid-sweep (schedule-controlled), and a
   QCheck property that dynamic join/leave churn never double-frees
   or breaks set semantics. *)

module Sim = Nbr_runtime.Sim_rt
module P = Nbr_pool.Pool.Make (Sim)
module HS = Nbr_workload.Harness.Make (Sim)
module T = Nbr_workload.Trial
module FP = Nbr_fault.Fault_plan

let cfg threshold =
  Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default threshold

let sim_cfg seed =
  Sim.set_config { Sim.default_config with cores = 4; granularity = 1; seed }

(* ------------------------------------------------------------------ *)
(* Per-scheme: a departing thread's buffered retires are orphaned, a
   survivor adopts them, and they are actually freed.                  *)

module DeregAdopt
    (S : Nbr_core.Smr_intf.S with type pool = P.t) =
struct
  (* Thread 1 buffers [retired] records (threshold high enough that none
     are freed early), departs, and thread 0 adopts and flushes.  All
     [retired] records must end up freed and the pool must drain back to
     zero slots in use — nothing may leak with the departed thread, and
     nothing may be freed twice (the pool's seqno discipline would trip
     UAF/validation on a double free). *)
  let test_dereg_adopt () =
    sim_cfg 7;
    let retired = 20 in
    let pool = P.create ~capacity:4096 ~data_fields:1 ~ptr_fields:1 ~nthreads:2 () in
    let smr = S.create pool ~nthreads:2 (cfg 64) in
    let c0 = S.register smr ~tid:0 and c1 = S.register smr ~tid:1 in
    let departed = ref false in
    Sim.run ~nthreads:2 (fun tid ->
        if tid = 1 then begin
          S.op c1 (fun op ->
              S.phase op ~read:{ S.read = (fun _ -> ((), [||])) }
                ~write:{ S.write = (fun wr () ->
                  for _ = 1 to retired do
                    let s = S.alloc wr in
                    S.retire wr s
                  done) });
          S.deregister c1;
          departed := true
        end
        else begin
          while not !departed do
            Sim.stall_ns 200
          done;
          S.adopt_orphans c0;
          (* Epoch-based schemes need a few clean operations from the
             only remaining member before their grace periods elapse. *)
          for _ = 1 to 3 do
            S.op c0 ignore;
            S.on_pressure c0
          done
        end);
    let st = S.stats smr in
    Alcotest.(check int)
      "all retires accounted" retired
      (Nbr_core.Smr_stats.retires st);
    Alcotest.(check int) "all freed exactly once" retired
      (Nbr_core.Smr_stats.freed st);
    Alcotest.(check int) "pool drained" 0 (P.stats pool).P.s_in_use;
    Alcotest.(check int) "no UAF" 0 (P.stats pool).P.s_uaf_reads

  (* Departure is not death: a deregistered thread may re-register under
     the same tid and keep operating, and the scheme's aggregate stats
     survive the round trip. *)
  let test_rejoin () =
    sim_cfg 8;
    let pool = P.create ~capacity:4096 ~data_fields:1 ~ptr_fields:1 ~nthreads:2 () in
    let smr = S.create pool ~nthreads:2 (cfg 64) in
    let c0 = S.register smr ~tid:0 in
    ignore c0;
    Sim.run ~nthreads:1 (fun _ ->
        let c1 = ref (S.register smr ~tid:1) in
        for _ = 1 to 3 do
          S.op !c1 (fun op ->
              S.phase op ~read:{ S.read = (fun _ -> ((), [||])) }
                ~write:{ S.write = (fun wr () -> S.retire wr (S.alloc wr)) });
          S.deregister !c1;
          c1 := S.register smr ~tid:1
        done;
        (* The final incarnation is fully functional. *)
        S.op !c1 (fun op ->
            S.phase op ~read:{ S.read = (fun _ -> ((), [||])) }
              ~write:{ S.write = (fun wr () -> S.retire wr (S.alloc wr)) }));
    Alcotest.(check int)
      "retires accumulate across incarnations" 4
      (Nbr_core.Smr_stats.retires (S.stats smr))

  let cases name =
    [
      Alcotest.test_case (name ^ " deregister/adopt frees orphans") `Quick
        test_dereg_adopt;
      Alcotest.test_case (name ^ " deregister + re-register round trip")
        `Quick test_rejoin;
    ]
end

(* Leaky reclamation never buffers, so departure has nothing to orphan —
   but the lifecycle round trip must still work. *)
module Leaky = Nbr_core.Leaky.Make (Sim)

let test_leaky_lifecycle () =
  sim_cfg 9;
  let pool = P.create ~capacity:4096 ~data_fields:1 ~ptr_fields:1 ~nthreads:2 () in
  let smr = Leaky.create pool ~nthreads:2 (cfg 64) in
  let c1 = Leaky.register smr ~tid:1 in
  Sim.run ~nthreads:1 (fun _ ->
      Leaky.begin_op c1;
      let s = Leaky.alloc c1 in
      Leaky.retire c1 s;
      Leaky.end_op c1;
      Leaky.deregister c1;
      let c1' = Leaky.register smr ~tid:1 in
      Leaky.adopt_orphans c1' (* no-op: nothing is ever buffered *));
  Alcotest.(check int) "leaked record stays in use" 1
    (P.stats pool).P.s_in_use;
  Alcotest.(check int)
    "stats survive departure" 1
    (Nbr_core.Smr_stats.retires (Leaky.stats smr))

module D_nbr = DeregAdopt (Nbr_core.Nbr.Make (Sim))
module D_nbrp = DeregAdopt (Nbr_core.Nbr_plus.Make (Sim))
module D_debra = DeregAdopt (Nbr_core.Debra.Make (Sim))
module D_qsbr = DeregAdopt (Nbr_core.Qsbr.Make (Sim))
module D_rcu = DeregAdopt (Nbr_core.Rcu.Make (Sim))
module D_ibr = DeregAdopt (Nbr_core.Ibr.Make (Sim))
module D_hp = DeregAdopt (Nbr_core.Hp.Make (Sim))
module D_he = DeregAdopt (Nbr_core.Hazard_eras.Make (Sim))

(* ------------------------------------------------------------------ *)
(* A departing thread's magazine caches are handed back to the depot,
   not leaked: with the whole pool cycled through thread 1's magazines,
   thread 0 can still allocate every slot after the departure.  If
   deregister dropped the magazines, these allocs would exhaust.       *)

module NBRP = Nbr_core.Nbr_plus.Make (Sim)

let test_departed_magazines_adopted () =
  sim_cfg 11;
  let capacity = 32 in
  let pool =
    P.create ~capacity ~data_fields:1 ~ptr_fields:1 ~nthreads:2 ()
  in
  let smr = NBRP.create pool ~nthreads:2 (cfg 64) in
  let c0 = NBRP.register smr ~tid:0 and c1 = NBRP.register smr ~tid:1 in
  ignore c0;
  let departed = ref false in
  Sim.run ~nthreads:2 (fun tid ->
      if tid = 1 then begin
        (* Cycle most of the pool through this thread's magazine: the
           frees are cached locally, invisible to thread 0 until the
           departure flush. *)
        let slots = Array.init 24 (fun _ -> P.alloc pool) in
        Array.iter (P.free pool) slots;
        Alcotest.(check bool) "frees cached locally before departure" true
          (P.magazine_fill pool ~cls:0 ~tid:1 > 0);
        NBRP.deregister c1;
        Alcotest.(check int) "departure empties the magazine" 0
          (P.magazine_fill pool ~cls:0 ~tid:1);
        departed := true
      end
      else begin
        while not !departed do
          Sim.stall_ns 200
        done;
        (* The survivor can reach every slot the departed thread cached. *)
        for _ = 1 to capacity do
          ignore (P.alloc pool)
        done
      end);
  Alcotest.(check int) "full capacity reachable after departure" capacity
    (P.stats pool).P.s_in_use

(* ------------------------------------------------------------------ *)
(* Watchdog: a crashed thread is declared dead, reaped, and its orphans
   adopted — observed through the trace events the recovery layer emits. *)

let test_watchdog_reaps_crashed () =
  let nthreads = 4 in
  let duration = 2_000_000 in
  (* Crash-only plan: no signal policy, so this also pins down that the
     runner arms the fault machinery (and with it the watchdog) for
     thread-fault-only plans. *)
  let plan =
    FP.chaos ~seed:5 ~nthreads ~stalls:0 ~crashes:1 ~ops_window:30 ()
  in
  Sim.set_config
    { Sim.default_config with cores = 4; granularity = 400; seed = 5 };
  Nbr_obs.Trace.enable ~nthreads ();
  Fun.protect ~finally:Nbr_obs.Trace.clear @@ fun () ->
  let cfg =
    T.Cfg.make ~nthreads ~duration_ns:duration ~key_range:64 ~ins_pct:50 ~del_pct:50
      ~smr:(Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 16)
      ~seed:5 ~faults:plan ()
  in
  let r = HS.run ~scheme:"nbr+" ~structure:"harris-list" cfg in
  if not (T.valid r) then
    Alcotest.failf "invalid trial (size %d expected %d, uaf %d)"
      r.T.final_size r.T.expected_size r.T.uaf_reads;
  let deaths = ref 0 and adoptions = ref 0 and timeouts = ref 0 in
  let crashed_tid = List.hd (FP.crashed_tids plan) in
  List.iter
    (fun e ->
      match e.Nbr_obs.Trace.e_kind with
      | Nbr_obs.Trace.Peer_declared_dead ->
          incr deaths;
          Alcotest.(check int)
            "the declared-dead peer is the crashed thread" crashed_tid
            e.Nbr_obs.Trace.e_a
      | Nbr_obs.Trace.Orphan_adopted ->
          incr adoptions;
          Alcotest.(check int)
            "adopted parcel originates from the crashed thread" crashed_tid
            e.Nbr_obs.Trace.e_a
      | Nbr_obs.Trace.Heartbeat_timeout -> incr timeouts
      | _ -> ())
    (Nbr_obs.Trace.events ());
  Alcotest.(check int) "crashed thread declared dead exactly once" 1 !deaths;
  Alcotest.(check bool)
    (Printf.sprintf "escalation rounds preceded the verdict (%d)" !timeouts)
    true (!timeouts >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "orphans adopted (%d parcels)" !adoptions)
    true (!adoptions >= 1)

(* ------------------------------------------------------------------ *)
(* Reaped mid-sweep: the watchdog claims a peer that is alive and inside
   its own limbo-bag sweep (the falsely-declared-dead native thread of a
   steal-time stall).  A schedule controller runs the victim until its
   sweep has freed a first record — [P.free] charges [Rt.work], a yield
   point — then runs only the reaper, whose scans see the victim's
   heartbeat frozen and claim it.  Before the bag custody token the
   reaper swept the bag in place and the victim's resumed sweep popped
   an empty bag ("Limbo_bag.pop_front: empty"); now the bag changes
   hands exactly once, so no record is freed twice or lost.           *)

module ReapMidSweep
    (S : Nbr_core.Smr_intf.S with type pool = P.t) =
struct
  let retired = 32

  let test ~in_op () =
    Sim.set_config
      { Sim.default_config with cores = 2; granularity = 1; seed = 3 };
    let pool =
      P.create ~capacity:256 ~data_fields:1 ~ptr_fields:1 ~nthreads:2 ()
    in
    let smr = S.create pool ~nthreads:2 (cfg 4096) in
    let c0 = S.register smr ~tid:0 and c1 = S.register smr ~tid:1 in
    (* Full bag seen, then shrinking: the victim is mid-sweep. *)
    let filled = ref false and switched = ref false in
    let pick ~last:_ ~runnable =
      let n = S.limbo_size c1 in
      if n = retired then filled := true;
      if !filled && n < retired then switched := true;
      let want = if !switched then 0 else 1 in
      let idx = ref 0 in
      Array.iteri (fun i id -> if id = want then idx := i) runnable;
      !idx
    in
    Nbr_obs.Trace.enable ~nthreads:2 ();
    Sim.set_signal_fault
      (Some (fun ~sender:_ ~target:_ -> Nbr_runtime.Runtime_intf.Sig_deliver));
    Fun.protect
      ~finally:(fun () ->
        Sim.set_schedule_controller None;
        Sim.set_signal_fault None;
        Nbr_obs.Trace.clear ())
    @@ fun () ->
    Sim.set_schedule_controller (Some pick);
    Sim.run ~nthreads:2 (fun tid ->
        if tid = 1 then begin
          (* Outside any operation nothing pins the bag: the sweep frees
             record after record, yielding in each [P.free].  Inside its
             own operation the victim pins every record it retired, so
             the sweep keeps them all and hands them over as it ends. *)
          S.op c1 (fun op ->
              S.phase op ~read:{ S.read = (fun _ -> ((), [||])) }
                ~write:{ S.write = (fun wr () ->
                  for _ = 1 to retired do
                    S.retire wr (S.alloc wr)
                  done;
                  if in_op then S.on_pressure c1) });
          if not in_op then S.on_pressure c1
        end
        else
          (* Empty bag: each flush is a bare watchdog scan. *)
          for _ = 1 to 20 do
            S.on_pressure c0;
            Sim.stall_ns 100_000
          done);
    Sim.set_schedule_controller None;
    Alcotest.(check bool) "the reaper ran while the victim was mid-sweep" true
      !switched;
    let deaths =
      List.filter
        (fun e ->
          e.Nbr_obs.Trace.e_kind = Nbr_obs.Trace.Peer_declared_dead
          && e.Nbr_obs.Trace.e_a = 1)
        (Nbr_obs.Trace.events ())
    in
    Alcotest.(check int) "victim declared dead once" 1 (List.length deaths);
    (* Whatever the victim handed over becomes parcels at the next scan;
       adopt and free them. *)
    Sim.run ~nthreads:1 (fun _ ->
        S.on_pressure c0;
        S.adopt_orphans c0;
        for _ = 1 to 3 do
          S.op c0 ignore;
          S.on_pressure c0
        done);
    let ps = P.stats pool in
    Alcotest.(check int) "every record freed exactly once" retired ps.P.s_frees;
    Alcotest.(check int) "pool drained" 0 ps.P.s_in_use;
    Alcotest.(check int) "no UAF" 0 ps.P.s_uaf_reads
end

module R_ibr = ReapMidSweep (Nbr_core.Ibr.Make (Sim))
module R_hp = ReapMidSweep (Nbr_core.Hp.Make (Sim))
module R_he = ReapMidSweep (Nbr_core.Hazard_eras.Make (Sim))
module R_nbr = ReapMidSweep (Nbr_core.Nbr.Make (Sim))
module R_nbrp = ReapMidSweep (Nbr_core.Nbr_plus.Make (Sim))

(* ------------------------------------------------------------------ *)
(* A reaper's own statistics stay its own: the runner, the reclaimer and
   the KV guard read per-operation deltas of [ctx_stats], so a victim's
   lifetime counts must not land there.  Thread 1 retires records in one
   operation and crashes inside the next; thread 0, which retires
   nothing, reaps it.                                                  *)

module ReapKeepsOwnStats
    (S : Nbr_core.Smr_intf.S with type pool = P.t) =
struct
  let retired = 32

  let test () =
    Sim.set_config
      { Sim.default_config with cores = 2; granularity = 1; seed = 3 };
    let pool =
      P.create ~capacity:256 ~data_fields:1 ~ptr_fields:1 ~nthreads:2 ()
    in
    let smr = S.create pool ~nthreads:2 (cfg 4096) in
    let c0 = S.register smr ~tid:0 and c1 = S.register smr ~tid:1 in
    Nbr_obs.Trace.enable ~nthreads:2 ();
    Sim.set_signal_fault
      (Some (fun ~sender:_ ~target:_ -> Nbr_runtime.Runtime_intf.Sig_deliver));
    Fun.protect
      ~finally:(fun () ->
        Sim.set_signal_fault None;
        Nbr_obs.Trace.clear ())
    @@ fun () ->
    Sim.run ~nthreads:2 (fun tid ->
        if tid = 1 then begin
          S.op c1 (fun op ->
              S.phase op ~read:{ S.read = (fun _ -> ((), [||])) }
                ~write:{ S.write = (fun wr () ->
                  for _ = 1 to retired do
                    S.retire wr (S.alloc wr)
                  done) });
          S.abandon c1
          (* crashed: the operation never ends, and nothing more from
             this thread *)
        end
        else
          for _ = 1 to 20 do
            S.on_pressure c0;
            Sim.stall_ns 100_000
          done);
    let deaths =
      List.filter
        (fun e -> e.Nbr_obs.Trace.e_kind = Nbr_obs.Trace.Peer_declared_dead)
        (Nbr_obs.Trace.events ())
    in
    Alcotest.(check int) "victim reaped" 1 (List.length deaths);
    let own = S.ctx_stats c0 and all = S.stats smr in
    Alcotest.(check int) "reaper's ctx_stats: its own retires" 0
      (Nbr_core.Smr_stats.retires own);
    Alcotest.(check int) "reaper's ctx_stats: its own max garbage" 0
      (Nbr_core.Smr_stats.max_garbage own);
    Alcotest.(check int) "stats still total the victim's retires" retired
      (Nbr_core.Smr_stats.retires all);
    Alcotest.(check int) "stats still show the victim's garbage" retired
      (Nbr_core.Smr_stats.max_garbage all)
end

module K_nbr = ReapKeepsOwnStats (Nbr_core.Nbr.Make (Sim))
module K_nbrp = ReapKeepsOwnStats (Nbr_core.Nbr_plus.Make (Sim))
module K_ibr = ReapKeepsOwnStats (Nbr_core.Ibr.Make (Sim))
module K_hp = ReapKeepsOwnStats (Nbr_core.Hp.Make (Sim))
module K_he = ReapKeepsOwnStats (Nbr_core.Hazard_eras.Make (Sim))

(* ------------------------------------------------------------------ *)
(* QCheck: join/leave churn never double-frees.                        *)

(* Random scheme, churn period, thread count and seed; a sim trial with
   dynamic membership must preserve set semantics, commit no UAF read
   (which is what a double free surfaces as under the pool's seqno
   discipline), and raise nothing.  [Trial.valid] checks all of it. *)
let churn_never_double_frees =
  QCheck.Test.make ~count:15 ~name:"churn trials stay valid (no double free)"
    QCheck.(
      quad (int_range 0 7) (* scheme *)
        (int_range 2 6) (* threads *)
        (int_range 8 80) (* churn period *)
        (int_range 1 1000) (* seed *))
    (fun (si, nthreads, churn_ops, seed) ->
      let scheme =
        List.nth
          [ "nbr+"; "nbr"; "debra"; "qsbr"; "rcu"; "ibr"; "hp"; "he" ]
          si
      in
      let structure = Nbr_workload.Experiments.list_for scheme in
      Sim.set_config
        { Sim.default_config with cores = 4; granularity = 200; seed };
      let cfg =
        T.Cfg.make ~nthreads ~duration_ns:400_000 ~key_range:64 ~ins_pct:40
          ~del_pct:40
          ~smr:
            (Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default
               16)
          ~seed ~churn_ops ()
      in
      let r = HS.run ~scheme ~structure cfg in
      T.valid r)

let suite =
  D_nbr.cases "nbr" @ D_nbrp.cases "nbr+" @ D_debra.cases "debra"
  @ D_qsbr.cases "qsbr" @ D_rcu.cases "rcu" @ D_ibr.cases "ibr"
  @ D_hp.cases "hp" @ D_he.cases "he"
  @ [
      Alcotest.test_case "leaky lifecycle round trip" `Quick
        test_leaky_lifecycle;
      Alcotest.test_case "departed thread's magazines adopted" `Quick
        test_departed_magazines_adopted;
      Alcotest.test_case "watchdog reaps a crashed thread (traced)" `Quick
        test_watchdog_reaps_crashed;
      Alcotest.test_case "ibr peer reaped mid-sweep" `Quick
        (R_ibr.test ~in_op:false);
      Alcotest.test_case "ibr peer reaped mid-sweep, bag handed over" `Quick
        (R_ibr.test ~in_op:true);
      Alcotest.test_case "hp peer reaped mid-sweep" `Quick
        (R_hp.test ~in_op:false);
      Alcotest.test_case "he peer reaped mid-sweep" `Quick
        (R_he.test ~in_op:false);
      Alcotest.test_case "nbr peer reaped mid-sweep" `Quick
        (R_nbr.test ~in_op:false);
      Alcotest.test_case "nbr+ peer reaped mid-sweep" `Quick
        (R_nbrp.test ~in_op:false);
      Alcotest.test_case "nbr reaper keeps its own ctx_stats" `Quick K_nbr.test;
      Alcotest.test_case "nbr+ reaper keeps its own ctx_stats" `Quick
        K_nbrp.test;
      Alcotest.test_case "ibr reaper keeps its own ctx_stats" `Quick K_ibr.test;
      Alcotest.test_case "hp reaper keeps its own ctx_stats" `Quick K_hp.test;
      Alcotest.test_case "he reaper keeps its own ctx_stats" `Quick K_he.test;
      QCheck_alcotest.to_alcotest churn_never_double_frees;
    ]
