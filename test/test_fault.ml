(* Fault-injection layer tests: seeded chaos plans (multi-thread stalls,
   a crashed thread, delayed signals) against every scheme, the
   bounded-garbage invariant (paper P2), the runtime's signal-fate
   plumbing, and the pool's graceful-exhaustion retry path. *)

module Sim = Nbr_runtime.Sim_rt
module Nat = Nbr_runtime.Native_rt
module HS = Nbr_workload.Harness.Make (Sim)
module HN = Nbr_workload.Harness.Make (Nat)
module T = Nbr_workload.Trial
module FP = Nbr_fault.Fault_plan
module P = Nbr_pool.Pool.Make (Sim)

let claims_bounded = Nbr_workload.Experiments.claims_bounded

(* HP/HE cannot run mark-traversing structures (paper P5). *)
let structure_for = Nbr_workload.Experiments.list_for

let delay_signal = { FP.delay_pct = 25; delay_ns = 10_000; drop_pct = 0 }

(* ---------------- plan generation ---------------- *)

(* The chaos generator must honour its own contract: requested fault
   counts, no fault on thread 0, deterministic for a given seed. *)
let test_plan_shape () =
  List.iter
    (fun seed ->
      let p =
        FP.chaos ~seed ~nthreads:6 ~stalls:2 ~crashes:1 ~stall_ns:1000
          ~signal:delay_signal ()
      in
      Alcotest.(check int)
        "two stalled threads" 2
        (List.length (FP.stalled_tids p));
      Alcotest.(check int) "one crashed thread" 1 (List.length (FP.crashed_tids p));
      List.iter
        (fun tid -> if tid = 0 then Alcotest.fail "thread 0 must never fault")
        (FP.stalled_tids p @ FP.crashed_tids p);
      (* Same seed, same plan. *)
      let p' =
        FP.chaos ~seed ~nthreads:6 ~stalls:2 ~crashes:1 ~stall_ns:1000
          ~signal:delay_signal ()
      in
      Alcotest.(check string)
        "deterministic plan"
        (Format.asprintf "%a" FP.pp p)
        (Format.asprintf "%a" FP.pp p'))
    [ 1; 2; 3; 4; 5 ]

(* The victim pool resets between fault kinds: across seeds, some plan
   must put a stall AND the crash on the same thread (the paper's worst
   case — a delayed thread that then dies), which the old
   draw-without-replacement-across-kinds generator could never emit. *)
let test_plan_same_tid_collision () =
  let found = ref false in
  for seed = 1 to 200 do
    let p = FP.chaos ~seed ~nthreads:4 ~stalls:2 ~crashes:1 ~stall_ns:1000 () in
    let stalled = FP.stalled_tids p and crashed = FP.crashed_tids p in
    if List.exists (fun t -> List.mem t stalled) crashed then found := true
  done;
  Alcotest.(check bool) "some seed stalls and crashes one thread" true !found

(* Per-thread fault lists are ordered by trigger op, and a Crash ties
   after other kinds at the same op: everything after a crash is
   unreachable, so the runner must see the stall first. *)
let test_plan_fault_order () =
  for seed = 1 to 100 do
    let p =
      FP.chaos ~seed ~nthreads:4 ~stalls:3 ~crashes:3 ~stall_ns:1000
        ~ops_window:3 ()
    in
    Array.iteri
      (fun tid _ ->
        let rec check = function
          | a :: (b :: _ as rest) ->
              if FP.fault_op a > FP.fault_op b then
                Alcotest.failf "seed %d t%d: faults out of op order" seed tid;
              (match (a, b) with
              | FP.Crash { at_op }, f when FP.fault_op f = at_op ->
                  Alcotest.failf "seed %d t%d: crash ordered before a \
                                  same-op fault" seed tid
              | _ -> ());
              check rest
          | _ -> ()
        in
        check (FP.faults_for p tid))
      p.FP.threads
  done

(* Two deciders built from the same plan must hand out identical fates:
   chaos trials stay replayable. *)
let test_fate_deterministic () =
  let plan =
    FP.chaos ~seed:42 ~nthreads:4
      ~signal:{ FP.delay_pct = 30; delay_ns = 5_000; drop_pct = 20 }
      ()
  in
  let f1 = Option.get (FP.fate_fn plan)
  and f2 = Option.get (FP.fate_fn plan) in
  for i = 0 to 199 do
    let sender = i mod 4 and target = (i + 1) mod 4 in
    if f1 ~sender ~target <> f2 ~sender ~target then
      Alcotest.failf "fate diverged at send %d" i
  done

(* The decider a run installs: none for an empty plan, a pass-through
   one when only threads or the reclaimer are faulted (it arms the
   watchdogs without touching delivery), and the plan's own fates, in
   order, when it faults signals. *)
let test_decider () =
  let sends f =
    List.init 200 (fun i -> f ~sender:(i mod 4) ~target:((i + 1) mod 4))
  in
  Alcotest.(check bool)
    "empty plan: no decider" true
    (FP.decider (FP.none ~nthreads:4) = None);
  List.iter
    (fun (what, plan) ->
      match FP.decider plan with
      | None -> Alcotest.failf "%s: no decider" what
      | Some d ->
          if
            List.exists
              (( <> ) Nbr_runtime.Runtime_intf.Sig_deliver)
              (sends d)
          then Alcotest.failf "%s: a signal was not delivered" what)
    [
      ("thread faults", FP.chaos ~seed:7 ~nthreads:4 ());
      ( "reclaimer faults",
        {
          (FP.none ~nthreads:4) with
          FP.reclaimer = [ FP.R_stall { at_iter = 1; ns = 1000 } ];
        } );
    ];
  let plan =
    FP.chaos ~seed:42 ~nthreads:4
      ~signal:{ FP.delay_pct = 30; delay_ns = 5_000; drop_pct = 20 }
      ()
  in
  Alcotest.(check bool)
    "signal faults: fate_fn's fates, in order" true
    (sends (Option.get (FP.decider plan))
    = sends (Option.get (FP.fate_fn plan)))

(* [pop_due] hands out a thread's faults in order, each once its trigger
   index is reached, and nothing before. *)
let test_pop_due () =
  let faults =
    ref [ FP.Stall { at_op = 2; ns = 10 }; FP.Crash { at_op = 2 } ]
  in
  let pop ops = FP.pop_due faults ~tid:1 ~now:(fun () -> 0) ops in
  Alcotest.(check bool) "not due at 1" true (pop 1 = None);
  Alcotest.(check bool)
    "stall at 2" true
    (pop 2 = Some (FP.Stall { at_op = 2; ns = 10 }));
  Alcotest.(check bool)
    "then the crash" true
    (pop 3 = Some (FP.Crash { at_op = 2 }));
  Alcotest.(check bool) "then nothing" true (pop 4 = None && !faults = [])

(* ---------------- runtime signal-fate plumbing ---------------- *)

(* A dropped signal is never delivered but is counted. *)
let test_drop_counted () =
  Sim.set_config { Sim.default_config with cores = 2; granularity = 1; seed = 9 };
  Sim.set_signal_fault
    (Some (fun ~sender:_ ~target:_ -> Nbr_runtime.Runtime_intf.Sig_drop));
  Fun.protect ~finally:(fun () -> Sim.set_signal_fault None) @@ fun () ->
  let sent = ref false and saw = ref false in
  Sim.run ~nthreads:2 (fun tid ->
      if tid = 0 then begin
        Sim.send_signal 1;
        sent := true
      end
      else begin
        while not !sent do
          Sim.stall_ns 100
        done;
        saw := Sim.consume_pending_t tid
      end);
  Alcotest.(check int) "counted as dropped" 1 (Sim.signals_dropped ());
  Alcotest.(check bool) "never visible" false !saw

(* A delayed signal suppresses the *handler*, but stays visible to
   [consume_pending_t] from the moment it is sent — the property the
   writers' handshake (signal_all/end_read) depends on. *)
let test_delay_visible () =
  Sim.set_config { Sim.default_config with cores = 2; granularity = 1; seed = 9 };
  Sim.set_signal_fault
    (Some
       (fun ~sender:_ ~target:_ -> Nbr_runtime.Runtime_intf.Sig_delay 5_000_000));
  Fun.protect ~finally:(fun () -> Sim.set_signal_fault None) @@ fun () ->
  let sent = ref false and saw = ref false in
  Sim.run ~nthreads:2 (fun tid ->
      if tid = 0 then begin
        Sim.send_signal 1;
        sent := true
      end
      else begin
        while not !sent do
          Sim.stall_ns 100
        done;
        saw := Sim.consume_pending_t tid
      end);
  Alcotest.(check bool) "visible while delayed" true !saw;
  Alcotest.(check int) "not dropped" 0 (Sim.signals_dropped ())

(* ---------------- chaos trials (sim) ---------------- *)

let chaos_trial ~seed ~signal scheme =
  let nthreads = 6 in
  let duration = 800_000 in
  let plan =
    FP.chaos ~seed ~nthreads ~stalls:2 ~crashes:1 ~stall_ns:(duration / 2)
      ~ops_window:100 ?signal ()
  in
  let structure = structure_for scheme in
  Sim.set_config { Sim.default_config with cores = 8; granularity = 400; seed };
  let cfg =
    T.Cfg.make ~nthreads ~duration_ns:duration ~key_range:128 ~ins_pct:50 ~del_pct:50
      ~smr:(Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 32)
      ~seed ~faults:plan ()
  in
  let r = HS.run ~scheme ~structure cfg in
  if not (T.valid r) then
    Alcotest.failf "%s/%s seed %d: invalid (size %d expected %d, uaf %d)"
      scheme structure seed r.T.final_size r.T.expected_size r.T.uaf_reads;
  if r.T.total_ops = 0 then Alcotest.fail "no operations completed";
  if claims_bounded scheme then begin
    let bound = r.T.garbage_bound in
    let mg = Nbr_core.Smr_stats.max_garbage r.T.smr_stats in
    if mg > bound then
      Alcotest.failf "%s seed %d: max_garbage %d > bound %d (P2 violated)"
        scheme seed mg bound
  end

(* Without signal faults the simulator's delivery is exact, so [T.valid]
   additionally demands zero reads of freed slots: stalls and a crashed
   thread alone must never induce UAF. *)
let chaos_sim_case scheme =
  Alcotest.test_case (scheme ^ " chaos (stall+crash)") `Quick (fun () ->
      chaos_trial ~seed:21 ~signal:None scheme)

(* With delayed handlers the reads-of-freed check is relaxed (the delay
   window is the benign native-style window), but set semantics and the
   garbage bound still must hold. *)
let chaos_sim_delay_case scheme =
  Alcotest.test_case (scheme ^ " chaos (+signal delay)") `Quick (fun () ->
      chaos_trial ~seed:22 ~signal:(Some delay_signal) scheme)

(* ---------------- chaos trial (native) ---------------- *)

let chaos_native_case scheme =
  Alcotest.test_case (scheme ^ " chaos native") `Quick (fun () ->
      let nthreads = 4 in
      let duration = 30_000_000 in
      let plan =
        FP.chaos ~seed:31 ~nthreads ~stalls:2 ~crashes:1
          ~stall_ns:(duration / 3) ~ops_window:50 ~signal:delay_signal ()
      in
      let structure = structure_for scheme in
      let cfg =
        T.Cfg.make ~nthreads ~duration_ns:duration ~key_range:128 ~ins_pct:50
          ~del_pct:50
          ~smr:
            (Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 32)
          ~seed:31 ~faults:plan ()
      in
      let r = HN.run ~scheme ~structure cfg in
      if not (T.valid r) then
        Alcotest.failf "%s/%s native: invalid (size %d expected %d)" scheme
          structure r.T.final_size r.T.expected_size;
      if r.T.total_ops = 0 then Alcotest.fail "no operations completed")

(* ---------------- crash recovery: outstanding garbage ---------------- *)

(* End-state reclamation under a crash, not just the high-water mark.
   The trial outlives the watchdog death threshold by an order of
   magnitude, so the crashed thread is declared dead, its published
   state retracted and its limbo bag adopted and freed; survivors flush
   their own bags in the post-trial drain.  Aggregate outstanding
   garbage (retires − frees) must then be near zero: for pointer-
   reservation schemes (nbr/nbr+/hp) only records pinned by survivors'
   final published reservations may remain; era schemes (ibr/he)
   additionally keep records whose lifetime overlaps a survivor's stale
   final interval, so they get the interval slack.  Without the
   lifecycle layer the crashed thread's bag and reservations leaked
   permanently and every worker's bag was abandoned at the deadline —
   far past the pointer-scheme bound. *)
let chaos_outstanding_case scheme =
  Alcotest.test_case (scheme ^ " chaos recovery: outstanding") `Quick
    (fun () ->
      let nthreads = 6 in
      let duration = 3_000_000 in
      (* Short stalls (well under the 600us death threshold) plus one
         crash: the staller recovers and must not be expelled; the
         crasher must be reaped. *)
      let plan =
        FP.chaos ~seed:17 ~nthreads ~stalls:1 ~crashes:1 ~stall_ns:50_000
          ~ops_window:60 ()
      in
      let structure = structure_for scheme in
      Sim.set_config
        { Sim.default_config with cores = 8; granularity = 400; seed = 17 };
      let cfg =
        T.Cfg.make ~nthreads ~duration_ns:duration ~key_range:128 ~ins_pct:50
          ~del_pct:50
          ~smr:
            (Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default
               128)
          ~seed:17 ~faults:plan ()
      in
      let r = HS.run ~scheme ~structure cfg in
      if not (T.valid r) then
        Alcotest.failf "%s/%s: invalid (size %d expected %d, uaf %d)" scheme
          structure r.T.final_size r.T.expected_size r.T.uaf_reads;
      let st = r.T.smr_stats in
      let outstanding =
        Nbr_core.Smr_stats.retires st - Nbr_core.Smr_stats.freed st
      in
      let max_res = if structure = "harris-list" then 3 else 2 in
      let tight = (nthreads * max_res) + 64 in
      let bound =
        match scheme with
        | "nbr" | "nbr+" | "hp" -> tight
        | _ -> tight + (2 * cfg.T.key_range)
      in
      if outstanding > bound then
        Alcotest.failf
          "%s: %d records still outstanding after recovery (bound %d, \
           retired %d freed %d)"
          scheme outstanding bound
          (Nbr_core.Smr_stats.retires st)
          (Nbr_core.Smr_stats.freed st))

(* ---------------- graceful pool exhaustion ---------------- *)

(* A starving allocator must succeed — not raise [Exhausted] — when a
   competing thread frees capacity during its backoff: the free is
   rerouted to the shared overflow stack and picked up by the retry
   loop. *)
let test_exhaustion_retry () =
  Sim.set_config { Sim.default_config with cores = 2; granularity = 1; seed = 3 };
  let pool = P.create ~capacity:8 ~data_fields:1 ~ptr_fields:1 ~nthreads:2 () in
  let held = ref [] in
  let drained = ref false in
  let freed_slot = ref (-1) in
  let got = ref (-1) in
  Sim.run ~nthreads:2 (fun tid ->
      if tid = 0 then begin
        for _ = 1 to 8 do
          held := P.alloc pool :: !held
        done;
        drained := true;
        (* The 9th alloc starves; it must return the slot thread 1 frees
           mid-backoff rather than raise. *)
        got := P.alloc pool
      end
      else begin
        while not !drained do
          Sim.stall_ns 500
        done;
        (* Wait until thread 0 is inside the pressure loop, so the free
           demonstrably crosses threads via the overflow stack. *)
        while (P.stats pool).P.s_pressure_events = 0 do
          Sim.stall_ns 500
        done;
        let s = List.hd !held in
        freed_slot := s;
        P.free pool s
      end);
  (* The retry hands back the same slot under a re-minted handle: the
     index survives, the generation is fresh. *)
  Alcotest.(check int) "recovered the freed slot"
    (Nbr_pool.Pool.Handle.index !freed_slot)
    (Nbr_pool.Pool.Handle.index !got);
  Alcotest.(check bool) "freed handle is stale" false (P.valid pool !freed_slot);
  let st = P.stats pool in
  Alcotest.(check int) "one pressure event" 1 st.P.s_pressure_events;
  Alcotest.(check bool) "retried at least once" true (st.P.s_alloc_retries >= 1)

let suite =
  [
    Alcotest.test_case "chaos plan shape + determinism" `Quick test_plan_shape;
    Alcotest.test_case "chaos plan same-tid stall+crash reachable" `Quick
      test_plan_same_tid_collision;
    Alcotest.test_case "chaos plan per-thread fault order" `Quick
      test_plan_fault_order;
    Alcotest.test_case "signal fates deterministic" `Quick
      test_fate_deterministic;
    Alcotest.test_case "dropped signal counted, invisible" `Quick
      test_drop_counted;
    Alcotest.test_case "delayed signal stays visible" `Quick test_delay_visible;
    Alcotest.test_case "exhaustion retry picks up freed slot" `Quick
      test_exhaustion_retry;
  ]
  @ List.map chaos_sim_case Nbr_workload.Registry.scheme_names
  @ List.map chaos_sim_delay_case Nbr_workload.Registry.scheme_names
  @ List.map chaos_outstanding_case
      (List.filter claims_bounded Nbr_workload.Registry.scheme_names)
  @ List.map chaos_native_case Nbr_workload.Registry.scheme_names
  (* New cases go last, so the existing ones keep their indices. *)
  @ [
      Alcotest.test_case "decider per plan kind" `Quick test_decider;
      Alcotest.test_case "pop_due pops due faults in order" `Quick
        test_pop_due;
    ]
