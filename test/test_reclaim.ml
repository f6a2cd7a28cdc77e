(* Background-reclamation tests (DESIGN.md §12): healthy offload
   (handoff → collect → async sweep visible in the trace), graceful
   degradation when the reclaimer stalls (workers detect the backlog and
   fall back to inline sweeps), the degrade → restore cycle around a
   reclaimer crash with restart, and the QCheck property that the P2
   garbage bound survives every reclaimer fate. *)

module Sim = Nbr_runtime.Sim_rt
module HS = Nbr_workload.Harness.Make (Sim)
module T = Nbr_workload.Trial
module FP = Nbr_fault.Fault_plan
module Tr = Nbr_obs.Trace
module R = Nbr_reclaim.Reclaimer

let claims_bounded = Nbr_workload.Experiments.claims_bounded
let structure_for = Nbr_workload.Experiments.list_for

let count_kind k evs =
  List.length (List.filter (fun e -> e.Tr.e_kind = k) evs)

let first_ns k evs =
  List.find_map
    (fun e -> if e.Tr.e_kind = k then Some e.Tr.e_ns else None)
    evs

(* One sim trial with the reclaimer role on, update-heavy so bags fill,
   returning (result, traced events).  [reclaimer_faults] rides in via
   an otherwise-empty plan; [thread_faults] land on tid 1. *)
let reclaim_trial ?(nthreads = 4) ?(duration = 800_000) ?(seed = 7)
    ?(policy = R.On_pressure) ?(reclaimer_faults = []) ?(thread_faults = [])
    scheme =
  let structure = structure_for scheme in
  Sim.set_config { Sim.default_config with cores = 8; granularity = 400; seed };
  let faults =
    if reclaimer_faults = [] && thread_faults = [] then None
    else begin
      let p = { (FP.none ~nthreads) with FP.reclaimer = reclaimer_faults } in
      p.FP.threads.(1) <- thread_faults;
      Some p
    end
  in
  let cfg =
    T.Cfg.make ~nthreads ~duration_ns:duration ~key_range:128 ~ins_pct:50 ~del_pct:50
      ~smr:(Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 32)
      ~seed ?faults ~reclaim:policy ()
  in
  Tr.enable ~capacity:65536 ~nthreads:(nthreads + 1) ();
  let r = HS.run ~scheme ~structure cfg in
  Tr.disable ();
  let evs = Tr.events () in
  Tr.clear ();
  (cfg, r, evs)

let check_valid scheme (_, r, _) =
  if not (T.valid r) then
    Alcotest.failf "%s: invalid (size %d expected %d, uaf %d)" scheme
      r.T.final_size r.T.expected_size r.T.uaf_reads;
  if r.T.total_ops = 0 then Alcotest.failf "%s: no operations completed" scheme;
  if claims_bounded scheme then begin
    let bound = r.T.garbage_bound in
    let mg = Nbr_core.Smr_stats.max_garbage r.T.smr_stats in
    if mg > bound then
      Alcotest.failf "%s: max_garbage %d > bound %d (P2 violated)" scheme mg
        bound
  end

(* ---------------- healthy reclaimer ---------------- *)

(* With a live reclaimer, threshold crossings export instead of sweeping
   inline: the trace must show the full pipeline — handoffs accepted,
   parcels collected, async sweeps freeing them — and no degrade.
   DEBRA is exempt from the handoff assertions: it frees by epoch, so a
   healthy trial keeps its bags below the sweep threshold and its
   offload trigger (rightly) never fires — the pinned-epoch test below
   covers its export path instead. *)
let healthy_case scheme =
  Alcotest.test_case (scheme ^ " healthy offload") `Quick (fun () ->
      let ((_, _, evs) as out) = reclaim_trial scheme in
      check_valid scheme out;
      (* Only a scheme that protects has a reason to delay a free, so
         only those buffer retires and can hand a bag off. *)
      let protects =
        (Nbr_workload.Registry.find_exn scheme).r_desc.protection
        <> Unprotected
      in
      if protects && scheme <> "debra" then begin
        if count_kind Tr.Bag_handoff evs = 0 then
          Alcotest.failf "%s: no bag handoffs traced" scheme;
        if count_kind Tr.Handoff_collect evs = 0 then
          Alcotest.failf "%s: no handoff collections traced" scheme;
        if count_kind Tr.Async_sweep evs = 0 then
          Alcotest.failf "%s: no async sweeps traced" scheme
      end
      else begin
        (* Foil schemes buffer nothing: externalization must stay inert. *)
        Alcotest.(check int)
          (scheme ^ " hands nothing off")
          0
          (count_kind Tr.Bag_handoff evs)
      end;
      Alcotest.(check int)
        (scheme ^ " never degrades when healthy")
        0 (count_kind Tr.Degrade evs))

(* DEBRA's export path needs a pinned epoch to matter: a worker stalled
   inside an operation freezes the epoch, the survivors' bags pile past
   the sweep threshold, and the backlog sheds to the reclaimer (whose
   begin_op cadence also helps the epoch along once the stall ends). *)
let test_debra_pinned_epoch_offloads () =
  let ((_, _, evs) as out) =
    reclaim_trial "debra"
      ~thread_faults:[ FP.Stall { at_op = 10; ns = 300_000 } ]
  in
  check_valid "debra" out;
  if count_kind Tr.Bag_handoff evs = 0 then
    Alcotest.fail "debra: pinned epoch never forced a bag handoff";
  if count_kind Tr.Handoff_collect evs = 0 then
    Alcotest.fail "debra: exported parcels never collected"

(* ---------------- stalled reclaimer: inline fallback ---------------- *)

(* A reclaimer that sleeps through the whole trial stops draining; the
   handoff backlog crosses max_backlog and the next threshold-crossing
   worker flips the degrade switch (reason 0 = backlog-detected) — after
   which everything is inline reclamation and the trial still finishes
   validly.  This is the graceful-degradation contract. *)
let test_stall_degrades () =
  let ((_, _, evs) as out) =
    reclaim_trial "nbr+"
      ~reclaimer_faults:[ FP.R_stall { at_iter = 1; ns = 1_000_000 } ]
  in
  check_valid "nbr+" out;
  if count_kind Tr.Bag_handoff evs = 0 then
    Alcotest.fail "no handoffs before the stall took effect";
  let degrades =
    List.filter (fun e -> e.Tr.e_kind = Tr.Degrade) evs
  in
  if degrades = [] then
    Alcotest.fail "stalled reclaimer never triggered a degrade";
  List.iter
    (fun e ->
      Alcotest.(check int) "degrade reason is backlog-detected (worker)" 0
        e.Tr.e_a)
    degrades;
  (* Inline fallback visibly engaged: reclamation continued (the trial
     is valid and ops completed), with handoffs refused after the
     degrade — no Bag_handoff may follow the first Degrade. *)
  let d0 = Option.get (first_ns Tr.Degrade evs) in
  List.iter
    (fun e ->
      if e.Tr.e_kind = Tr.Bag_handoff && e.Tr.e_ns > d0 then
        Alcotest.failf "handoff accepted at %dns after degrade at %dns"
          e.Tr.e_ns d0)
    evs

(* ---------------- crash + restart: degrade → restore ---------------- *)

let test_crash_restart_restores () =
  let ((_, _, evs) as out) =
    reclaim_trial "nbr+" ~duration:1_500_000
      ~reclaimer_faults:
        [ FP.R_crash { at_iter = 20; restart_ns = 100_000 } ]
  in
  check_valid "nbr+" out;
  (match (first_ns Tr.Degrade evs, first_ns Tr.Restore evs) with
  | None, _ -> Alcotest.fail "crash never traced a degrade"
  | _, None -> Alcotest.fail "restarted reclaimer never traced a restore"
  | Some d, Some r ->
      if r <= d then
        Alcotest.failf "restore at %dns not after degrade at %dns" r d);
  let crash_degrade =
    List.exists (fun e -> e.Tr.e_kind = Tr.Degrade && e.Tr.e_a = 1) evs
  in
  Alcotest.(check bool) "crash announces itself (reason 1)" true crash_degrade

(* A reclaimer that dies for good leaves the trial in permanent inline
   mode: no restore, but the trial still completes validly and within
   the garbage bound. *)
let test_crash_forever_falls_back () =
  let ((_, _, evs) as out) =
    reclaim_trial "nbr"
      ~reclaimer_faults:[ FP.R_crash { at_iter = 20; restart_ns = -1 } ]
  in
  check_valid "nbr" out;
  if first_ns Tr.Degrade evs = None then
    Alcotest.fail "permanent crash never traced a degrade";
  Alcotest.(check int) "no restore after a permanent crash" 0
    (count_kind Tr.Restore evs)

(* ---------------- watermark plumbing ---------------- *)

(* The runner installs pool watermarks (high mark = 3/4 capacity) wired
   to the reclaimer kick.  An allocation hog squatting on 400 of 600
   slots pushes occupancy deterministically over the mark; the trial
   must trace the crossing and still finish without exhaustion. *)
let test_watermarks_trip () =
  let nthreads = 4 in
  Sim.set_config
    { Sim.default_config with cores = 8; granularity = 400; seed = 11 };
  let plan = FP.none ~nthreads in
  plan.FP.threads.(1) <- [ FP.Hog { at_op = 20; slots = 400; ns = 150_000 } ];
  let cfg =
    T.Cfg.make ~nthreads ~duration_ns:800_000 ~key_range:64 ~ins_pct:50 ~del_pct:50
      ~smr:(Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 16)
      ~pool_capacity:600 ~seed:11 ~faults:plan ~reclaim:R.On_pressure ()
  in
  Tr.enable ~capacity:65536 ~nthreads:(nthreads + 1) ();
  let r = HS.run ~scheme:"nbr+" ~structure:"harris-list" cfg in
  Tr.disable ();
  let evs = Tr.events () in
  Tr.clear ();
  if not (T.valid r) then Alcotest.fail "pressure trial invalid";
  if count_kind Tr.Watermark_high evs = 0 then
    Alcotest.fail "high watermark never tripped under hog pressure"

(* ---------------- policies ---------------- *)

let policy_case policy name =
  Alcotest.test_case ("policy " ^ name) `Quick (fun () ->
      let ((_, _, evs) as out) = reclaim_trial "nbr+" ~policy in
      check_valid "nbr+" out;
      if count_kind Tr.Async_sweep evs = 0 then
        Alcotest.failf "policy %s: reclaimer never swept" name)

(* ---------------- QCheck: P2 under every reclaimer fate ---------------- *)

(* The paper's bounded-garbage property must be indifferent to the
   reclaimer's fate: healthy, stalled, crashed-and-restarted, or dead,
   every bounded scheme keeps max_garbage within the trial bound and the
   trial valid. *)
let prop_bound_under_reclaimer_fates =
  let gen =
    QCheck.Gen.(
      let* seed = 1 -- 10_000 in
      let* scheme =
        oneofl
          (List.filter claims_bounded Nbr_workload.Registry.scheme_names)
      in
      let* fate = 0 -- 3 in
      return (seed, scheme, fate))
  in
  let print (seed, scheme, fate) =
    Printf.sprintf "seed=%d scheme=%s fate=%d" seed scheme fate
  in
  QCheck.Test.make ~count:12 ~name:"P2 bound holds under reclaimer fates"
    (QCheck.make ~print gen)
    (fun (seed, scheme, fate) ->
      let reclaimer_faults =
        match fate with
        | 0 -> []
        | 1 -> [ FP.R_stall { at_iter = 5; ns = 400_000 } ]
        | 2 -> [ FP.R_crash { at_iter = 15; restart_ns = 80_000 } ]
        | _ -> [ FP.R_crash { at_iter = 15; restart_ns = -1 } ]
      in
      let _, r, _ =
        reclaim_trial scheme ~seed ~duration:500_000 ~reclaimer_faults
      in
      T.valid r
      && Nbr_core.Smr_stats.max_garbage r.T.smr_stats <= r.T.garbage_bound)

(* ---------------- exact offload accounting ---------------- *)

(* Every record handed to the reclaimer is collected, lands in the
   collector's limbo state and is freed exactly once.  Worker tid 1
   retires [retired] records with a small sweep threshold, so each
   threshold crossing exports; collector tid 0 collects them all, the
   worker departs and the collector frees everything. *)
module P = Nbr_pool.Pool.Make (Sim)

module OffloadExact
    (S : Nbr_core.Smr_intf.S with type pool = P.t) =
struct
  let retired = 40

  let test () =
    Sim.set_config
      { Sim.default_config with cores = 4; granularity = 1; seed = 13 };
    let pool =
      P.create ~capacity:4096 ~data_fields:1 ~ptr_fields:1 ~nthreads:2 ()
    in
    let smr =
      S.create pool ~nthreads:2
        (Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 8)
    in
    let o = Nbr_core.Smr_intf.Offload.create ~reclaimer:0 () in
    S.set_offload smr (Some o);
    let c0 = S.register smr ~tid:0 and c1 = S.register smr ~tid:1 in
    let retiring = ref true in
    Sim.run ~nthreads:2 (fun tid ->
        if tid = 1 then begin
          S.op c1 (fun op ->
              S.phase op ~read:{ S.read = (fun _ -> ((), [||])) }
                ~write:{ S.write = (fun wr () ->
                  for _ = 1 to retired do
                    S.retire wr (S.alloc wr)
                  done) });
          retiring := false
        end
        else begin
          while !retiring do
            Sim.stall_ns 200
          done;
          let before = S.limbo_size c0 in
          let got = S.collect_handoffs c0 in
          let handed = Atomic.get o.Nbr_core.Smr_intf.Offload.handed in
          let collected = Atomic.get o.Nbr_core.Smr_intf.Offload.collected in
          if got = 0 then Alcotest.fail "nothing was handed off";
          Alcotest.(check int) "handed = collected" handed collected;
          Alcotest.(check int) "collected = returned by collect_handoffs"
            collected got;
          Alcotest.(check int) "collected into the collector's limbo"
            (before + got) (S.limbo_size c0)
        end);
    S.set_offload smr None;
    Sim.run ~nthreads:2 (fun tid ->
        if tid = 1 then S.deregister c1
        else begin
          Sim.stall_ns 10_000;
          S.adopt_orphans c0;
          for _ = 1 to 3 do
            S.op c0 ignore;
            S.on_pressure c0
          done
        end);
    let ps = P.stats pool in
    Alcotest.(check int) "every record freed exactly once" retired ps.P.s_frees;
    Alcotest.(check int) "pool drained" 0 ps.P.s_in_use;
    Alcotest.(check int) "no UAF" 0 ps.P.s_uaf_reads;
    Alcotest.(check int) "scheme stats agree" retired
      (Nbr_core.Smr_stats.freed (S.stats smr))

  let case name =
    Alcotest.test_case (name ^ " offload accounting is exact") `Quick test
end

module O_nbr = OffloadExact (Nbr_core.Nbr.Make (Sim))
module O_nbrp = OffloadExact (Nbr_core.Nbr_plus.Make (Sim))
module O_debra = OffloadExact (Nbr_core.Debra.Make (Sim))
module O_qsbr = OffloadExact (Nbr_core.Qsbr.Make (Sim))
module O_rcu = OffloadExact (Nbr_core.Rcu.Make (Sim))
module O_ibr = OffloadExact (Nbr_core.Ibr.Make (Sim))
module O_hp = OffloadExact (Nbr_core.Hp.Make (Sim))
module O_he = OffloadExact (Nbr_core.Hazard_eras.Make (Sim))

let suite =
  List.map healthy_case Nbr_workload.Registry.scheme_names
  @ [
      Alcotest.test_case "stalled reclaimer degrades to inline" `Quick
        test_stall_degrades;
      Alcotest.test_case "crash+restart traces degrade then restore" `Quick
        test_crash_restart_restores;
      Alcotest.test_case "permanent crash stays inline" `Quick
        test_crash_forever_falls_back;
      Alcotest.test_case "debra offloads under a pinned epoch" `Quick
        test_debra_pinned_epoch_offloads;
      Alcotest.test_case "pool watermarks trip and kick" `Quick
        test_watermarks_trip;
      policy_case (R.Periodic { interval_ns = 20_000 }) "periodic";
      policy_case (R.After_n_retires { n = 64 }) "after-n-retires";
      QCheck_alcotest.to_alcotest prop_bound_under_reclaimer_fates;
      O_nbr.case "nbr";
      O_nbrp.case "nbr+";
      O_debra.case "debra";
      O_qsbr.case "qsbr";
      O_rcu.case "rcu";
      O_ibr.case "ibr";
      O_hp.case "hp";
      O_he.case "he";
    ]
