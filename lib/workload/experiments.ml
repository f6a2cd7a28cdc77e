(** Experiment definitions: one entry per table/figure of the paper.

    Every experiment runs on the simulated multicore (see DESIGN.md §1 for
    the substitution argument and §5 for the scale mapping).  The paper's
    4-socket Xeon (192 hardware threads) is modelled as a 16-core machine;
    thread sweeps run past the core count so the oversubscription regime
    (paper P4) is exercised.  Structure sizes are scaled with the machine
    (documented per figure); every trial validates set semantics and
    use-after-free freedom, so each figure doubles as a system test.

    Throughput is reported in simulated Mops/s: absolute values are not
    comparable to the paper's hardware, the {e shape} — ordering,
    crossovers, bounded-vs-unbounded memory — is what reproduces. *)

module Sim = Nbr_runtime.Sim_rt
module H = Harness.Make (Sim)

type profile = { duration_ns : int; threads : int list; seeds : int list }

let std_profile =
  {
    duration_ns = 1_600_000;
    threads = [ 4; 8; 16; 24; 32; 48; 64 ];
    seeds = [ 1 ];
  }

let quick_profile =
  { duration_ns = 500_000; threads = [ 4; 16; 32 ]; seeds = [ 1 ] }

let sim_cores = 16

let base_sim_config =
  {
    Sim.default_config with
    cores = sim_cores;
    granularity = 400 (* several accesses per scheduler yield; delivery
                         is still checked at every access *);
    quantum = 300_000
    (* ~0.14 ms at 2.1 GHz.  When oversubscribed, a preempted thread parks
       for (threads/cores - 1) slices — several park/run cycles per trial,
       so the epoch delays this causes for the EBR family (the paper's
       "delayed thread vulnerability") and the resulting reclamation
       bursts land inside the measurement window. *);
  }

(* The scheme lineups of the paper's figures. *)
let e1_schemes = [ "nbr+"; "debra"; "qsbr"; "rcu"; "ibr"; "hp"; "none" ]
let e3_schemes = [ "nbr+"; "nbr"; "debra"; "none" ]

(* The three workload profiles of §7. *)
let workloads = [ ("50i-50d", 50, 50); ("25i-25d", 25, 25); ("5i-5d", 5, 5) ]

(* The list the fault experiments run a scheme on: the Harris list,
   unless the scheme refuses its raw traversal (P5). *)
let list_for scheme =
  if Registry.supported ~scheme ~structure:"harris-list" then "harris-list"
  else "lazy-list"

let validated = ref 0
let failures = ref 0

(** Record an out-of-band failure (e.g. a driver catching pool
    exhaustion) so it still fails the run via {!summary}. *)
let note_failure msg =
  incr failures;
  Format.printf "VALIDATION FAILURE: %s@." msg

(** Count a trial towards the validation gate, printing it if invalid. *)
let validate r =
  incr validated;
  if not (Trial.valid r) then begin
    incr failures;
    Format.printf "VALIDATION FAILURE: %a@." Trial.pp_row r
  end

(* Which schemes claim P2 (bounded garbage). *)
let claims_bounded scheme = (Registry.find_exn scheme).r_desc.bounded_garbage

(* A trial's P2 verdict.  A bounded scheme past its bound is a real
   failure of the reproduction, counted unless the caller already did;
   [grew] reports an unbounded scheme against the bound too. *)
let p2_verdict ?(count = true) ?(grew = false) scheme ~mg ~bound =
  if claims_bounded scheme then
    if mg <= bound then "bounded (P2 holds)"
    else begin
      if count then incr failures;
      "BOUND VIOLATION"
    end
  else if not grew then "no P2 claim"
  else if mg > bound then "grew past bound (expected: no P2)"
  else "under bound (no P2 claim)"

let smr_at n = Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default n
let cell cells c = match List.assoc_opt c cells with Some v -> v | None -> "-"

let run_point ~scheme ~structure ~profile ~key_range ~smr_threshold ~nthreads
    ~ins ~del ?stall () =
  let tput = ref 0.0 and peak = ref 0 and sigs = ref 0 in
  List.iter
    (fun seed ->
      Sim.set_config { base_sim_config with seed };
      let cfg =
        Trial.Cfg.make ~nthreads ~duration_ns:profile.duration_ns ~key_range
          ~ins_pct:ins ~del_pct:del
          ~smr:(smr_at smr_threshold) ~seed ?stall ()
      in
      let r = H.run ~scheme ~structure cfg in
      validate r;
      tput := !tput +. r.throughput_mops;
      peak := max !peak r.peak_unreclaimed;
      sigs := !sigs + r.signals)
    profile.seeds;
  let n = List.length profile.seeds in
  (!tput /. float_of_int n, !peak, !sigs / n)

(* ------------------------------------------------------------------ *)
(* E1: throughput sweeps (figures 3a, 3b, 5a, 5b, 6a, 6b).             *)

let throughput_sweep ?(mixes = workloads) ~title ~structure ~schemes
    ~key_range ~smr_threshold quick =
  let profile = if quick then quick_profile else std_profile in
  List.iter
    (fun (wname, ins, del) ->
      let rows =
        List.map
          (fun nthreads ->
            let cells =
              List.map
                (fun scheme ->
                  if not (Registry.supported ~scheme ~structure) then
                    (scheme, "n/a")
                  else
                    let t, _, _ =
                      run_point ~scheme ~structure ~profile ~key_range
                        ~smr_threshold ~nthreads ~ins ~del ()
                    in
                    (scheme, Table.f3 t))
                schemes
            in
            (string_of_int nthreads, cells))
          profile.threads
      in
      Table.print_matrix
        ~title:
          (Printf.sprintf "%s | %s | %s | size=%d (Mops/s, simulated)" title
             structure wname key_range)
        ~col_header:"threads" ~cols:schemes ~rows ~cell)
    mixes

let fig3a quick =
  throughput_sweep
    ~title:"fig3a: DGT tree throughput (paper: 2M keys, 192 hw threads)"
    ~structure:"dgt-tree" ~schemes:e1_schemes ~key_range:65536
    ~smr_threshold:512 quick

let fig3b quick =
  throughput_sweep
    ~title:"fig3b: lazy list throughput (paper: 20K keys)"
    ~structure:"lazy-list" ~schemes:e1_schemes
    ~key_range:(if quick then 512 else 2048)
    ~smr_threshold:256 quick

let fig5a quick =
  throughput_sweep
    ~title:"fig5a: DGT tree, large size (paper: 20M keys)"
    ~structure:"dgt-tree" ~schemes:e1_schemes ~key_range:262144
    ~smr_threshold:512 quick

let fig5b quick =
  throughput_sweep
    ~title:"fig5b: DGT tree, small size / high contention (paper: 20K keys)"
    ~structure:"dgt-tree" ~schemes:e1_schemes ~key_range:2048
    ~smr_threshold:256 quick

let fig6a quick =
  throughput_sweep
    ~title:"fig6a: lazy list, moderate size (paper: 20K keys)"
    ~structure:"lazy-list" ~schemes:e1_schemes
    ~key_range:(if quick then 512 else 2048)
    ~smr_threshold:256 quick

let fig6b quick =
  throughput_sweep
    ~title:"fig6b: lazy list, tiny size / extreme contention (paper: 200 keys)"
    ~structure:"lazy-list" ~schemes:e1_schemes ~key_range:200 ~smr_threshold:64
    quick

(* ------------------------------------------------------------------ *)
(* E3: k-NBR on multi-phase structures (figures 4a, 4b).               *)

let fig4a quick =
  let mixes = [ ("50i-50d", 50, 50) ] in
  throughput_sweep ~mixes
    ~title:
      "fig4a: (a,b)-tree with k-NBR, low contention (paper: 2M) and high \
       contention (paper: 200)"
    ~structure:"ab-tree" ~schemes:e3_schemes ~key_range:65536
    ~smr_threshold:512 quick;
  throughput_sweep ~mixes
    ~title:"fig4a (high contention): (a,b)-tree, 200 keys"
    ~structure:"ab-tree" ~schemes:e3_schemes ~key_range:200 ~smr_threshold:64
    quick

let fig4b quick =
  let mixes = [ ("50i-50d", 50, 50) ] in
  throughput_sweep ~mixes
    ~title:
      "fig4b: Harris list with k-NBR, low contention (paper: 20K) and high \
       contention (paper: 200)"
    ~structure:"harris-list" ~schemes:e3_schemes
    ~key_range:(if quick then 512 else 2048)
    ~smr_threshold:256 quick;
  throughput_sweep ~mixes
    ~title:"fig4b (high contention): Harris list, 200 keys"
    ~structure:"harris-list" ~schemes:e3_schemes ~key_range:200
    ~smr_threshold:64 quick

(* ------------------------------------------------------------------ *)
(* E2: peak unreclaimed memory with and without a stalled thread       *)
(* (figures 4c, 4d).                                                   *)

(* The E2 experiments run four times a figure's trial. *)
let e2_duration quick =
  4 * (if quick then quick_profile else std_profile).duration_ns

let memory_experiment ~title ~stalled quick =
  let p = if quick then quick_profile else std_profile in
  let duration = e2_duration quick in
  let schemes = [ "nbr+"; "nbr"; "debra"; "qsbr"; "rcu"; "ibr"; "hp" ] in
  let rows =
    List.map
      (fun nthreads ->
        let cells =
          List.map
            (fun scheme ->
              Sim.set_config { base_sim_config with seed = 7 };
              let stall =
                if stalled then
                  Some { Trial.stall_tid = 1; stall_ns = duration }
                else None
              in
              let cfg =
                Trial.Cfg.make ~nthreads ~duration_ns:duration ~key_range:65536
                  ~ins_pct:50 ~del_pct:50 ~smr:(smr_at 512) ~seed:7 ?stall ()
              in
              let r = H.run ~scheme ~structure:"dgt-tree" cfg in
              validate r;
              (scheme, string_of_int r.peak_unreclaimed))
            schemes
        in
        (string_of_int nthreads, cells))
      p.threads
  in
  Table.print_matrix ~title ~col_header:"threads" ~cols:schemes ~rows ~cell

let fig4c quick =
  memory_experiment
    ~title:
      "fig4c: peak unreclaimed records, DGT tree 50i-50d, one thread STALLED \
       inside an operation (paper fig 4c: DEBRA/RCU grow, bounded schemes \
       stay flat)"
    ~stalled:true quick

let fig4d quick =
  memory_experiment
    ~title:
      "fig4d: peak unreclaimed records, DGT tree 50i-50d, no stalled thread"
    ~stalled:false quick

(* ------------------------------------------------------------------ *)
(* E2-chaos: bounded-garbage invariant under a seeded fault schedule    *)
(* (stalls + a crash + delayed signals — the adversity §7 argues about).*)

(* The chaos and churn lineup, and the seeded plan they share. *)
let e2_schemes =
  [ "nbr+"; "nbr"; "ibr"; "hp"; "he"; "debra"; "qsbr"; "rcu"; "none" ]

let chaos_plan ~seed ~nthreads ~duration =
  Nbr_fault.Fault_plan.chaos ~seed ~nthreads ~stalls:2 ~crashes:1
    ~stall_ns:(duration / 2) ~ops_window:200
    ~signal:
      { Nbr_fault.Fault_plan.delay_pct = 25; delay_ns = 20_000; drop_pct = 0 }
    ()

let chaos quick =
  let nthreads = 8 in
  let duration = e2_duration quick in
  (* Small key range: high churn per key keeps retire rates up, and keeps
     the interval-pinning slack in a trial's [garbage_bound] small enough that
     an epoch scheme tracking the crashed thread's *duration* visibly
     crosses it. *)
  let key_range = 128 in
  let seeds = if quick then [ 11 ] else [ 11; 12; 13 ] in
  print_newline ();
  print_endline
    "## E2-chaos (§7): bounded-garbage invariant under a seeded fault plan";
  print_endline
    "   faults: 2 threads stalled at random ops, 1 thread crashed mid-op";
  print_endline
    "   (no end_op: announcements/reservations orphaned), 25% of signals";
  print_endline
    "   delivered 20us late.  Schemes claiming P2 must keep max per-thread";
  print_endline
    "   garbage under the bound; epoch schemes are expected to blow past it.";
  List.iter
    (fun seed ->
      let plan = chaos_plan ~seed ~nthreads ~duration in
      Format.printf "@.seed %d: %a@." seed Nbr_fault.Fault_plan.pp plan;
      Printf.printf "%-8s %-12s %12s %8s %10s %9s  %s\n" "scheme" "structure"
        "max_garbage" "bound" "peak_garb" "pressure" "verdict";
      List.iter
        (fun scheme ->
          let structure = list_for scheme in
          Sim.set_config { base_sim_config with seed };
          let cfg =
            Trial.Cfg.make ~nthreads ~duration_ns:duration ~key_range ~ins_pct:50
              ~del_pct:50 ~smr:(smr_at 64) ~seed ~faults:plan ()
          in
          let r = H.run ~scheme ~structure cfg in
          validate r;
          let bound = r.Trial.garbage_bound in
          let mg = Nbr_core.Smr_stats.max_garbage r.smr_stats in
          let verdict = p2_verdict ~grew:true scheme ~mg ~bound in
          Printf.printf "%-8s %-12s %12d %8d %10d %9d  %s\n%!" scheme structure
            mg bound r.peak_garbage r.pressure_events verdict)
        e2_schemes)
    seeds

(* ------------------------------------------------------------------ *)
(* E2-churn: dynamic membership — workers leave and rejoin mid-trial.   *)

(* One churn trial: run, validate, count lifecycle trace events, and
   check the garbage bound for P2 schemes (orphans count against the
   adopter, so the bound covers them).  Returns (max_garbage, bound,
   orphans adopted, watchdog deaths, worst escalation round). *)
let churn_trial ~scheme ~structure ~nthreads ~duration ~key_range ~seed
    ?faults ~churn_ops () =
  Sim.set_config { base_sim_config with seed };
  Nbr_obs.Trace.enable ~nthreads ();
  let cfg =
    Trial.Cfg.make ~nthreads ~duration_ns:duration ~key_range ~ins_pct:50
      ~del_pct:50 ~smr:(smr_at 64) ~seed ?faults ~churn_ops ()
  in
  let r = H.run ~scheme ~structure cfg in
  let adopted = ref 0 and deaths = ref 0 and worst_round = ref 0 in
  List.iter
    (fun e ->
      match e.Nbr_obs.Trace.e_kind with
      | Nbr_obs.Trace.Orphan_adopted -> adopted := !adopted + e.Nbr_obs.Trace.e_b
      | Nbr_obs.Trace.Peer_declared_dead -> incr deaths
      | Nbr_obs.Trace.Heartbeat_timeout ->
          worst_round := max !worst_round e.Nbr_obs.Trace.e_b
      | _ -> ())
    (Nbr_obs.Trace.events ());
  Nbr_obs.Trace.clear ();
  validate r;
  let bound = r.Trial.garbage_bound in
  let mg = Nbr_core.Smr_stats.max_garbage r.smr_stats in
  if claims_bounded scheme && mg > bound then begin
    incr failures;
    Format.printf "VALIDATION FAILURE: %s/%s churn max_garbage %d > bound %d@."
      scheme structure mg bound
  end;
  (mg, bound, !adopted, !deaths, !worst_round)

let churn quick =
  let nthreads = 8 in
  let duration = e2_duration quick in
  let key_range = 128 in
  let seeds = if quick then [ 21 ] else [ 21; 22 ] in
  print_newline ();
  print_endline
    "## E2-churn: dynamic membership (join/leave) across all schemes";
  print_endline
    "   Every worker but thread 0 deregisters and immediately re-registers";
  print_endline
    "   each 64 completed ops, orphaning its buffered retires for survivors";
  print_endline
    "   to adopt.  Set semantics must hold, P2 schemes must keep max garbage";
  print_endline
    "   under the bound counting orphans, and — with no faults injected —";
  print_endline
    "   the watchdog must never fire (a leaving thread is not a dead one).";
  List.iter
    (fun seed ->
      Printf.printf "\nseed %d (churn only):\n" seed;
      Printf.printf "%-8s %-12s %12s %8s %8s %7s  %s\n" "scheme" "structure"
        "max_garbage" "bound" "adopted" "deaths" "verdict";
      List.iter
        (fun scheme ->
          let structure = list_for scheme in
          let mg, bound, adopted, deaths, _ =
            churn_trial ~scheme ~structure ~nthreads ~duration ~key_range
              ~seed ~churn_ops:64 ()
          in
          (* No fault plan ⇒ the watchdog is disarmed; any death here means
             lifecycle state leaked across a clean deregister. *)
          if deaths > 0 then begin
            incr failures;
            Format.printf
              "VALIDATION FAILURE: %s spurious watchdog death under pure churn@."
              scheme
          end;
          Printf.printf "%-8s %-12s %12d %8d %8d %7d  %s\n%!" scheme structure
            mg bound adopted deaths
            (p2_verdict ~count:false scheme ~mg ~bound))
        e2_schemes)
    seeds;
  (* Churn composed with the chaos plan: leavers, stallers and a crasher
     at once.  The watchdog may now legitimately declare stalled threads
     dead; what must still hold is the garbage bound (orphans included)
     and that no writer wedges on the handshake — every escalation stays
     within the configured round budget. *)
  let wd_rounds = Nbr_core.Smr_config.default.Nbr_core.Smr_config.wd_rounds in
  List.iter
    (fun seed ->
      let plan = chaos_plan ~seed ~nthreads ~duration in
      Format.printf "@.seed %d (churn + chaos): %a@." seed
        Nbr_fault.Fault_plan.pp plan;
      Printf.printf "%-8s %-12s %12s %8s %8s %7s %6s  %s\n" "scheme"
        "structure" "max_garbage" "bound" "adopted" "deaths" "rounds"
        "verdict";
      List.iter
        (fun scheme ->
          let structure = list_for scheme in
          let mg, bound, adopted, deaths, worst_round =
            churn_trial ~scheme ~structure ~nthreads ~duration ~key_range
              ~seed ~faults:plan ~churn_ops:64 ()
          in
          if worst_round > wd_rounds then begin
            incr failures;
            Format.printf
              "VALIDATION FAILURE: %s handshake escalated to round %d (budget %d)@."
              scheme worst_round wd_rounds
          end;
          Printf.printf "%-8s %-12s %12d %8d %8d %7d %6d  %s\n%!" scheme
            structure mg bound adopted deaths worst_round
            (p2_verdict ~count:false ~grew:true scheme ~mg ~bound))
        e2_schemes)
    (if quick then [ 31 ] else [ 31; 32 ])

(* ------------------------------------------------------------------ *)
(* A1: signal-count ablation — NBR's O(n²) vs NBR+'s O(n) (paper §5).  *)

let ablation_signals quick =
  let p = if quick then quick_profile else std_profile in
  let rows =
    List.map
      (fun nthreads ->
        let cells =
          List.concat_map
            (fun scheme ->
              let t, _, sigs =
                run_point ~scheme ~structure:"dgt-tree" ~profile:p
                  ~key_range:16384 ~smr_threshold:128 ~nthreads ~ins:50
                  ~del:50 ()
              in
              [
                (scheme ^ ":sig", string_of_int sigs);
                (scheme ^ ":Mops", Table.f3 t);
              ])
            [ "nbr"; "nbr+" ]
        in
        (string_of_int nthreads, cells))
      p.threads
  in
  Table.print_matrix
    ~title:
      "A1 (§5): signals sent per trial and throughput, NBR vs NBR+ — the \
       motivation for NBR+ (same reclamation, far fewer signals)"
    ~col_header:"threads"
    ~cols:[ "nbr:sig"; "nbr:Mops"; "nbr+:sig"; "nbr+:Mops" ]
    ~rows ~cell

(* ------------------------------------------------------------------ *)
(* EXT: structures beyond the paper's evaluation set.                  *)

let ext_structures quick =
  let mixes = [ ("25i-25d", 25, 25) ] in
  throughput_sweep ~mixes
    ~title:
      "EXT: hash set (Harris-list buckets) — short traversals, high \
       allocation churn"
    (* No ibr: hash-set buckets are Harris lists, whose mark-tagged
       traversal era protection cannot cover (see Registry.refusal). *)
    ~structure:"hash-set" ~schemes:[ "nbr+"; "nbr"; "debra"; "qsbr"; "none" ]
    ~key_range:16384 ~smr_threshold:256 quick;
  throughput_sweep ~mixes
    ~title:
      "EXT: optimistic skiplist — up to 17 reservations per update (NBR's \
       R << bag-size assumption stress)"
    ~structure:"skip-list"
    ~schemes:[ "nbr+"; "nbr"; "debra"; "qsbr"; "rcu"; "ibr"; "none" ]
    ~key_range:16384 ~smr_threshold:256 quick;
  throughput_sweep ~mixes
    ~title:"EXT: hazard eras (HE) vs HP vs interval (IBR) on the DGT tree"
    ~structure:"dgt-tree" ~schemes:[ "nbr+"; "hp"; "he"; "ibr" ]
    ~key_range:65536 ~smr_threshold:512 quick

(* ------------------------------------------------------------------ *)
(* E-reclaim: background reclamation (DESIGN.md §12).  Two parts:      *)
(* tail latency inline vs reclaimer on an update-heavy workload, then  *)
(* the pressure-chaos adversary (hogs + worker stalls/crash + a        *)
(* reclaimer stall and crash-with-restart) across every scheme — no    *)
(* exhaustion, P2 bounds indifferent to the reclaimer's fate, and the  *)
(* degrade → restore cycle visible in the trace.                       *)

let reclaim quick =
  let nthreads = 8 in
  let key_range = 128 in
  print_newline ();
  print_endline "## E-reclaim (DESIGN.md §12): background reclaimer role";
  (* -- Part 1: update-heavy tail latency, inline vs healthy reclaimer.
     Threshold sweeps leave the hot path, so the p99/p99.9 of update
     operations (which pay for inline sweeps) should drop. *)
  let lat_duration = if quick then 1_000_000 else 3_200_000 in
  let lat_schemes = if quick then [ "nbr+" ] else [ "nbr+"; "ibr"; "hp" ] in
  print_endline
    "   Part 1 — update-op tail latency (sim-virtual ns), inline vs reclaimer:";
  Printf.printf "   %-8s %-9s %10s %12s %10s %12s\n" "scheme" "mode" "ins p99"
    "ins p99.9" "del p99" "del p99.9";
  List.iter
    (fun scheme ->
      List.iter
        (fun (mode, reclaim) ->
          Sim.set_config { base_sim_config with seed = 31 };
          let cfg =
            Trial.Cfg.make ~nthreads ~duration_ns:lat_duration ~key_range
              ~ins_pct:50 ~del_pct:50 ~smr:(smr_at 64) ~seed:31 ?reclaim
              ~record_latency:true ()
          in
          let r = H.run ~scheme ~structure:"harris-list" cfg in
          validate r;
          match r.latency with
          | None -> note_failure (scheme ^ ": latency recording lost")
          | Some l ->
              Printf.printf "   %-8s %-9s %10.0f %12.0f %10.0f %12.0f\n%!"
                scheme mode l.Trial.lat_insert.Nbr_obs.Histogram.s_p99
                l.Trial.lat_insert.Nbr_obs.Histogram.s_p999
                l.Trial.lat_delete.Nbr_obs.Histogram.s_p99
                l.Trial.lat_delete.Nbr_obs.Histogram.s_p999)
        [ ("inline", None); ("reclaim", Some Nbr_reclaim.Reclaimer.On_pressure) ])
    lat_schemes;
  (* -- Part 2: pressure-chaos.  The full adversary; every scheme must
     finish without exhaustion, P2 claimants must hold their bound, and
     the reclaimer's crash-with-restart must trace degrade → restore. *)
  let duration = if quick then 1_600_000 else 3_200_000 in
  let seeds = if quick then [ 41 ] else [ 41; 42 ] in
  print_endline
    "   Part 2 — pressure-chaos: 2 allocation hogs, 1 worker stall, 1 worker";
  print_endline
    "   crash, reclaimer stalled then crashed-with-restart.  Expect: zero";
  print_endline
    "   exhaustion, P2 bounds hold, trace shows degrade -> restore.";
  List.iter
    (fun seed ->
      let plan =
        Nbr_fault.Fault_plan.pressure_chaos ~seed ~nthreads ~stalls:1
          ~crashes:1 ~hogs:2 ~hog_slots:1024 ~stall_ns:(duration / 8)
          ~ops_window:200 ~reclaimer_stall_ns:(duration / 8)
          ~restart_ns:(duration / 4) ()
      in
      Format.printf "@.seed %d: %a@." seed Nbr_fault.Fault_plan.pp plan;
      Printf.printf "%-12s %-12s %12s %8s %9s %8s %8s  %s\n" "scheme"
        "structure" "max_garbage" "bound" "degrades" "restores" "pressure"
        "verdict";
      List.iter
        (fun scheme ->
          let structure = list_for scheme in
          Sim.set_config { base_sim_config with seed };
          let pool_capacity =
            (* Bounded-garbage claimants get a pool tight enough that
               the hogs are felt.  Epoch schemes keep the roomy default:
               a crashed worker pins their epoch and their garbage is
               unbounded by design — the paper's point, not a robustness
               failure to induce. *)
            if claims_bounded scheme then Some 4096 else None
          in
          let cfg =
            Trial.Cfg.make ~nthreads ~duration_ns:duration ~key_range ~ins_pct:50
              ~del_pct:50 ~smr:(smr_at 64) ~seed ~faults:plan ?pool_capacity
              ~reclaim:Nbr_reclaim.Reclaimer.On_pressure ()
          in
          Nbr_obs.Trace.enable ~capacity:131072 ~nthreads:(nthreads + 1) ();
          (match H.run ~scheme ~structure cfg with
          | exception e ->
              Nbr_obs.Trace.disable ();
              Nbr_obs.Trace.clear ();
              note_failure
                (Printf.sprintf "%s/%s pressure-chaos raised %s" scheme
                   structure (Printexc.to_string e))
          | r ->
              Nbr_obs.Trace.disable ();
              let evs = Nbr_obs.Trace.events () in
              Nbr_obs.Trace.clear ();
              validate r;
              let count k =
                List.length
                  (List.filter (fun e -> e.Nbr_obs.Trace.e_kind = k) evs)
              in
              let degrades = count Nbr_obs.Trace.Degrade
              and restores = count Nbr_obs.Trace.Restore in
              (* The fixed reclaimer schedule crashes with a restart, so
                 every scheme must round-trip degrade -> restore. *)
              if degrades = 0 || restores = 0 then
                note_failure
                  (Printf.sprintf
                     "%s/%s: degrade/restore cycle missing (%d degrades, %d \
                      restores)"
                     scheme structure degrades restores);
              let bound = r.Trial.garbage_bound in
              let mg = Nbr_core.Smr_stats.max_garbage r.Trial.smr_stats in
              Printf.printf "%-12s %-12s %12d %8d %9d %8d %8d  %s\n%!" scheme
                structure mg bound degrades restores r.Trial.pressure_events
                (p2_verdict scheme ~mg ~bound)))
        Registry.scheme_names)
    seeds

(* ------------------------------------------------------------------ *)
(* U1: usability — reclamation-specific lines of code (paper §5.3).    *)

let usability _quick =
  print_newline ();
  print_endline "## U1 (§5.3): reclamation-specific integration effort";
  print_endline
    "Paper: NBR needed ~10 extra lines vs ~30 for HP in lazylist+DGT.";
  print_endline
    "Ours (calls a data structure must add per scheme, lazy list):";
  print_endline
    "  debra: 2 (begin_op/end_op)                      [paper: simplest]";
  print_endline
    "  nbr/nbr+: 2 + 1 phase split + reservation array [paper: ~10 lines]";
  print_endline
    "  hp: per-dereference protect + validate + restart [paper: ~30 lines]";
  print_endline
    "In this codebase the phase protocol is factored into Smr.phase, so the \
     counts show up as: DEBRA-style schemes ignore the reservation argument; \
     NBR needs the reservation array at each phase boundary; HP additionally \
     turns every pointer read into read_ptr (see lib/ds/lazy_list.ml).";
  flush stdout

(* ------------------------------------------------------------------ *)

let all : (string * string * (bool -> unit)) list =
  [
    ("fig3a", "DGT tree throughput, 3 workloads (E1)", fig3a);
    ("fig3b", "lazy list throughput, 3 workloads (E1)", fig3b);
    ("fig4a", "(a,b)-tree k-NBR throughput (E3)", fig4a);
    ("fig4b", "Harris list k-NBR throughput (E3)", fig4b);
    ("fig4c", "peak memory with stalled thread (E2)", fig4c);
    ("fig4d", "peak memory without stalled thread (E2)", fig4d);
    ("chaos", "bounded garbage under seeded fault plans (E2-chaos)", chaos);
    ("churn", "dynamic join/leave, alone and composed with chaos (E2-churn)",
     churn);
    ( "reclaim",
      "background reclaimer: tail latency + pressure-chaos (DESIGN.md s.12)",
      reclaim );
    ("fig5a", "DGT tree, large size (appendix B)", fig5a);
    ("fig5b", "DGT tree, small size (appendix B)", fig5b);
    ("fig6a", "lazy list, moderate size (appendix B)", fig6a);
    ("fig6b", "lazy list, tiny size (appendix B)", fig6b);
    ("ext_structures", "extension: hash set, skiplist, hazard eras",
     ext_structures);
    ("ablation_signals", "NBR vs NBR+ signal counts (§5)", ablation_signals);
    ("usability", "integration effort comparison (§5.3)", usability);
  ]

let summary () =
  Printf.printf
    "\n[experiments] %d trials run, %d validation failures (expect 0)\n%!"
    !validated !failures;
  !failures = 0
