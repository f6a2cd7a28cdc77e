(* Command-line interface to the reproduction harness.

   Run single experiments or ad-hoc trials with tunable parameters:

     nbr_bench list
     nbr_bench figure fig3a --quick
     nbr_bench figure chaos churn --quick     # several, in order
     nbr_bench figure                         # every experiment
     nbr_bench trial --scheme nbr+ --structure dgt-tree --threads 32 \
       --range 65536 --ins 50 --del 50 --duration-ms 2 --cores 16
     nbr_bench trial --runtime native --scheme debra --structure lazy-list \
       --threads 4 --duration-ms 500 *)

open Cmdliner

module Sim = Nbr_runtime.Sim_rt
module Nat = Nbr_runtime.Native_rt
module H_sim = Nbr_workload.Harness.Make (Sim)
module H_nat = Nbr_workload.Harness.Make (Nat)
module T = Nbr_workload.Trial
module E = Nbr_workload.Experiments

(* ---------------- list ---------------- *)

let list_cmd =
  let doc = "List available experiments (one per paper table/figure)." in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(
      const (fun () ->
          List.iter
            (fun (id, d, _) -> Printf.printf "%-18s %s\n" id d)
            E.all)
      $ const ())

(* ---------------- figure ---------------- *)

let figure_cmd =
  let ids_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiment ids (see $(b,list)); none runs every experiment.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller, faster profile.")
  in
  let run ids quick =
    (* Resolve every id first, so a typo fails before any trial runs. *)
    let selected =
      if ids = [] then E.all
      else
        List.map
          (fun id ->
            match List.find_opt (fun (i, _, _) -> i = id) E.all with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %s (try `nbr_bench list')\n"
                  id;
                exit 2)
          ids
    in
    List.iteri
      (fun k (id, descr, f) ->
        if k > 0 then print_newline ();
        Printf.printf "=== %s: %s ===\n%!" id descr;
        try f quick
        with Nbr_pool.Pool.Exhausted x ->
          (* An undersized pool (or the leaky scheme run long enough) is a
             diagnosable configuration problem, not a crash: report it and
             let the remaining experiments run. *)
          Format.printf "[%s ABORTED] %a@." id Nbr_pool.Pool.pp_exhausted x;
          E.note_failure
            (Printf.sprintf "%s: pool exhausted (capacity %d)" id
               x.Nbr_pool.Pool.x_capacity))
      selected;
    if not (E.summary ()) then exit 1
  in
  let doc = "Regenerate paper figures/tables (all of them if no id is given)." in
  Cmd.v (Cmd.info "figure" ~doc) Term.(const run $ ids_arg $ quick_arg)

(* ---------------- trial ---------------- *)

let trial_cmd =
  let scheme =
    Arg.(
      value
      & opt string "nbr+"
      & info [ "scheme" ] ~docv:"S"
          ~doc:"Reclamation scheme: nbr, nbr+, debra, qsbr, rcu, ibr, hp, \
                none.")
  in
  let structure =
    Arg.(
      value
      & opt string "dgt-tree"
      & info [ "structure" ] ~docv:"D"
          ~doc:"Data structure: lazy-list, dgt-tree, harris-list, ab-tree.")
  in
  let runtime =
    Arg.(
      value
      & opt string "sim"
      & info [ "runtime" ] ~doc:"Execution runtime: sim or native.")
  in
  let threads =
    Arg.(value & opt int 16 & info [ "threads" ] ~doc:"Worker threads.")
  in
  (* The simulator defaults are the figures', so a trial given a figure
     point's parameters measures that point. *)
  let cores =
    Arg.(
      value
      & opt int E.base_sim_config.cores
      & info [ "cores" ] ~doc:"Simulated cores (sim).")
  in
  let granularity =
    Arg.(
      value
      & opt int E.base_sim_config.granularity
      & info [ "granularity" ]
          ~doc:"Sim cycles between scheduler yields (1 = every access).")
  in
  let quantum =
    Arg.(
      value
      & opt int E.base_sim_config.quantum
      & info [ "quantum" ] ~doc:"Sim time-slice length in cycles.")
  in
  let range =
    Arg.(value & opt int 16384 & info [ "range" ] ~doc:"Key range.")
  in
  let ins = Arg.(value & opt int 25 & info [ "ins" ] ~doc:"Insert %.") in
  let del = Arg.(value & opt int 25 & info [ "del" ] ~doc:"Delete %.") in
  let duration_ms =
    Arg.(
      value & opt float 2.
      & info [ "duration-ms" ]
          ~doc:"Trial duration in ms, fractions allowed (virtual for sim, \
                wall for native).")
  in
  let threshold =
    Arg.(
      value & opt int 512
      & info [ "bag-threshold" ] ~doc:"Limbo bag HiWatermark.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let stall_ms =
    Arg.(
      value & opt float 0.
      & info [ "stall-ms" ]
          ~doc:"Stall thread 1 inside an operation for this many ms, \
                fractions allowed (E2).")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:"Install the standard seeded chaos plan (2 stalls, 1 crash, \
                25% delayed signals), arming the watchdog/recovery layer.")
  in
  let churn =
    Arg.(
      value & opt int 0
      & info [ "churn" ] ~docv:"N"
          ~doc:"Dynamic membership: workers (except thread 0) deregister \
                and rejoin every N completed ops.  0 = static.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Record the full event trace and write it as Chrome \
                trace-event JSON (Perfetto-loadable).")
  in
  let reclaim =
    Arg.(
      value & opt string "none"
      & info [ "reclaim" ] ~docv:"POLICY"
          ~doc:"Background reclaimer policy: none (inline reclamation), \
                pressure (watermark-kicked), periodic:NS (sweep every NS \
                nanoseconds), after:N (sweep every N collected retires).")
  in
  let pressure_chaos =
    Arg.(
      value & flag
      & info [ "pressure-chaos" ]
          ~doc:"Install the memory-pressure adversary (chaos plus \
                allocation hogs and a reclaimer stall + crash-with-restart \
                schedule).  Implies a reclaimer; combines with \
                $(b,--reclaim) to pick its policy (default pressure).")
  in
  let run scheme structure runtime threads cores granularity quantum range
      ins del duration_ms threshold seed stall_ms chaos churn trace_out
      reclaim pressure_chaos =
    (* P5-unsafe pairings would run, but their use-after-free counts mean
       nothing: refuse them up front. *)
    Option.iter
      (fun reason ->
        Printf.eprintf
          "nbr_bench: unsupported pairing %s x %s (paper P5), %s\n" scheme
          structure reason;
        exit 2)
      (Nbr_workload.Registry.refusal ~scheme ~structure);
    let ns_of_ms ms = Float.to_int (Float.round (ms *. 1e6)) in
    let duration_ns = ns_of_ms duration_ms in
    let reclaim =
      let parse = function
        | "none" -> None
        | "pressure" -> Some Nbr_reclaim.Reclaimer.On_pressure
        | s -> (
            match String.index_opt s ':' with
            | Some i -> (
                let k = String.sub s 0 i
                and v = String.sub s (i + 1) (String.length s - i - 1) in
                match (k, int_of_string_opt v) with
                | "periodic", Some ns when ns > 0 ->
                    Some (Nbr_reclaim.Reclaimer.Periodic { interval_ns = ns })
                | "after", Some n when n > 0 ->
                    Some (Nbr_reclaim.Reclaimer.After_n_retires { n })
                | _ ->
                    Printf.eprintf "bad --reclaim policy %s\n" s;
                    exit 2)
            | None ->
                Printf.eprintf "bad --reclaim policy %s\n" s;
                exit 2)
      in
      match (parse reclaim, pressure_chaos) with
      | None, true -> Some Nbr_reclaim.Reclaimer.On_pressure
      | p, _ -> p
    in
    let stall =
      if stall_ms > 0. then
        Some { T.stall_tid = 1; stall_ns = ns_of_ms stall_ms }
      else None
    in
    let faults =
      if pressure_chaos then
        Some
          (Nbr_fault.Fault_plan.pressure_chaos ~seed ~nthreads:threads
             ~stalls:1 ~crashes:1 ~hogs:2 ~hog_slots:1024
             ~stall_ns:(duration_ns / 8) ~ops_window:100
             ~reclaimer_stall_ns:(duration_ns / 8)
             ~restart_ns:(duration_ns / 4) ())
      else if chaos then
        Some
          (Nbr_fault.Fault_plan.chaos ~seed ~nthreads:threads ~stalls:2
             ~crashes:1 ~stall_ns:(duration_ns / 2) ~ops_window:100
             ~signal:
               {
                 Nbr_fault.Fault_plan.delay_pct = 25;
                 delay_ns = 20_000;
                 drop_pct = 0;
               }
             ())
      else None
    in
    (match faults with
    | Some p -> Format.printf "%a@." Nbr_fault.Fault_plan.pp p
    | None -> ());
    let trace_threads =
      if reclaim <> None then threads + 1 else threads
    in
    if trace_out <> None then
      Nbr_obs.Trace.enable ~capacity:65536 ~nthreads:trace_threads ();
    let cfg =
      T.Cfg.make ~nthreads:threads ~duration_ns ~key_range:range ~ins_pct:ins
        ~del_pct:del
        ~smr:
          (Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default
             threshold)
        ~seed ?stall ?faults ~churn_ops:churn ?reclaim ()
    in
    let r =
      match runtime with
      | "sim" ->
          Sim.set_config
            { E.base_sim_config with cores; seed; granularity; quantum };
          H_sim.run ~scheme ~structure cfg
      | "native" -> H_nat.run ~scheme ~structure cfg
      | other ->
          Printf.eprintf "unknown runtime %s\n" other;
          exit 2
    in
    (match trace_out with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        output_string oc (Nbr_obs.Trace.to_chrome_json ());
        close_out oc;
        Printf.printf "trace: %d events -> %s (%d dropped)\n"
          (List.length (Nbr_obs.Trace.events ()))
          file
          (Nbr_obs.Trace.dropped ());
        Nbr_obs.Trace.clear ());
    Format.printf "%a@." T.pp_row r;
    Format.printf
      "ops=%d freed=%d retired=%d reclaim_events=%d lo_reclaims=%d \
       final_in_use=%d uaf=%d size=%d/%d valid=%b@."
      r.T.total_ops (Nbr_core.Smr_stats.freed r.T.smr_stats) (Nbr_core.Smr_stats.retires r.T.smr_stats)
      (Nbr_core.Smr_stats.reclaim_events r.T.smr_stats) (Nbr_core.Smr_stats.lo_reclaims r.T.smr_stats) r.T.final_in_use
      r.T.uaf_reads r.T.final_size r.T.expected_size (T.valid r);
    if not (T.valid r) then exit 1
  in
  let doc = "Run one ad-hoc trial with explicit parameters." in
  Cmd.v (Cmd.info "trial" ~doc)
    Term.(
      const run $ scheme $ structure $ runtime $ threads $ cores
      $ granularity $ quantum $ range $ ins $ del $ duration_ms $ threshold
      $ seed $ stall_ms $ chaos $ churn $ trace_out $ reclaim
      $ pressure_chaos)

(* ---------------- main ---------------- *)

let () =
  let doc = "NBR (PPoPP'21) reproduction benchmarks" in
  let info = Cmd.info "nbr_bench" ~version:"1.0.0" ~doc in
  (* [~catch:false] so pool exhaustion reaches us instead of cmdliner's
     generic backtrace: it is an expected outcome of undersized trials
     (or of running the leaky scheme long enough), not a crash. *)
  match Cmd.eval ~catch:false (Cmd.group info [ list_cmd; figure_cmd; trial_cmd ]) with
  | code -> exit code
  | exception Nbr_pool.Pool.Exhausted x ->
      Format.eprintf
        "nbr_bench: %a@.hint: raise the trial's pool capacity, shorten its \
         duration, or pick a reclaiming scheme (this is the expected failure \
         mode of scheme=none).@."
        Nbr_pool.Pool.pp_exhausted x;
      exit 1
  | exception Invalid_argument msg ->
      (* e.g. an unknown scheme/structure name reaching the harness *)
      Format.eprintf "nbr_bench: %s@." msg;
      exit 2
