(* KV serving-layer driver: sweep reclamation schemes under
   production-shaped traffic and print a per-scheme latency table.

     nbr_kv --schemes all --threads 64 --shards 8 --keys 1048576 \
       --mix read-heavy --shape flash --rate 400000 --duration-ms 2
     nbr_kv --scheme nbr+ --pressure-chaos --reclaim pressure \
       --trace-out kv_trace.json

   Exit status 1 when any run fails validation (set semantics, zero
   committed UAF) or a bounded-garbage scheme exceeds its bound. *)

open Cmdliner
module Sim = Nbr.Runtime.Sim
module Traffic = Nbr.Workload.Traffic

module Run (Rt : Nbr.Runtime.S) = struct
  module K = Nbr.Kv.Service.Make (Rt)

  let one ~scheme ~structure ~nshards ~nthreads ~keyspace ~shard_capacity
      ~threshold ~reclaim ~faults ~guard ~churn ~traffic ~duration_ns ~batch
      ~prefill ~seed =
    let reclaimer_faults =
      match faults with
      | None -> []
      | Some p -> p.Nbr.Fault.reclaimer
    in
    let store =
      K.St.create
        (K.St.Cfg.make ~structure ~nshards ~keyspace ?shard_capacity
           ~smr:(Nbr.Scheme.Config.with_threshold Nbr.Scheme.Config.default
                   threshold)
           ?reclaim ~reclaimer_faults ~scheme ~nthreads ())
    in
    K.run store
      (K.Cfg.make ~duration_ns ~batch ~seed ~prefill ?faults ?guard
         ~churn_ops:churn ~traffic ())
end

module Run_sim = Run (Nbr.Runtime.Sim)
module Run_nat = Run (Nbr.Runtime.Native)

module Svc = Nbr.Kv.Service

let us ns = ns /. 1e3

let pp_text_row ppf (r : Svc.report) =
  let g = r.Svc.rep_latency.Svc.l_get and p = r.Svc.rep_latency.Svc.l_put in
  let slo = r.Svc.rep_slo in
  Format.fprintf ppf
    "%-12s %9.1f  %7.1f %8.1f %9.1f  %7.1f %8.1f %9.1f  %3d/%-3d  %5.1f \
     %6d %6d  %s%s%s@."
    r.Svc.rep_scheme r.Svc.rep_throughput_kops
    (us g.Nbr.Obs.Histogram.s_p50)
    (us g.s_p99) (us g.s_p999)
    (us p.Nbr.Obs.Histogram.s_p50)
    (us p.s_p99) (us p.s_p999)
    r.Svc.rep_stats.Nbr.Kv.Store.st_degrades
    r.Svc.rep_stats.Nbr.Kv.Store.st_restores
    (Nbr.Kv.Guard.goodput_pct slo)
    slo.Nbr.Kv.Guard.slo_shed slo.Nbr.Kv.Guard.slo_timed_out
    (if Svc.valid r then "ok" else "INVALID")
    (if Svc.bounded_ok r then "" else " GARBAGE-UNBOUNDED")
    (if Svc.slo_ok r then "" else " LEDGER-BROKEN")

let pp_md_row ppf (r : Svc.report) =
  let g = r.Svc.rep_latency.Svc.l_get and p = r.Svc.rep_latency.Svc.l_put in
  let slo = r.Svc.rep_slo in
  Format.fprintf ppf
    "| %s | %s | %.1f | %.1f | %.1f | %.1f | %.1f | %.1f | %.1f | %d/%d | \
     %.1f | %d | %d | %d | %s |@."
    r.Svc.rep_scheme r.Svc.rep_structure r.Svc.rep_throughput_kops
    (us g.Nbr.Obs.Histogram.s_p50)
    (us g.s_p99) (us g.s_p999)
    (us p.Nbr.Obs.Histogram.s_p50)
    (us p.s_p99) (us p.s_p999)
    r.Svc.rep_stats.Nbr.Kv.Store.st_degrades
    r.Svc.rep_stats.Nbr.Kv.Store.st_restores
    (Nbr.Kv.Guard.goodput_pct slo)
    slo.Nbr.Kv.Guard.slo_shed slo.Nbr.Kv.Guard.slo_timed_out
    slo.Nbr.Kv.Guard.slo_retries
    (if not (Svc.slo_ok r) then "LEDGER-BROKEN"
     else if Svc.valid r then
       if Svc.bounded_ok r then "ok" else "ok, unbounded"
     else "INVALID")

let () =
  let schemes =
    Arg.(
      value
      & opt string "nbr+"
      & info [ "schemes"; "scheme" ] ~docv:"S"
          ~doc:
            "Comma-separated scheme names, or $(b,sound) (the nine safe \
             schemes) or $(b,all) (including the unsafe-free foil).")
  in
  let structure =
    Arg.(
      value
      & opt string "hash-set"
      & info [ "structure" ]
          ~doc:
            "Per-shard structure: hash-set or ab-tree.  Schemes that \
             cannot run hash-set safely (hp, he, ibr) are swept on \
             ab-tree automatically.")
  in
  let runtime =
    Arg.(
      value & opt string "sim"
      & info [ "runtime" ] ~doc:"Execution runtime: sim or native.")
  in
  let shards =
    Arg.(value & opt int 8 & info [ "shards" ] ~doc:"Shard count.")
  in
  let threads =
    Arg.(value & opt int 16 & info [ "threads" ] ~doc:"Worker threads.")
  in
  let cores =
    Arg.(value & opt int 16 & info [ "cores" ] ~doc:"Simulated cores (sim).")
  in
  let granularity =
    Arg.(
      value & opt int 400
      & info [ "granularity" ]
          ~doc:"Sim cycles between scheduler yields.")
  in
  let quantum =
    Arg.(
      value & opt int 300_000
      & info [ "quantum" ] ~doc:"Sim time-slice length in cycles.")
  in
  let keys =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "keys" ] ~doc:"Keyspace size (Zipf support).")
  in
  let theta =
    Arg.(
      value & opt float 0.99
      & info [ "theta" ] ~doc:"Zipfian skew in [0,1).")
  in
  let mix =
    Arg.(
      value & opt string "read-heavy"
      & info [ "mix" ] ~doc:"read-heavy, write-heavy, or scan-heavy.")
  in
  let shape =
    Arg.(
      value & opt string "steady"
      & info [ "shape" ]
          ~doc:
            "Arrival shape: steady, flash (crowd at 40% for 20% of the \
             run), or diurnal (2 cycles, 20% floor).")
  in
  let flash_mult =
    Arg.(
      value & opt int 8
      & info [ "flash-mult" ] ~doc:"Flash-crowd load multiplier.")
  in
  let rate =
    Arg.(
      value & opt int 0
      & info [ "rate" ] ~docv:"RPS"
          ~doc:
            "Per-worker open-loop arrival rate (requests/s; virtual \
             time under sim).  0 = closed loop (back-to-back batches, \
             no queueing model).")
  in
  let batch =
    Arg.(
      value & opt int 32
      & info [ "batch" ] ~doc:"Max admissions per pipeline turn.")
  in
  let duration_ms =
    Arg.(
      value & opt int 2
      & info [ "duration-ms" ]
          ~doc:"Run duration in ms (virtual for sim, wall for native).")
  in
  let prefill =
    Arg.(
      value & opt int 20_000
      & info [ "prefill" ] ~doc:"Uniform-random put attempts before the clock.")
  in
  let shard_capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-capacity" ] ~doc:"Pool slots per shard.")
  in
  let threshold =
    Arg.(
      value & opt int 512
      & info [ "bag-threshold" ] ~doc:"Limbo bag HiWatermark.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let reclaim =
    Arg.(
      value & opt string "none"
      & info [ "reclaim" ] ~docv:"POLICY"
          ~doc:
            "Per-shard background reclaimer policy: none, pressure, \
             periodic:NS, after:N.")
  in
  let pressure_chaos =
    Arg.(
      value & flag
      & info [ "pressure-chaos" ]
          ~doc:
            "Install the memory-pressure adversary (stalls, a crash, \
             allocation hogs, and a reclaimer stall + crash-with-restart \
             schedule on every shard's reclaimer).  Implies a reclaimer \
             (default policy pressure).")
  in
  let guard =
    Arg.(
      value & flag
      & info [ "guard" ]
          ~doc:
            "Enable service-level overload protection: per-request \
             deadlines, bounded-inflight admission control, budgeted \
             retries, and per-shard circuit breakers with a brownout \
             ladder.")
  in
  let deadline_us =
    Arg.(
      value & opt int 200
      & info [ "deadline-us" ]
          ~doc:"Per-request deadline from arrival, in µs (with --guard).")
  in
  let inflight =
    Arg.(
      value & opt int 64
      & info [ "inflight" ]
          ~doc:
            "Per-shard admitted-but-incomplete budget (with --guard); \
             newest arrivals beyond it are shed.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ]
          ~doc:
            "Max extra attempts per request on pool exhaustion (with \
             --guard), behind a global retry budget.")
  in
  let shard_pressure =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-pressure" ] ~docv:"SHARD"
          ~doc:
            "Install the shard-targeted pressure adversary: staggered \
             allocation hogs pin ~3/4 of SHARD's pool, driving its \
             breaker through brownout, open, half-open and reclose.  \
             Implies --guard and a pressure reclaimer.")
  in
  let churn =
    Arg.(
      value & opt int 0
      & info [ "churn" ] ~docv:"N"
          ~doc:
            "Workers (except thread 0) deregister from every shard and \
             rejoin every N completed requests.  0 = static.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the event trace as Chrome trace-event JSON.")
  in
  let md =
    Arg.(
      value & flag
      & info [ "md" ] ~doc:"Emit the result table as Markdown rows.")
  in
  let run schemes structure runtime shards threads cores granularity quantum
      keys theta mix shape flash_mult rate batch duration_ms prefill
      shard_capacity threshold seed reclaim pressure_chaos guard deadline_us
      inflight retries shard_pressure churn trace_out md =
    let duration_ns = duration_ms * 1_000_000 in
    let scheme_list =
      match schemes with
      | "all" -> Nbr.Workload.Registry.all_scheme_names
      | "sound" -> Nbr.Workload.Registry.scheme_names
      | s -> String.split_on_char ',' s |> List.map String.trim
    in
    List.iter
      (fun s ->
        if Nbr.Workload.Registry.find s = None then begin
          Printf.eprintf "unknown scheme %s\n" s;
          exit 2
        end)
      scheme_list;
    let mx =
      match Traffic.mix_of_name mix with
      | Some m -> m
      | None ->
          Printf.eprintf "unknown mix %s\n" mix;
          exit 2
    in
    let shape =
      match shape with
      | "steady" -> Traffic.Steady
      | "flash" ->
          Traffic.Flash_crowd
            { fc_at_pct = 40; fc_len_pct = 20; fc_mult = flash_mult }
      | "diurnal" -> Traffic.Diurnal { d_cycles = 2; d_floor_pct = 20 }
      | s ->
          Printf.eprintf "unknown shape %s\n" s;
          exit 2
    in
    let reclaim =
      let parse = function
        | "none" -> None
        | "pressure" -> Some Nbr.Reclaim.On_pressure
        | s -> (
            match String.index_opt s ':' with
            | Some i -> (
                let k = String.sub s 0 i
                and v = String.sub s (i + 1) (String.length s - i - 1) in
                match (k, int_of_string_opt v) with
                | "periodic", Some ns when ns > 0 ->
                    Some (Nbr.Reclaim.Periodic { interval_ns = ns })
                | "after", Some n when n > 0 ->
                    Some (Nbr.Reclaim.After_n_retires { n })
                | _ ->
                    Printf.eprintf "bad --reclaim policy %s\n" s;
                    exit 2)
            | None ->
                Printf.eprintf "bad --reclaim policy %s\n" s;
                exit 2)
      in
      match (parse reclaim, pressure_chaos || shard_pressure <> None) with
      | None, true -> Some Nbr.Reclaim.On_pressure
      | p, _ -> p
    in
    let faults =
      match shard_pressure with
      | Some sh ->
          (* Hogs sized off the effective shard capacity so the target
             shard's occupancy crosses the guard's unhealthy backstop
             regardless of --shard-capacity / --keys choices. *)
          let eff_cap =
            match shard_capacity with
            | Some c -> c
            | None -> min 262_144 (max 8192 (keys / (2 * shards)))
          in
          Some
            (Nbr.Fault.shard_pressure ~seed ~nthreads:threads ~shard:sh
               ~hogs:3
               ~hog_slots:(eff_cap / 4)
               ~hold_ns:(duration_ns / 4) ())
      | None ->
          if pressure_chaos then
            Some
              (Nbr.Fault.pressure_chaos ~seed ~nthreads:threads ~stalls:1
                 ~crashes:1 ~hogs:2 ~hog_slots:1024
                 ~stall_ns:(duration_ns / 8) ~ops_window:200
                 ~reclaimer_stall_ns:(duration_ns / 8)
                 ~restart_ns:(duration_ns / 4) ())
          else None
    in
    let guard =
      if guard || shard_pressure <> None then
        Some
          (Nbr.Kv.Guard.Cfg.make ~deadline_ns:(deadline_us * 1_000)
             ~inflight ~max_retries:retries ())
      else None
    in
    let traffic =
      Traffic.make ~theta ~mx ~shape ~rate_rps:rate ~keyspace:keys ()
    in
    if trace_out <> None then
      Nbr.Obs.Trace.enable ~capacity:262_144
        ~nthreads:(threads + if reclaim <> None then shards else 0)
        ();
    if md then
      Format.printf
        "| scheme | structure | kreq/s | get p50 | get p99 | get p99.9 | \
         put p50 | put p99 | put p99.9 | degr/rest | goodput%% | shed | \
         t/o | retries | verdict \
         |@.|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|@."
    else
      Format.printf
        "%-12s %9s  %7s %8s %9s  %7s %8s %9s  %7s  %5s %6s %6s@.%-12s %9s  \
         %7s %8s %9s %8s %8s %9s@."
        "scheme" "kreq/s" "get p50" "p99" "p99.9" "put p50" "p99" "p99.9"
        "deg/res" "good%" "shed" "t/o" "" "" "(µs)" "" "" "(µs)" "" "";
    let failed = ref false and exhausted = ref false in
    List.iter
      (fun scheme ->
        (* P5-unsafe pairings sweep on ab-tree instead. *)
        let structure =
          if Nbr.Workload.Registry.supported ~scheme ~structure then
            structure
          else "ab-tree"
        in
        match
          match runtime with
          | "sim" ->
              Sim.set_config
                { Sim.default_config with cores; seed; granularity; quantum };
              Run_sim.one ~scheme ~structure ~nshards:shards
                ~nthreads:threads ~keyspace:keys ~shard_capacity ~threshold
                ~reclaim ~faults ~guard ~churn ~traffic ~duration_ns ~batch
                ~prefill ~seed
          | "native" ->
              Run_nat.one ~scheme ~structure ~nshards:shards
                ~nthreads:threads ~keyspace:keys ~shard_capacity ~threshold
                ~reclaim ~faults ~guard ~churn ~traffic ~duration_ns ~batch
                ~prefill ~seed
          | other ->
              Printf.eprintf "unknown runtime %s\n" other;
              exit 2
        with
        | r ->
            if md then Format.printf "%a" pp_md_row r
            else Format.printf "%a" pp_text_row r;
            if not (Svc.valid r) then failed := true;
            if not (Svc.bounded_ok r) then failed := true;
            if not (Svc.slo_ok r) then failed := true
        | exception Nbr.Pool.Exhausted x ->
            (* One scheme running its pool dry is a result, not a reason
               to abandon the rest of the sweep. *)
            if md then
              Format.printf "| %s | %s | exhausted | | | | | | | | | | | | \
                             FAILED |@."
                scheme structure
            else
              Format.printf "%-12s  exhausted (%a)@." scheme
                Nbr.Pool.pp_exhausted x;
            failed := true;
            exhausted := true)
      scheme_list;
    if !exhausted then
      Format.eprintf
        "hint: raise --shard-capacity, shorten the run, pick a reclaiming \
         scheme, or enable --guard to shed instead of dying.@.";
    (match trace_out with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        output_string oc (Nbr.Obs.Trace.to_chrome_json ());
        close_out oc;
        Printf.printf "trace: %d events -> %s (%d dropped)\n"
          (List.length (Nbr.Obs.Trace.events ()))
          file
          (Nbr.Obs.Trace.dropped ());
        Nbr.Obs.Trace.clear ());
    if !failed then exit 1
  in
  let doc = "NBR reproduction: sharded KV serving layer" in
  let info = Cmd.info "nbr_kv" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      const run $ schemes $ structure $ runtime $ shards $ threads $ cores
      $ granularity $ quantum $ keys $ theta $ mix $ shape $ flash_mult
      $ rate $ batch $ duration_ms $ prefill $ shard_capacity $ threshold
      $ seed $ reclaim $ pressure_chaos $ guard $ deadline_us $ inflight
      $ retries $ shard_pressure $ churn $ trace_out $ md)
  in
  match Cmd.eval ~catch:false (Cmd.v info term) with
  | code -> exit code
  | exception Nbr.Pool.Exhausted x ->
      (* Backstop only: the sweep catches per-cell and keeps going. *)
      Format.eprintf "nbr_kv: %a@." Nbr.Pool.pp_exhausted x;
      exit 1
  | exception Invalid_argument msg ->
      Format.eprintf "nbr_kv: %s@." msg;
      exit 2
