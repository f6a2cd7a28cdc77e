(* Concurrent correctness tests on the deterministic simulator.

   Each case runs a multi-threaded mixed workload over many seeds
   (different interleavings) at fine scheduling granularity, checking:
   - the structure's final contents equal prefill + inserts - deletes,
   - no committed use-after-free reads,
   - bounded-garbage schemes keep peak unreclaimed memory bounded under
     an adversarially stalled thread, while DEBRA/RCU visibly grow (the
     paper's figure 4c as a property). *)

module Sim = Nbr_runtime.Sim_rt
module H = Nbr_workload.Harness.Make (Sim)
module T = Nbr_workload.Trial

let run_combo ~scheme ~structure ~seed ?(nthreads = 5) ?(key_range = 128)
    ?(threshold = 48) ?stall ?(duration_ns = 400_000) () =
  Sim.set_config
    {
      Sim.default_config with
      cores = 3 (* fewer cores than threads: real preemption *);
      granularity = 1;
      seed;
    };
  Sim.set_max_events 80_000_000;
  Fun.protect
    ~finally:(fun () -> Sim.set_max_events 0)
    (fun () ->
      let cfg =
        T.Cfg.make ~nthreads ~duration_ns ~key_range
          ~smr:
            (Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default
               threshold)
          ~seed ?stall ()
      in
      H.run ~scheme ~structure cfg)

let seeds = [ 3; 17; 101 ]

let check_combo ~scheme ~structure () =
  List.iter
    (fun seed ->
      let r = run_combo ~scheme ~structure ~seed () in
      if r.T.final_size <> r.T.expected_size then
        Alcotest.failf "%s/%s seed=%d: size %d, expected %d (ops=%d)" scheme
          structure seed r.T.final_size r.T.expected_size r.T.total_ops;
      if r.T.uaf_reads <> 0 then
        Alcotest.failf "%s/%s seed=%d: %d use-after-free reads" scheme
          structure seed r.T.uaf_reads;
      if r.T.total_ops < 100 then
        Alcotest.failf "%s/%s seed=%d: suspiciously few ops (%d)" scheme
          structure seed r.T.total_ops)
    seeds

let combos =
  List.concat_map
    (fun structure ->
      List.filter_map
        (fun scheme ->
          if Nbr_workload.Registry.supported ~scheme ~structure then
            Some (scheme, structure)
          else None)
        Nbr_workload.Registry.scheme_names)
    Nbr_workload.Registry.structure_names

(* ------------------------------------------------------------------ *)
(* Bounded garbage under a stalled thread (E2 as a property).           *)

let stalled_peak ~scheme () =
  let duration_ns = 1_500_000 in
  let r =
    run_combo ~scheme ~structure:"dgt-tree" ~seed:11 ~nthreads:6
      ~key_range:512 ~threshold:64
      ~stall:{ T.stall_tid = 1; stall_ns = duration_ns }
      ~duration_ns ()
  in
  if r.T.final_size <> r.T.expected_size then
    Alcotest.failf "%s stalled run: size mismatch" scheme;
  r.T.peak_unreclaimed

let test_bounded_garbage_under_stall () =
  (* Live structure ~256 keys -> ~512 live records + bags.  A bounded
     scheme's peak should stay near (live + threads*threshold); DEBRA and
     RCU, pinned by the staller, grow far beyond it. *)
  let bound = 512 + (6 * 64 * 4) in
  List.iter
    (fun scheme ->
      let p = stalled_peak ~scheme () in
      Alcotest.(check bool)
        (Printf.sprintf "%s peak %d within bound %d under stall" scheme p
           bound)
        true (p <= bound))
    [ "nbr"; "nbr+"; "hp"; "ibr" ];
  let p_nbrp = stalled_peak ~scheme:"nbr+" () in
  List.iter
    (fun scheme ->
      let p = stalled_peak ~scheme () in
      Alcotest.(check bool)
        (Printf.sprintf
           "%s grows under stall (peak %d vs nbr+ %d)" scheme p p_nbrp)
        true
        (p > 2 * p_nbrp))
    [ "debra"; "rcu" ]

(* Without a stall, every reclaiming scheme should stay modest. *)
let test_no_stall_memory_flat () =
  List.iter
    (fun scheme ->
      let r =
        run_combo ~scheme ~structure:"dgt-tree" ~seed:13 ~nthreads:6
          ~key_range:512 ~threshold:64 ~duration_ns:1_500_000 ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s peak %d reasonable without stall" scheme
           r.T.peak_unreclaimed)
        true
        (r.T.peak_unreclaimed <= 512 + (6 * 64 * 6)))
    [ "nbr"; "nbr+"; "debra"; "qsbr"; "rcu"; "ibr"; "hp" ]

(* NBR's restarts actually happen in contended runs (the neutralization
   path is exercised, not just compiled). *)
let test_neutralization_exercised () =
  let r =
    run_combo ~scheme:"nbr" ~structure:"lazy-list" ~seed:3 ~nthreads:6
      ~key_range:64 ~threshold:24 ~duration_ns:800_000 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "restarts observed (%d), signals sent (%d)"
       (Nbr_core.Smr_stats.restarts r.T.smr_stats) r.T.signals)
    true
    ((Nbr_core.Smr_stats.restarts r.T.smr_stats) > 0 && r.T.signals > 0)

(* NBR+ opportunistic reclamation fires in steady state. *)
let test_nbrp_lo_reclaims_exercised () =
  let r =
    run_combo ~scheme:"nbr+" ~structure:"dgt-tree" ~seed:9 ~nthreads:6
      ~key_range:256 ~threshold:48 ~duration_ns:1_200_000 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "lo-watermark reclaims observed (%d)"
       (Nbr_core.Smr_stats.lo_reclaims r.T.smr_stats))
    true
    ((Nbr_core.Smr_stats.lo_reclaims r.T.smr_stats) > 0)

(* The P5 pairs the registry refuses today, each with the declared fact
   it violates, written out rather than derived. *)
let refused =
  [
    ("ibr", "harris-list", "raw traversal");
    ("ibr", "hash-set", "raw traversal");
    ("hp", "harris-list", "raw traversal");
    ("hp", "hash-set", "raw traversal");
    ("hp", "skip-list", "rotating window");
    ("he", "harris-list", "raw traversal");
    ("he", "hash-set", "raw traversal");
    ("he", "skip-list", "rotating window");
  ]

(* The harness refuses the P5-unsafe pairings instead of running them,
   and says which fact each one violates. *)
let test_harness_rejects_unsupported () =
  let cfg = T.Cfg.make ~nthreads:2 ~duration_ns:10_000 ~key_range:16 () in
  List.iter
    (fun (scheme, structure) ->
      match H.run ~scheme ~structure cfg with
      | _ -> Alcotest.failf "%s/%s ran" scheme structure
      | exception Invalid_argument msg ->
          let fact =
            List.find_map
              (fun (s, d, f) ->
                if s = scheme && d = structure then Some f else None)
              refused
          in
          let reason =
            Option.get (Nbr_workload.Registry.refusal ~scheme ~structure)
          in
          Alcotest.(check string)
            "message"
            (Printf.sprintf
               "Harness.run: %s cannot run %s safely (paper P5), %s" scheme
               structure reason)
            msg;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s names %s" scheme structure
               (Option.value fact ~default:"no fact"))
            true
            (match fact with
            | Some f -> String.starts_with ~prefix:(f ^ ":") reason
            | None -> false))
    (Nbr_workload.Registry.unsupported ())

(* Deriving the refusals from the declared facts keeps today's eight. *)
let test_derived_refusals () =
  Alcotest.(check (list (pair string string)))
    "refused pairs"
    (List.sort compare (List.map (fun (s, d, _) -> (s, d)) refused))
    (List.sort compare (Nbr_workload.Registry.unsupported ()))

(* Applying the harness builds no scheme × structure matrix: a trial's
   modules are built when it runs.  Nor does reading every registry
   fact: the facts are declared outside the functors. *)
let test_harness_builds_nothing_up_front () =
  let w0 = Gc.minor_words () in
  let module H = Nbr_workload.Harness.Make (Sim) in
  let words = Gc.minor_words () -. w0 in
  let run : scheme:string -> structure:string -> T.cfg -> T.result =
    Sys.opaque_identity H.run
  in
  ignore run;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words allocated, at most 2000" words)
    true (words <= 2000.);
  let module R = Nbr_workload.Registry in
  let w0 = Gc.minor_words () in
  List.iter (fun e -> ignore (Sys.opaque_identity e.R.r_desc)) R.all;
  List.iter (fun (_, t) -> ignore (Sys.opaque_identity t)) R.structures;
  ignore (Sys.opaque_identity (R.unsupported ()));
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words to read every fact, at most 1000" words)
    true (words <= 1000.)

let suite =
  List.map
    (fun (scheme, structure) ->
      Alcotest.test_case
        (Printf.sprintf "%s/%s: 3 seeds, 5 threads" scheme structure)
        `Slow
        (check_combo ~scheme ~structure))
    combos
  @ [
      Alcotest.test_case "bounded garbage under stalled thread (fig 4c)"
        `Slow test_bounded_garbage_under_stall;
      Alcotest.test_case "memory flat without stall (fig 4d)" `Slow
        test_no_stall_memory_flat;
      Alcotest.test_case "neutralization path exercised" `Quick
        test_neutralization_exercised;
      Alcotest.test_case "nbr+ lo-watermark path exercised" `Quick
        test_nbrp_lo_reclaims_exercised;
      Alcotest.test_case "harness rejects unsupported pairings" `Quick
        test_harness_rejects_unsupported;
      Alcotest.test_case "harness builds nothing up front" `Quick
        test_harness_builds_nothing_up_front;
      Alcotest.test_case "registry refuses exactly the P5 pairs" `Quick
        test_derived_refusals;
    ]
