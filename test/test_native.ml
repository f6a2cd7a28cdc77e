(* Native-runtime tests: the library on real OCaml domains.

   The container may have a single core, so parallelism is time-sliced;
   these runs still exercise real atomics, real cross-domain signal
   counters, and the polling neutralization protocol end to end. *)

module Nat = Nbr_runtime.Native_rt
module H = Nbr_workload.Harness.Make (Nat)
module T = Nbr_workload.Trial

let run ~scheme ~structure =
  let cfg =
    T.Cfg.make ~nthreads:4 ~duration_ns:200_000_000 ~key_range:128
      ~smr:(Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 48)
      ~seed:5 ()
  in
  H.run ~scheme ~structure cfg

let check ~scheme ~structure () =
  let r = run ~scheme ~structure in
  if r.T.final_size <> r.T.expected_size then
    Alcotest.failf "%s/%s: size %d expected %d" scheme structure
      r.T.final_size r.T.expected_size;
  if r.T.total_ops < 100 then
    Alcotest.failf "%s/%s: too few ops (%d)" scheme structure r.T.total_ops

let test_runtime_basics () =
  let c = Nat.make 0 in
  Nat.run ~nthreads:4 (fun _ ->
      for _ = 1 to 10_000 do
        ignore (Nat.faa c 1)
      done);
  Alcotest.(check int) "faa across domains" 40_000 (Nat.load c)

let test_signal_counters () =
  let seen = Atomic.make 0 in
  Nat.run ~nthreads:2 (fun tid ->
      if tid = 0 then Nat.send_signal 1
      else begin
        (* Poll until the signal lands; consume it while restartable to
           observe Neutralized. *)
        Nat.checkpoint (fun () ->
            Nat.set_restartable_t tid true;
            let deadline = Nat.now_ns () + 2_000_000_000 in
            (try
               while Nat.now_ns () < deadline do
                 Nat.poll_t tid
               done
             with Nat.Neutralized ->
               Nat.set_restartable_t tid false;
               Atomic.incr seen);
            Nat.set_restartable_t tid false)
      end);
  Alcotest.(check int) "neutralization delivered" 1 (Atomic.get seen)

let combos =
  [
    ("nbr", "lazy-list");
    ("nbr+", "lazy-list");
    ("nbr+", "dgt-tree");
    ("nbr", "harris-list");
    ("nbr+", "harris-list");
    ("debra", "ab-tree");
    ("hp", "lazy-list");
    ("hp", "dgt-tree");
    ("ibr", "dgt-tree");
  ]

(* ------------------------------------------------------------------ *)
(* Sim/native parity stress: the same workload must satisfy the same
   invariants under both runtimes.  Set semantics and bounded garbage are
   runtime-independent; zero reads-of-freed is exact only under the sim's
   instantaneous delivery (natively the benign poll window of DESIGN.md §3
   can count reads that are then thrown away by the restart). *)

module Sim = Nbr_runtime.Sim_rt
module HS = Nbr_workload.Harness.Make (Sim)

let check_parity ~scheme ~structure () =
  let cfg =
    T.Cfg.make ~nthreads:4 ~duration_ns:100_000_000 ~key_range:128
      ~smr:(Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 48)
      ~seed:11 ()
  in
  let check_one (r : T.result) =
    if not (T.valid r) then
      Alcotest.failf "%s/%s (%s): invalid (size %d expected %d, uaf %d)"
        scheme structure r.T.runtime r.T.final_size r.T.expected_size
        r.T.uaf_reads;
    (* Per-thread buffered-garbage high-water mark, like the E2 chaos
       suite: the bound caps each thread's limbo buffer, not the pool-wide
       sum across threads. *)
    let mg = Nbr_core.Smr_stats.max_garbage r.T.smr_stats in
    if Nbr_workload.Experiments.claims_bounded scheme && mg > r.T.garbage_bound
    then
      Alcotest.failf "%s/%s (%s): max_garbage %d exceeds bound %d" scheme
        structure r.T.runtime mg r.T.garbage_bound
  in
  let rs = HS.run ~scheme ~structure cfg in
  check_one rs;
  Alcotest.(check int)
    (Printf.sprintf "%s/%s sim uaf_reads" scheme structure)
    0 rs.T.uaf_reads;
  check_one (H.run ~scheme ~structure cfg)

let parity_combos =
  [
    ("nbr", "lazy-list");
    ("nbr+", "dgt-tree");
    ("ibr", "lazy-list");
    ("hp", "lazy-list");
    ("he", "dgt-tree");
  ]

let suite =
  [
    Alcotest.test_case "atomics across domains" `Quick test_runtime_basics;
    Alcotest.test_case "signal delivery via polling" `Quick
      test_signal_counters;
  ]
  @ List.map
      (fun (scheme, structure) ->
        Alcotest.test_case
          (Printf.sprintf "%s/%s on domains" scheme structure)
          `Slow
          (check ~scheme ~structure))
      combos
  @ List.map
      (fun (scheme, structure) ->
        Alcotest.test_case
          (Printf.sprintf "%s/%s sim/native parity" scheme structure)
          `Slow
          (check_parity ~scheme ~structure))
      parity_combos
