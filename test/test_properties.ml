(* Property-based tests of the NBR-specific invariants (qcheck over
   randomized schedules on the deterministic simulator). *)

module Sim = Nbr_runtime.Sim_rt
module P = Nbr_pool.Pool.Make (Sim)
module NP = Nbr_core.Nbr_plus.Make (Sim)
module N = Nbr_core.Nbr.Make (Sim)
module HE = Nbr_core.Hazard_eras.Make (Sim)

let cfg threshold =
  Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default threshold

(* Lemma 10 as a property: for random thread counts, thresholds,
   reservation patterns and stall schedules, a bounded scheme never holds
   more than live + n*(threshold + R + 1) unreclaimed records.  Threads
   continuously allocate, sometimes briefly reserve-and-hold, retire, and
   may stall mid-phase. *)
let bounded_garbage_nbr_plus =
  QCheck.Test.make ~count:20 ~name:"nbr+ bounded garbage (Lemma 10)"
    QCheck.(
      quad (int_range 2 6) (* threads *)
        (int_range 8 64) (* threshold *)
        (int_range 50 400) (* retires per thread *)
        (int_range 0 3) (* stalled thread count *))
    (fun (n, threshold, iters, stallers) ->
      Sim.set_config
        { Sim.default_config with cores = 4; granularity = 1; seed = n * 131 };
      let pool =
        P.create ~capacity:200_000 ~data_fields:1 ~ptr_fields:1 ~nthreads:n ()
      in
      let smr = NP.create pool ~nthreads:n (cfg threshold) in
      let ctxs = Array.init n (fun tid -> NP.register smr ~tid) in
      Sim.run ~nthreads:n (fun tid ->
          let c = ctxs.(tid) in
          let rng = Nbr_sync.Rng.for_thread ~seed:99 ~tid in
          for i = 1 to iters do
            NP.begin_op c;
            (* Occasionally hold a reservation through a write phase. *)
            if Nbr_sync.Rng.below rng 4 = 0 then begin
              let s = NP.alloc c in
              NP.phase c
                ~read:{ NP.read = (fun _ -> ((), [| s |])) }
                ~write:{ NP.write = (fun wr () -> NP.retire wr s) }
            end
            else begin
              let s = NP.alloc c in
              NP.retire c s
            end;
            (* A few threads stall mid-run, inside an operation. *)
            if tid < stallers && i = iters / 2 then
              NP.read_only c { NP.view = (fun _ -> Sim.stall_ns 2_000_000) };
            NP.end_op c
          done);
      let st = P.stats pool in
      let r = Nbr_core.Smr_config.(default.max_reservations) in
      st.P.s_in_use <= n * (threshold + r + 1))

(* The same harness must show unbounded behaviour is *possible* for leaky
   reclamation (sanity check that the property above is not vacuous). *)
let leaky_unbounded =
  QCheck.Test.make ~count:5 ~name:"leaky reclamation exceeds the NBR bound"
    QCheck.(int_range 100 300)
    (fun iters ->
      Sim.set_config
        { Sim.default_config with cores = 4; granularity = 1; seed = 5 };
      let module L = Nbr_core.Leaky.Make (Sim) in
      let n = 4 and threshold = 16 in
      let pool =
        P.create ~capacity:200_000 ~data_fields:1 ~ptr_fields:1 ~nthreads:n ()
      in
      let smr = L.create pool ~nthreads:n (cfg threshold) in
      let ctxs = Array.init n (fun tid -> L.register smr ~tid) in
      Sim.run ~nthreads:n (fun tid ->
          let c = ctxs.(tid) in
          for _ = 1 to iters do
            let s = L.alloc c in
            L.retire c s
          done);
      let st = P.stats pool in
      st.P.s_in_use = n * iters
      && st.P.s_in_use
         > n * (threshold + Nbr_core.Smr_config.(default.max_reservations) + 1))

(* Determinism of whole trials: same seed -> identical results, different
   seed -> (almost certainly) different interleaving observable in ops. *)
module H = Nbr_workload.Harness.Make (Sim)

let trial_deterministic =
  QCheck.Test.make ~count:8 ~name:"sim trials are seed-deterministic"
    QCheck.(pair (int_range 1 1000) (int_range 0 3))
    (fun (seed, which) ->
      let structure = List.nth [ "lazy-list"; "dgt-tree"; "hash-set"; "skip-list" ] which in
      let run () =
        Sim.set_config
          { Sim.default_config with cores = 3; granularity = 1; seed };
        let cfg =
          Nbr_workload.Trial.Cfg.make ~nthreads:4 ~duration_ns:120_000 ~key_range:64
            ~seed ()
        in
        let r = H.run ~scheme:"nbr+" ~structure cfg in
        (r.Nbr_workload.Trial.total_ops, r.Nbr_workload.Trial.final_size)
      in
      run () = run ())

(* ------------------------------------------------------------------ *)
(* Tentpole property: a held stale handle never yields live data.
   After a record is freed and its slot recycled, every scheme's
   validated read path either refuses outright (restart via
   [Neutralized]: NBR family, HP, HE) or hands back the recycled
   occupant's memory with the staleness detected and counted (epoch
   family and foils) — and the pool-level read itself always raises
   [Stale], never returns a value.  Checked across all ten schemes. *)

module type SCHEME =
  Nbr_core.Smr_intf.S with type pool = P.t

module D = Nbr_core.Debra.Make (Sim)
module Q = Nbr_core.Qsbr.Make (Sim)
module R = Nbr_core.Rcu.Make (Sim)
module I = Nbr_core.Ibr.Make (Sim)
module HP = Nbr_core.Hp.Make (Sim)
module LK = Nbr_core.Leaky.Make (Sim)
module UF = Nbr_core.Unsafe_free.Make (Sim)

let all_schemes : (string * (module SCHEME)) list =
  [
    ("nbr", (module N));
    ("nbr+", (module NP));
    ("debra", (module D));
    ("qsbr", (module Q));
    ("rcu", (module R));
    ("ibr", (module I));
    ("hp", (module HP));
    ("he", (module HE));
    ("leaky", (module LK));
    ("unsafe-free", (module UF));
  ]

let stale_never_live (name, (module S : SCHEME)) (v_old, v_new) =
  Sim.set_config
    { Sim.default_config with cores = 1; granularity = 1; seed = 23 };
  let pool = P.create ~capacity:8 ~data_fields:1 ~ptr_fields:1 ~nthreads:1 () in
  let smr = S.create pool ~nthreads:1 Nbr_core.Smr_config.default in
  let c = S.register smr ~tid:0 in
  let ok = ref false in
  Sim.run ~nthreads:1 (fun _ ->
      let s =
        S.op c (fun op ->
            S.phase op ~read:{ S.read = (fun _ -> ((), [||])) }
              ~write:{ S.write = (fun wr () -> S.alloc wr) })
      in
      P.set_data pool s 0 v_old;
      (* The record dies and its slot is recycled behind our back. *)
      P.free pool s;
      let s' = P.alloc pool in
      P.set_data pool s' 0 v_new;
      (* Pool level: always a typed failure carrying the memory's
         *current* contents — never the dead record's data as a value. *)
      let pool_ok =
        match P.read_data pool s 0 with
        | _ -> false
        | exception P.Stale v -> v = v_new
      in
      (* A refusal restarts the read phase: its replay reports it. *)
      let attempts = ref 0 in
      let scheme_ok =
        S.op c (fun op ->
            S.read_only op { S.view = (fun rd ->
                incr attempts;
                !attempts > 1 || S.read_data rd ~src:s ~field:0 = v_new) })
      in
      ok := pool_ok && scheme_ok && not (P.valid pool s));
  if not !ok then QCheck.Test.fail_reportf "%s yielded live/stale data" name;
  (P.stats pool).P.s_uaf_reads > 0

let stale_handle_never_live =
  QCheck.Test.make ~count:40
    ~name:"stale handle never yields live data (10 schemes)"
    QCheck.(pair small_signed_int small_signed_int)
    (fun (a, b) ->
      let v_old = a and v_new = b + 1_000_000 in
      List.for_all (fun sch -> stale_never_live sch (v_old, v_new)) all_schemes)

(* Rng sanity: below stays in range; for_thread decorrelates threads. *)
let rng_bounds =
  QCheck.Test.make ~count:200 ~name:"rng below stays in bounds"
    QCheck.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Nbr_sync.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Nbr_sync.Rng.below rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      bounded_garbage_nbr_plus;
      leaky_unbounded;
      trial_deterministic;
      stale_handle_never_live;
      rng_bounds;
    ]
