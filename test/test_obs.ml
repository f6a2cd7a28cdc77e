(* Observability-layer tests: histogram math, trace-ring mechanics, the
   deterministic neutralization timeline under the simulator, and the
   per-scheme pool-pressure recovery story as seen through the trace.

   The trace is a process-wide singleton, so every test that enables it
   clears it on the way out; Alcotest runs cases sequentially, so there
   is no cross-test interleaving to worry about. *)

module Sim = Nbr_runtime.Sim_rt
module P = Nbr_pool.Pool.Make (Sim)
module Tr = Nbr_obs.Trace
module Hist = Nbr_obs.Histogram

let cfg threshold =
  Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default threshold

(* ------------------------------------------------------------------ *)
(* Histogram unit tests.                                               *)

let test_hist_basic () =
  let h = Hist.create () in
  for v = 1 to 1000 do
    Hist.record h v
  done;
  Alcotest.(check int) "count" 1000 (Hist.count h);
  let s = Hist.summary h in
  Alcotest.(check int) "max is exact" 1000 s.Hist.s_max;
  (* Log buckets: p50 of 1..1000 (true 500) lands in bucket [512,1024)
     or [256,512); either way within the <=2x relative-error contract. *)
  Alcotest.(check bool)
    (Printf.sprintf "p50 within 2x of 500 (%.0f)" s.s_p50)
    true
    (s.s_p50 >= 250.0 && s.s_p50 <= 1000.0);
  Alcotest.(check bool)
    (Printf.sprintf "p99 above p50 (%.0f vs %.0f)" s.s_p99 s.s_p50)
    true (s.s_p99 >= s.s_p50)

let test_hist_empty_and_zero () =
  let h = Hist.create () in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Hist.quantile h 0.5);
  Hist.record h 0;
  Hist.record h (-5);
  (* negatives clamp to 0 *)
  Alcotest.(check int) "count includes clamped" 2 (Hist.count h);
  Alcotest.(check int) "max 0" 0 (Hist.summary h).Hist.s_max

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () and into = Hist.create () in
  for _ = 1 to 100 do
    Hist.record a 10
  done;
  for _ = 1 to 100 do
    Hist.record b 100_000
  done;
  Hist.merge_into ~into a;
  Hist.merge_into ~into b;
  Alcotest.(check int) "merged count" 200 (Hist.count into);
  let s = Hist.summary into in
  Alcotest.(check int) "merged max" 100_000 s.Hist.s_max;
  Alcotest.(check bool)
    (Printf.sprintf "p90 in the upper mode (%.0f)" s.s_p90)
    true (s.s_p90 > 1000.0)

(* ------------------------------------------------------------------ *)
(* Trace-ring mechanics.                                               *)

let test_trace_ring_drop_oldest () =
  Tr.enable ~capacity:16 ~nthreads:1 ();
  for i = 1 to 40 do
    Tr.emit ~tid:0 ~ns:i Tr.Bag_push i 0
  done;
  Tr.disable ();
  let evs = Tr.events () in
  Alcotest.(check int) "ring keeps capacity" 16 (List.length evs);
  Alcotest.(check int) "drop count" 24 (Tr.dropped ());
  (* Drop-oldest: the survivors are the last 16 emissions, in order. *)
  let first = List.hd evs and last = List.nth evs 15 in
  Alcotest.(check int) "oldest survivor" 25 first.Tr.e_a;
  Alcotest.(check int) "newest survivor" 40 last.Tr.e_a;
  Tr.clear ();
  Alcotest.(check int) "clear drops rings" 0 (List.length (Tr.events ()))

let test_trace_disabled_is_off () =
  (* After [clear] the gate is down and emission is a no-op. *)
  Tr.clear ();
  Alcotest.(check bool) "gate down" false !Tr.on;
  Tr.emit ~tid:0 ~ns:1 Tr.Reclaim 1 0;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Tr.events ()))

let test_trace_merge_sorted () =
  Tr.enable ~capacity:64 ~nthreads:3 ();
  (* Interleaved timestamps across threads; merged timeline must come
     back sorted by ns with per-thread order preserved. *)
  Tr.emit ~tid:0 ~ns:30 Tr.Reclaim 0 0;
  Tr.emit ~tid:1 ~ns:10 Tr.Reclaim 1 0;
  Tr.emit ~tid:2 ~ns:20 Tr.Reclaim 2 0;
  Tr.emit ~tid:1 ~ns:40 Tr.Reclaim 3 0;
  Tr.disable ();
  let ns_order = List.map (fun e -> e.Tr.e_ns) (Tr.events ()) in
  Alcotest.(check (list int)) "sorted by ns" [ 10; 20; 30; 40 ] ns_order;
  Tr.clear ()

let test_trace_chrome_json_shape () =
  Tr.enable ~capacity:16 ~nthreads:1 ();
  Tr.emit ~tid:0 ~ns:1500 Tr.Signal_sent 1 0;
  Tr.disable ();
  let js = Tr.to_chrome_json () in
  Tr.clear ();
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "traceEvents key" true (contains "\"traceEvents\"" js);
  Alcotest.(check bool) "instant phase" true (contains "\"ph\":\"i\"" js);
  (* ts is microseconds: 1500 ns -> 1.5 *)
  Alcotest.(check bool) "us timestamp" true (contains "1.5" js);
  Alcotest.(check bool) "object braces" true
    (String.length js > 2 && js.[0] = '{' && js.[String.length js - 1] = '\n')

(* ------------------------------------------------------------------ *)
(* The acceptance timeline: a neutralized reader's four events arrive   *)
(* in causal order under the deterministic simulator.                   *)

module N = Nbr_core.Nbr.Make (Sim)

let test_sim_neutralization_timeline () =
  Tr.enable ~nthreads:2 ();
  let pool = P.create ~capacity:4096 ~data_fields:1 ~ptr_fields:1 ~nthreads:2 () in
  let smr = N.create pool ~nthreads:2 (cfg 4) in
  let c0 = N.register smr ~tid:0 and c1 = N.register smr ~tid:1 in
  Sim.run ~nthreads:2 (fun tid ->
      if tid = 1 then begin
        N.begin_op c1;
        let attempts = ref 0 in
        N.read_only c1 { N.view = (fun _ ->
            incr attempts;
            if !attempts = 1 then begin
              (* Linger in the read phase long enough to eat a signal. *)
              let spin = Sim.make 0 in
              for _ = 1 to 3_000 do
                ignore (Sim.load spin)
              done
            end) };
        N.end_op c1
      end
      else begin
        N.begin_op c0;
        for _ = 1 to 40 do
          let s = N.alloc c0 in
          N.retire c0 s
        done;
        N.end_op c0
      end);
  Tr.disable ();
  let victim = List.filter (fun e -> e.Tr.e_tid = 1) (Tr.events ()) in
  Tr.clear ();
  (* Index of the first event of each kind in the victim's own stream:
     delivery must precede the neutralization, which precedes the replay
     (Restart), which precedes the successful publication. *)
  let first_index k =
    let rec go i = function
      | [] -> Alcotest.failf "no %s event for the victim" (Tr.kind_name k)
      | e :: _ when e.Tr.e_kind = k -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 victim
  in
  let d = first_index Tr.Signal_delivered in
  let n = first_index Tr.Neutralized in
  let r = first_index Tr.Restart in
  let p = first_index Tr.Reservation_publish in
  Alcotest.(check bool)
    (Printf.sprintf "delivered(%d) < neutralized(%d) < restart(%d) < publish(%d)"
       d n r p)
    true
    (d < n && n < r && r < p)

(* ------------------------------------------------------------------ *)
(* Pool pressure through each scheme's [on_pressure] flush: a starved   *)
(* pool must recover (no [Exhausted]), and the trace must show both the *)
(* starvation and the reclamation that resolved it.                     *)

(* One thread, a pool much smaller than the retire volume, a bag
   threshold chosen per scheme: every op allocates and retires a burst,
   so in-use grows until [alloc] starves and the scheme's flush is the
   only way forward.  Epoch-based schemes (DEBRA, RCU, IBR) can only
   free records retired in *earlier* epochs, so the op loop is what
   lets their clocks advance between pressure events. *)
let pressure_recovery (type c s)
    (module S : Nbr_core.Smr_intf.S with type pool = P.t
       and type ctx = c
       and type t = s) ~threshold ~epoch_freq () =
  (* Capacity of exactly one burst: each op's first alloc finds the pool
     full of the previous burst's garbage, so every scheme starves at
     every op boundary — and recovery only needs the *previous* op's
     records to be freeable, which holds even for the epoch schemes
     (their clocks advanced at the op boundary). *)
  let capacity = 8 and burst = 8 and ops = 30 in
  let pool =
    P.create ~capacity ~data_fields:1 ~ptr_fields:1 ~nthreads:1 ()
  in
  let smr_cfg = { (cfg threshold) with Nbr_core.Smr_config.epoch_freq } in
  let smr = S.create pool ~nthreads:1 smr_cfg in
  let c = S.register smr ~tid:0 in
  Tr.enable ~nthreads:1 ();
  Sim.run ~nthreads:1 (fun _ ->
      for _ = 1 to ops do
        S.op c (fun op ->
            S.phase op ~read:{ S.read = (fun _ -> ((), [||])) }
              ~write:{ S.write = (fun wr () ->
                for _ = 1 to burst do
                  let s = S.alloc wr in
                  S.retire wr s
                done) })
      done);
  Tr.disable ();
  let evs = Tr.events () in
  Tr.clear ();
  let count k = List.length (List.filter (fun e -> e.Tr.e_kind = k) evs) in
  let ps = P.stats pool in
  Alcotest.(check bool)
    (Printf.sprintf "pool actually starved (%d pressure events)"
       ps.P.s_pressure_events)
    true
    (ps.P.s_pressure_events > 0);
  Alcotest.(check bool)
    (Printf.sprintf "starvation traced (%d)" (count Tr.Pool_starvation))
    true
    (count Tr.Pool_starvation > 0);
  Alcotest.(check bool)
    (Printf.sprintf "reclaim traced (%d)" (count Tr.Reclaim))
    true
    (count Tr.Reclaim > 0);
  (* Recovery means the loop completed: every burst got its slots. *)
  Alcotest.(check int) "all bursts allocated" (ops * burst) ps.P.s_allocs

(* Threshold far above the pool for schemes whose flush can free
   everything on the spot; RCU's flush is what advances its epoch, so it
   keeps the default-ish threshold and earns freeable (older-epoch)
   records across ops.  IBR/HE want a fast era clock for the same
   reason; it is harmless to the rest. *)
let test_pressure_nbr () =
  pressure_recovery (module Nbr_core.Nbr.Make (Sim)) ~threshold:1000
    ~epoch_freq:4 ()

let test_pressure_nbrp () =
  pressure_recovery (module Nbr_core.Nbr_plus.Make (Sim)) ~threshold:1000
    ~epoch_freq:4 ()

let test_pressure_debra () =
  pressure_recovery (module Nbr_core.Debra.Make (Sim)) ~threshold:1000
    ~epoch_freq:4 ()

let test_pressure_qsbr () =
  pressure_recovery (module Nbr_core.Qsbr.Make (Sim)) ~threshold:1000
    ~epoch_freq:4 ()

let test_pressure_rcu () =
  pressure_recovery (module Nbr_core.Rcu.Make (Sim)) ~threshold:8
    ~epoch_freq:4 ()

let test_pressure_ibr () =
  pressure_recovery (module Nbr_core.Ibr.Make (Sim)) ~threshold:1000
    ~epoch_freq:4 ()

let test_pressure_hp () =
  pressure_recovery (module Nbr_core.Hp.Make (Sim)) ~threshold:1000
    ~epoch_freq:4 ()

let test_pressure_he () =
  pressure_recovery (module Nbr_core.Hazard_eras.Make (Sim)) ~threshold:1000
    ~epoch_freq:4 ()

let suite =
  [
    Alcotest.test_case "histogram: basics" `Quick test_hist_basic;
    Alcotest.test_case "histogram: empty/zero" `Quick test_hist_empty_and_zero;
    Alcotest.test_case "histogram: merge" `Quick test_hist_merge;
    Alcotest.test_case "trace: drop-oldest ring" `Quick
      test_trace_ring_drop_oldest;
    Alcotest.test_case "trace: disabled is off" `Quick test_trace_disabled_is_off;
    Alcotest.test_case "trace: merged timeline sorted" `Quick
      test_trace_merge_sorted;
    Alcotest.test_case "trace: chrome json shape" `Quick
      test_trace_chrome_json_shape;
    Alcotest.test_case "sim: neutralization timeline order" `Quick
      test_sim_neutralization_timeline;
    Alcotest.test_case "pressure: nbr recovers" `Quick test_pressure_nbr;
    Alcotest.test_case "pressure: nbr+ recovers" `Quick test_pressure_nbrp;
    Alcotest.test_case "pressure: debra recovers" `Quick test_pressure_debra;
    Alcotest.test_case "pressure: qsbr recovers" `Quick test_pressure_qsbr;
    Alcotest.test_case "pressure: rcu recovers" `Quick test_pressure_rcu;
    Alcotest.test_case "pressure: ibr recovers" `Quick test_pressure_ibr;
    Alcotest.test_case "pressure: hp recovers" `Quick test_pressure_hp;
    Alcotest.test_case "pressure: he recovers" `Quick test_pressure_he;
  ]
