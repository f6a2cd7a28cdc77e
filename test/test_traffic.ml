(* Traffic-generator tests: the Zipfian frequency shape (statistical,
   fixed seed), seed determinism, mix proportions, arrival shapes, and
   constructor validation.

   The generator draws only from [Nbr_sync.Rng] — no runtime clock, no
   atomics — so one draw sequence is bit-identical wherever it runs;
   the determinism test pins that property down. *)

module Traffic = Nbr_workload.Traffic
module Rng = Nbr_sync.Rng

(* ------------------------------------------------------------------ *)
(* Zipf distribution shape.                                            *)

(* With theta = 0.99 over 1024 keys the head is heavy: rank 0 alone
   carries ~7% of the mass and the top 16 ranks a solid third.  Check
   the shape statistically on a fixed seed rather than exact counts, so
   the test documents the distribution instead of the PRNG. *)
let test_zipf_shape () =
  let n = 1024 in
  let z = Traffic.Zipf.make ~theta:0.99 ~n () in
  let rng = Rng.create 7 in
  let draws = 200_000 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Traffic.Zipf.rank z rng in
    Alcotest.(check bool) "rank in range" true (r >= 0 && r < n);
    counts.(r) <- counts.(r) + 1
  done;
  let top k =
    let s = ref 0 in
    for i = 0 to k - 1 do
      s := !s + counts.(i)
    done;
    float_of_int !s /. float_of_int draws
  in
  Alcotest.(check bool)
    (Printf.sprintf "rank 0 is hot (%.3f)" (top 1))
    true
    (top 1 > 0.06 && top 1 < 0.20);
  Alcotest.(check bool)
    (Printf.sprintf "top 16 ranks carry >= 25%% (%.3f)" (top 16))
    true (top 16 >= 0.25);
  Alcotest.(check bool)
    (Printf.sprintf "top 16 ranks carry <= 60%% (%.3f)" (top 16))
    true (top 16 <= 0.60);
  (* Monotone head: each of the first few ranks at least as popular as
     the one after next (adjacent ranks can swap on sampling noise). *)
  for i = 0 to 6 do
    Alcotest.(check bool)
      (Printf.sprintf "head decreasing at rank %d" i)
      true
      (counts.(i) + (draws / 1000) >= counts.(i + 2))
  done;
  (* The tail is still alive: a heavy head must not collapse the
     distribution onto a handful of keys. *)
  let distinct = Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 counts in
  Alcotest.(check bool)
    (Printf.sprintf "tail coverage (%d distinct ranks)" distinct)
    true (distinct > n / 2)

let test_zipf_scatter () =
  let n = 1 lsl 20 in
  let z = Traffic.Zipf.make ~n () in
  let rng = Rng.create 3 in
  (* Scattered keys stay in range and the hot head does not map to a
     single dense prefix (the point of scattering: popular keys spread
     across shards). *)
  let seen = Hashtbl.create 64 in
  for _ = 1 to 1000 do
    let k = Traffic.Zipf.key z rng in
    Alcotest.(check bool) "key in range" true (k >= 0 && k < n);
    Hashtbl.replace seen (k * 8 / n) ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "hot keys span octants (%d)" (Hashtbl.length seen))
    true
    (Hashtbl.length seen >= 4)

(* ------------------------------------------------------------------ *)
(* Determinism.                                                        *)

let test_seed_determinism () =
  let mk () = Traffic.make ~mx:Traffic.scan_heavy ~rate_rps:500_000 ~keyspace:65_536 () in
  let t1 = mk () and t2 = mk () in
  let r1 = Rng.for_thread ~seed:11 ~tid:3
  and r2 = Rng.for_thread ~seed:11 ~tid:3 in
  for i = 1 to 10_000 do
    let o1 = Traffic.draw_op t1 r1 and o2 = Traffic.draw_op t2 r2 in
    if o1 <> o2 then
      Alcotest.failf "draw %d diverged under equal seeds" i;
    let frac = float_of_int (i mod 100) /. 100.0 in
    let g1 = Traffic.next_gap_ns t1 r1 ~frac
    and g2 = Traffic.next_gap_ns t2 r2 ~frac in
    Alcotest.(check int) "gap deterministic" g1 g2
  done;
  (* Different tid, same seed: a different stream. *)
  let r3 = Rng.for_thread ~seed:11 ~tid:4 in
  let diverged = ref false in
  for _ = 1 to 100 do
    if Traffic.draw_op t1 r1 <> Traffic.draw_op t2 r3 then diverged := true
  done;
  Alcotest.(check bool) "per-thread streams differ" true !diverged

(* ------------------------------------------------------------------ *)
(* Mix proportions.                                                    *)

let test_mix_proportions () =
  let t = Traffic.make ~mx:Traffic.write_heavy ~keyspace:4096 () in
  let rng = Rng.create 5 in
  let gets = ref 0 and puts = ref 0 and dels = ref 0 and scans = ref 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    match Traffic.draw_op t rng with
    | Traffic.Get _ -> incr gets
    | Traffic.Put _ -> incr puts
    | Traffic.Delete _ -> incr dels
    | Traffic.Scan _ -> incr scans
  done;
  let pct x = 100 * !x / draws in
  Alcotest.(check bool)
    (Printf.sprintf "gets ~50%% (%d%%)" (pct gets))
    true
    (abs (pct gets - 50) <= 2);
  Alcotest.(check bool)
    (Printf.sprintf "puts ~25%% (%d%%)" (pct puts))
    true
    (abs (pct puts - 25) <= 2);
  Alcotest.(check bool)
    (Printf.sprintf "dels ~25%% (%d%%)" (pct dels))
    true
    (abs (pct dels - 25) <= 2);
  Alcotest.(check int) "no scans in write-heavy" 0 !scans

(* ------------------------------------------------------------------ *)
(* Arrival shapes.                                                     *)

let test_rate_mult () =
  let close a b = abs_float (a -. b) < 1e-9 in
  Alcotest.(check bool) "steady is flat" true
    (close (Traffic.rate_mult Traffic.Steady ~frac:0.0) 1.0
    && close (Traffic.rate_mult Traffic.Steady ~frac:0.9) 1.0);
  let fc =
    Traffic.Flash_crowd { fc_at_pct = 40; fc_len_pct = 20; fc_mult = 8 }
  in
  Alcotest.(check bool) "before crowd" true
    (close (Traffic.rate_mult fc ~frac:0.30) 1.0);
  Alcotest.(check bool) "inside crowd" true
    (close (Traffic.rate_mult fc ~frac:0.50) 8.0);
  Alcotest.(check bool) "after crowd" true
    (close (Traffic.rate_mult fc ~frac:0.70) 1.0);
  let d = Traffic.Diurnal { d_cycles = 2; d_floor_pct = 20 } in
  let mn = ref infinity and mx = ref neg_infinity in
  for i = 0 to 100 do
    let m = Traffic.rate_mult d ~frac:(float_of_int i /. 100.0) in
    if m < !mn then mn := m;
    if m > !mx then mx := m
  done;
  Alcotest.(check bool)
    (Printf.sprintf "diurnal floor %.2f" !mn)
    true
    (!mn >= 0.19 && !mn <= 0.35);
  Alcotest.(check bool)
    (Printf.sprintf "diurnal peak %.2f" !mx)
    true
    (!mx >= 0.9 && !mx <= 1.01)

let test_gaps () =
  let closed = Traffic.make ~keyspace:1024 () in
  let rng = Rng.create 2 in
  Alcotest.(check bool) "closed loop flagged" false (Traffic.open_loop closed);
  Alcotest.(check int) "closed loop: zero gap" 0
    (Traffic.next_gap_ns closed rng ~frac:0.5);
  let open_t = Traffic.make ~rate_rps:1_000_000 ~keyspace:1024 () in
  Alcotest.(check bool) "open loop flagged" true (Traffic.open_loop open_t);
  (* Mean exponential gap at 1M rps is 1000 ns; sampling 10k draws puts
     the empirical mean well within 2x. *)
  let sum = ref 0 in
  let draws = 10_000 in
  for _ = 1 to draws do
    let g = Traffic.next_gap_ns open_t rng ~frac:0.1 in
    Alcotest.(check bool) "gap positive" true (g >= 1);
    sum := !sum + g
  done;
  let mean = float_of_int !sum /. float_of_int draws in
  Alcotest.(check bool)
    (Printf.sprintf "mean gap ~1000ns (%.0f)" mean)
    true
    (mean > 500.0 && mean < 2000.0)

(* ------------------------------------------------------------------ *)
(* Validation.                                                         *)

let test_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "theta >= 1 rejected" true
    (raises (fun () -> Traffic.Zipf.make ~theta:1.0 ~n:10 ()));
  Alcotest.(check bool) "n < 2 rejected" true
    (raises (fun () -> Traffic.Zipf.make ~n:1 ()));
  Alcotest.(check bool) "mix must sum to 100" true
    (raises (fun () -> Traffic.mix ~get:50 ~put:10 ~del:10 ~scan:10 ()));
  Alcotest.(check bool) "named mixes round-trip" true
    (Traffic.mix_of_name (Traffic.mix_name Traffic.read_heavy)
    = Some Traffic.read_heavy)

(* A scan range wraps past the keyspace end at most once, so a scan
   longer than the keyspace is rejected when the generator is built;
   a mix without scans may carry any length. *)
let test_scan_len_bound () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  let mx len = Traffic.mix ~scan_len:len ~get:70 ~put:10 ~del:10 ~scan:10 () in
  Alcotest.(check bool) "scan_len > keyspace rejected" true
    (raises (fun () -> Traffic.make ~mx:(mx 1025) ~keyspace:1024 ()));
  Alcotest.(check bool) "scan_len = keyspace accepted" false
    (raises (fun () -> Traffic.make ~mx:(mx 1024) ~keyspace:1024 ()));
  Alcotest.(check bool) "no scans, any length" false
    (raises (fun () ->
         Traffic.make
           ~mx:(Traffic.mix ~scan_len:4096 ~get:100 ~put:0 ~del:0 ~scan:0 ())
           ~keyspace:1024 ()))

let suite =
  [
    Alcotest.test_case "zipf-shape" `Quick test_zipf_shape;
    Alcotest.test_case "zipf-scatter" `Quick test_zipf_scatter;
    Alcotest.test_case "seed-determinism" `Quick test_seed_determinism;
    Alcotest.test_case "mix-proportions" `Quick test_mix_proportions;
    Alcotest.test_case "rate-mult" `Quick test_rate_mult;
    Alcotest.test_case "gaps" `Quick test_gaps;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "scan-len-bound" `Quick test_scan_len_bound;
  ]
