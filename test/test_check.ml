(* The analysis suite (lib/check), end to end: certificate round-trips,
   sanitizer rules on synthetic event streams, schedule-explorer
   negatives — unsafe-free, leaky, and the PR 4 IBR frozen-link bug
   behind the A3 ablation knob — each with byte-for-byte certificate
   replay, and a positive swarm smoke over every supported safe
   scheme × structure pair. *)

module Sim = Nbr_runtime.Sim_rt
module P = Nbr_pool.Pool.Make (Sim)
module Trace = Nbr_obs.Trace
module Cert = Nbr_check.Certificate
module Explore = Nbr_check.Explore
module San = Nbr_check.Sanitizer

(* Jitter off: scenario executions must be a pure function of the
   decision sequence for certificates to replay byte-for-byte, and a
   fixed jitter seed would do, but zero keeps failures easy to read. *)
let det_config =
  { Sim.default_config with cores = 2; granularity = 1; jitter = 0; seed = 7 }

(* Explorer scenarios mutate process-global simulator and trace state;
   put all of it back so later suites see the defaults they expect. *)
let with_clean_globals f =
  Fun.protect f ~finally:(fun () ->
      Sim.set_config Sim.default_config;
      Sim.set_max_events 0;
      Trace.subscribe None;
      Trace.set_verbose false;
      if Trace.enabled () then Trace.disable ())

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let rules_of san = List.map (fun v -> v.San.v_rule) (San.violations san)

(* Every sanitizer finding of one scenario execution as a single string:
   the negative tests compare this across replays byte-for-byte. *)
let verdict san =
  match San.violations san with
  | [] -> None
  | vs -> Some (String.concat "\n" (List.map San.violation_to_string vs))

(* ------------------------------------------------------------------ *)
(* Certificates.                                                       *)

let cert_example =
  {
    Cert.c_strategy = "dfs";
    c_nthreads = 2;
    c_cores = 2;
    c_granularity = 1;
    c_seed = 24397;
    c_decisions = [| 0; 0; 0; 0; 1; 0; 1; 1; 1; 0 |];
  }

let test_cert_roundtrip () =
  let s = Cert.to_string cert_example in
  let c' = Cert.of_string s in
  Alcotest.(check bool) "round-trips" true (Cert.equal cert_example c');
  Alcotest.(check string) "stable re-encoding" s (Cert.to_string c');
  Alcotest.(check bool) "whitespace tolerated" true
    (Cert.equal cert_example (Cert.of_string ("  " ^ s ^ "\n")));
  let empty = { cert_example with c_decisions = [||] } in
  Alcotest.(check bool) "empty decisions round-trip" true
    (Cert.equal empty (Cert.of_string (Cert.to_string empty)));
  let long =
    { cert_example with c_decisions = Array.init 1000 (fun i -> i / 700) }
  in
  Alcotest.(check bool) "long runs round-trip" true
    (Cert.equal long (Cert.of_string (Cert.to_string long)))

let test_cert_malformed () =
  let rejected s =
    match Cert.of_string s with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ (if s = "" then "<empty>" else s))
        true (rejected s))
    [
      "";
      "garbage";
      "nbr-cert/2;dfs;2;2;1;5;0" (* wrong version *);
      "nbr-cert/1;dfs;2;2;1;5" (* missing field *);
      "nbr-cert/1;dfs;two;2;1;5;0" (* non-numeric *);
      "nbr-cert/1;dfs;2;2;1;5;3x" (* truncated run *);
      "nbr-cert/1;dfs;2;2;1;5;0x4" (* zero-length run *);
    ]

(* ------------------------------------------------------------------ *)
(* Sanitizer rules on synthetic event streams: drive Trace.emit by hand
   and check exactly which rules fire.                                 *)

let attach ?garbage_bound protection =
  if not (Trace.enabled ()) then Trace.enable ~nthreads:2 ();
  San.attach { San.protection; nthreads = 2; garbage_bound }

let test_san_unbalanced () =
  with_clean_globals @@ fun () ->
  let san = attach Epoch in
  Trace.emit ~tid:0 ~ns:10 Trace.Begin_op 0 0;
  Trace.emit ~tid:0 ~ns:20 Trace.Begin_op 0 0 (* nested *);
  Trace.emit ~tid:0 ~ns:30 Trace.End_op 0 0;
  Trace.emit ~tid:1 ~ns:40 Trace.End_op 0 0 (* unmatched *);
  Trace.emit ~tid:1 ~ns:50 Trace.Begin_op 0 0 (* left open *);
  San.detach san;
  Alcotest.(check (list string))
    "nested, unmatched, and left-open all flagged"
    [ "unbalanced_op"; "unbalanced_op"; "unbalanced_op" ]
    (rules_of san);
  Alcotest.(check int) "total matches" 3 (San.total_violations san)

let test_san_uaf_and_garbage () =
  with_clean_globals @@ fun () ->
  let san = attach ~garbage_bound:2 Epoch in
  Trace.emit ~tid:0 ~ns:1 Trace.Alloc_slot 7 0;
  Trace.emit ~tid:0 ~ns:2 Trace.Access 7 1 (* live: fine *);
  Trace.emit ~tid:0 ~ns:3 Trace.Retire 7 0;
  Trace.emit ~tid:0 ~ns:4 Trace.Access 7 2 (* retired: not UAF *);
  Trace.emit ~tid:0 ~ns:5 Trace.Free_slot 7 0;
  Trace.emit ~tid:1 ~ns:6 Trace.Access 7 0 (* freed: uaf_access *);
  Trace.emit ~tid:1 ~ns:7 Trace.Access 99 0 (* unknown slot: never flagged *);
  (* Bound 2, and slot 7 is already freed: the third concurrently
     retired slot crosses the bound, once (latched). *)
  Trace.emit ~tid:0 ~ns:8 Trace.Alloc_slot 1 0;
  Trace.emit ~tid:0 ~ns:9 Trace.Alloc_slot 2 0;
  Trace.emit ~tid:0 ~ns:10 Trace.Alloc_slot 3 0;
  Trace.emit ~tid:0 ~ns:11 Trace.Retire 1 0;
  Trace.emit ~tid:0 ~ns:12 Trace.Retire 2 0;
  Trace.emit ~tid:0 ~ns:13 Trace.Retire 3 0;
  Trace.emit ~tid:0 ~ns:14 Trace.Retire 3 0 (* dedup: no double count *);
  San.detach san;
  Alcotest.(check (list string))
    "one UAF, one latched garbage-bound"
    [ "uaf_access"; "garbage_bound" ]
    (rules_of san);
  match San.violations san with
  | [ uaf; _ ] ->
      Alcotest.(check int) "UAF blamed on the reader" 1 uaf.San.v_tid;
      Alcotest.(check int) "at the access timestamp" 6 uaf.San.v_ns;
      Alcotest.(check bool) "context captured" true (uaf.San.v_context <> [])
  | _ -> Alcotest.fail "expected exactly two findings"

let test_san_unguarded () =
  with_clean_globals @@ fun () ->
  let san = attach Neutralization in
  Trace.emit ~tid:0 ~ns:1 Trace.Begin_op 0 0;
  Trace.emit ~tid:0 ~ns:2 Trace.Access 4 1 (* before checkpoint: flagged *);
  Trace.emit ~tid:0 ~ns:3 Trace.Checkpoint_set 0 0;
  Trace.emit ~tid:0 ~ns:4 Trace.Access 4 1 (* in a read phase: fine *);
  Trace.emit ~tid:0 ~ns:5 Trace.Reservation_publish 1 0;
  Trace.emit ~tid:0 ~ns:6 Trace.Access 4 1 (* after publish: flagged *);
  Trace.emit ~tid:0 ~ns:7 Trace.End_op 0 0;
  San.detach san;
  Alcotest.(check (list string))
    "accesses outside the checkpointed phase flagged"
    [ "unguarded_access"; "unguarded_access" ]
    (rules_of san)

let test_san_handshake () =
  with_clean_globals @@ fun () ->
  (* Broken: victim keeps accessing after an unobserved signal, and the
     sender reclaims anyway. *)
  let san = attach Neutralization in
  Trace.emit ~tid:1 ~ns:1 Trace.Begin_op 0 0;
  Trace.emit ~tid:1 ~ns:2 Trace.Checkpoint_set 0 0;
  Trace.emit ~tid:0 ~ns:3 Trace.Signal_sent 1 0;
  Trace.emit ~tid:1 ~ns:4 Trace.Access 5 1;
  Trace.emit ~tid:0 ~ns:5 Trace.Reclaim 3 0;
  Trace.emit ~tid:1 ~ns:6 Trace.End_op 0 0;
  San.detach san;
  Alcotest.(check (list string))
    "reclaim past an unacknowledged signal flagged"
    [ "handshake_incomplete" ] (rules_of san);
  (* Honoured: the victim observes the signal (Neutralized) before the
     sender reclaims — same events otherwise, no finding. *)
  let san2 = attach Neutralization in
  Trace.emit ~tid:1 ~ns:1 Trace.Begin_op 0 0;
  Trace.emit ~tid:1 ~ns:2 Trace.Checkpoint_set 0 0;
  Trace.emit ~tid:0 ~ns:3 Trace.Signal_sent 1 0;
  Trace.emit ~tid:1 ~ns:4 Trace.Access 5 1;
  Trace.emit ~tid:1 ~ns:5 Trace.Neutralized 0 0;
  Trace.emit ~tid:0 ~ns:6 Trace.Reclaim 3 0;
  Trace.emit ~tid:1 ~ns:7 Trace.Checkpoint_set 0 0 (* restart re-arms *);
  Trace.emit ~tid:1 ~ns:8 Trace.End_op 0 0;
  San.detach san2;
  Alcotest.(check (list string)) "observed handshake is clean" []
    (rules_of san2)

(* ------------------------------------------------------------------ *)
(* Schedule explorer: a race-free scenario exhausts its bounded space
   with no finding.                                                    *)

let trivial_scenario () =
  Sim.set_config det_config;
  Sim.set_max_events 100_000;
  let x = Sim.make 0 and y = Sim.make 0 in
  (try
     Sim.run ~nthreads:2 (fun tid ->
         if tid = 0 then begin
           Sim.store x 1;
           ignore (Sim.load y)
         end
         else begin
           Sim.store y 1;
           ignore (Sim.load x)
         end)
   with Sim.Stuck _ -> ());
  None

let test_dfs_exhausts_clean () =
  with_clean_globals @@ fun () ->
  let r =
    Explore.dfs ~preemption_bound:1 ~max_schedules:500 ~nthreads:2
      ~run:trivial_scenario ()
  in
  Alcotest.(check bool) "no violation" true (r.Explore.r_violation = None);
  Alcotest.(check bool) "explored several schedules" true (r.r_schedules > 1);
  Alcotest.(check bool) "bounded space exhausted before the cap" true
    (r.r_schedules < 500)

(* ------------------------------------------------------------------ *)
(* Negative: unsafe-free.  The foil frees on retire with no protection;
   a single preemption lets the writer free a still-linked record
   between the reader starting its operation and traversing.           *)

module U = Nbr_core.Unsafe_free.Make (Sim)

let unsafe_free_scenario () =
  Sim.set_config det_config;
  Sim.set_max_events 500_000;
  let pool = P.create ~capacity:32 ~data_fields:1 ~ptr_fields:1 ~nthreads:2 () in
  let smr = U.create pool ~nthreads:2 Nbr_core.Smr_config.default in
  let root = P.alloc pool in
  P.set_ptr pool root 0 P.nil;
  let c0 = U.register smr ~tid:0 and c1 = U.register smr ~tid:1 in
  let san =
    San.attach
      {
        San.protection = Nbr_core.Unsafe_free.descriptor.protection;
        nthreads = 2;
        garbage_bound = None;
      }
  in
  (try
     Sim.run ~nthreads:2 (fun tid ->
         if tid = 0 then begin
           (* Reader: root, then one hop. *)
           U.begin_op c0;
           U.read_only c0 { U.view = (fun _ ->
               let a = U.read_ptr c0 ~src:root ~field:0 in
               if a >= 0 then ignore (U.read_ptr c0 ~src:a ~field:0)) };
           U.end_op c0
         end
         else begin
           (* Writer: publish A -> B, then free B while still linked. *)
           U.begin_op c1;
           let a = U.alloc c1 in
           let b = U.alloc c1 in
           P.set_ptr pool a 0 b;
           P.set_ptr pool root 0 a;
           U.end_op c1;
           U.begin_op c1;
           U.retire c1 b;
           U.end_op c1
         end)
   with Sim.Stuck _ -> ());
  San.detach san;
  if Trace.enabled () then Trace.disable ();
  verdict san

let test_unsafe_free_negative () =
  with_clean_globals @@ fun () ->
  let r =
    Explore.dfs ~preemption_bound:1 ~nthreads:2 ~run:unsafe_free_scenario ()
  in
  match r.Explore.r_violation with
  | None ->
      Alcotest.failf "no violation in %d schedules of an unsafe scheme"
        r.r_schedules
  | Some (desc, cert) ->
      Alcotest.(check bool) "flagged as a UAF access" true
        (contains desc "uaf_access");
      Alcotest.(check bool) "took more than the sequential schedule" true
        (r.r_schedules > 1);
      (* The certificate survives its own wire format, and replaying it
         reproduces the identical findings, byte for byte, twice. *)
      let cert = Cert.of_string (Cert.to_string cert) in
      let r1 = Explore.replay cert ~run:unsafe_free_scenario in
      let r2 = Explore.replay cert ~run:unsafe_free_scenario in
      Alcotest.(check (option string)) "replay reproduces" (Some desc) r1;
      Alcotest.(check (option string)) "replay is deterministic" r1 r2

(* ------------------------------------------------------------------ *)
(* Negative: leaky breaches a configured garbage bound on any schedule
   (PCT finds it on its first), and the certificate replays.           *)

module Lk = Nbr_core.Leaky.Make (Sim)

let leaky_scenario () =
  Sim.set_config det_config;
  Sim.set_max_events 500_000;
  let pool = P.create ~capacity:64 ~data_fields:1 ~ptr_fields:1 ~nthreads:2 () in
  let smr = Lk.create pool ~nthreads:2 Nbr_core.Smr_config.default in
  let c0 = Lk.register smr ~tid:0 and c1 = Lk.register smr ~tid:1 in
  let san =
    San.attach
      {
        San.protection = Nbr_core.Leaky.descriptor.protection;
        nthreads = 2;
        garbage_bound = Some 4;
      }
  in
  (try
     Sim.run ~nthreads:2 (fun tid ->
         if tid = 0 then begin
           Lk.begin_op c0;
           for _ = 1 to 8 do
             Lk.retire c0 (Lk.alloc c0)
           done;
           Lk.end_op c0
         end
         else begin
           Lk.begin_op c1;
           Lk.retire c1 (Lk.alloc c1);
           Lk.end_op c1
         end)
   with Sim.Stuck _ -> ());
  San.detach san;
  if Trace.enabled () then Trace.disable ();
  verdict san

let test_leaky_negative () =
  with_clean_globals @@ fun () ->
  let r =
    Explore.pct ~schedules:2 ~seed:3 ~nthreads:2 ~run:leaky_scenario ()
  in
  match r.Explore.r_violation with
  | None -> Alcotest.fail "leaky never breached its garbage bound"
  | Some (desc, cert) ->
      Alcotest.(check bool) "flagged as a garbage-bound breach" true
        (contains desc "garbage_bound");
      let cert = Cert.of_string (Cert.to_string cert) in
      let r1 = Explore.replay cert ~run:leaky_scenario in
      let r2 = Explore.replay cert ~run:leaky_scenario in
      Alcotest.(check (option string)) "replay reproduces" (Some desc) r1;
      Alcotest.(check (option string)) "replay is deterministic" r1 r2

(* ------------------------------------------------------------------ *)
(* Regression: the PR 4 IBR frozen-link bug, re-found from first
   principles.  With [unsafe_ibr_no_validate] (ablation A3) the era
   ratchet returns the frozen link of a retired source, which can name a
   record born after the reader's announced upper bound and already
   swept.  One preemption: the reader resolves the root, the writer
   replaces and retires everything (epoch_freq/bag_threshold 1 make
   every retire sweep), the reader follows the frozen link.            *)

module I = Nbr_core.Ibr.Make (Sim)

let ibr_scenario ~validate () =
  Sim.set_config det_config;
  Sim.set_max_events 500_000;
  let pool = P.create ~capacity:32 ~data_fields:1 ~ptr_fields:1 ~nthreads:2 () in
  let scfg =
    {
      Nbr_core.Smr_config.default with
      epoch_freq = 1;
      bag_threshold = 1;
      lo_watermark = 1;
      unsafe_ibr_no_validate = not validate;
    }
  in
  let smr = I.create pool ~nthreads:2 scfg in
  let root = P.alloc pool in
  let c0 = I.register smr ~tid:0 and c1 = I.register smr ~tid:1 in
  (* Prefill (outside the fibers): one record A published at the root. *)
  let a = I.alloc c1 in
  P.set_ptr pool a 0 P.nil;
  P.set_ptr pool root 0 a;
  let san =
    San.attach
      {
        San.protection = Nbr_core.Ibr.descriptor.protection;
        nthreads = 2;
        garbage_bound = None;
      }
  in
  (try
     Sim.run ~nthreads:2 (fun tid ->
         if tid = 0 then begin
           (* Reader: root, then one hop — the hop follows A's link. *)
           I.begin_op c0;
           I.read_only c0 { I.view = (fun _ ->
               let x = I.read_ptr c0 ~src:root ~field:0 in
               if x >= 0 then ignore (I.read_ptr c0 ~src:x ~field:0)) };
           I.end_op c0
         end
         else begin
           (* Writer: replace A with C and retire both.  A stays pinned
              by the reader's interval with its link frozen at C; C is
              born after the reader's upper bound, so the sweep frees
              it. *)
           I.begin_op c1;
           let c = I.alloc c1 in
           P.set_ptr pool c 0 P.nil;
           P.set_ptr pool a 0 c;
           P.set_ptr pool root 0 c;
           I.retire c1 a;
           P.set_ptr pool root 0 P.nil;
           I.retire c1 c;
           I.end_op c1
         end)
   with Sim.Stuck _ -> ());
  San.detach san;
  if Trace.enabled () then Trace.disable ();
  verdict san

let test_ibr_regression () =
  with_clean_globals @@ fun () ->
  let r =
    Explore.dfs ~preemption_bound:1 ~nthreads:2
      ~run:(ibr_scenario ~validate:false)
      ()
  in
  match r.Explore.r_violation with
  | None ->
      Alcotest.failf "DFS did not re-find the IBR frozen-link bug (%d schedules)"
        r.r_schedules
  | Some (desc, cert) ->
      Alcotest.(check bool) "frozen link read as a UAF access" true
        (contains desc "uaf_access");
      let cert = Cert.of_string (Cert.to_string cert) in
      let r1 = Explore.replay cert ~run:(ibr_scenario ~validate:false) in
      let r2 = Explore.replay cert ~run:(ibr_scenario ~validate:false) in
      Alcotest.(check (option string)) "replay reproduces" (Some desc) r1;
      Alcotest.(check (option string)) "replay is deterministic" r1 r2;
      (* The PR 4 fix: the same schedule with source validation on
         neutralizes the reader instead of handing it the frozen link. *)
      Alcotest.(check (option string)) "validation closes the window" None
        (Explore.replay cert ~run:(ibr_scenario ~validate:true))

(* ------------------------------------------------------------------ *)
(* Ablation A4: generation checks off.  A validated read through a
   stale handle then *commits* the recycled slot's memory — a raw UAF
   traced as an [Access] the sanitizer convicts.  With checks on (the
   default; schemes wire [Smr_config.unsafe_no_generation_check] to
   [P.set_generation_check] at create) the same schedule surfaces as a
   typed [Stale] refusal: no freed memory crosses over, no finding.    *)

let gen_check_scenario ~gen_check () =
  Sim.set_config det_config;
  Sim.set_max_events 500_000;
  let pool = P.create ~capacity:16 ~data_fields:1 ~ptr_fields:1 ~nthreads:2 () in
  P.set_generation_check pool gen_check;
  let root = Sim.make P.nil in
  let san =
    San.attach { San.protection = Epoch; nthreads = 2; garbage_bound = None }
  in
  (try
     Sim.run ~nthreads:2 (fun tid ->
         if tid = 0 then begin
           (* Reader: pick up the published handle, then read through it
              with no protection at all — the knob alone decides whether
              the read can commit freed memory. *)
           let a = Sim.load root in
           if a >= 0 then
             match P.read_data pool a 0 with
             | _ -> ()
             | exception P.Stale _ -> ()
         end
         else begin
           (* Writer: publish A, free it, recycle the slot (same index,
              bumped generation) so the reader's handle goes stale. *)
           let a = P.alloc pool in
           P.set_data pool a 0 1;
           Sim.store root a;
           P.free pool a;
           let b = P.alloc pool in
           P.set_data pool b 0 2;
           P.free pool b
         end)
   with Sim.Stuck _ -> ());
  San.detach san;
  if Trace.enabled () then Trace.disable ();
  verdict san

let test_gen_check_ablation () =
  with_clean_globals @@ fun () ->
  let r =
    Explore.dfs ~preemption_bound:1 ~nthreads:2
      ~run:(gen_check_scenario ~gen_check:false)
      ()
  in
  match r.Explore.r_violation with
  | None ->
      Alcotest.failf "DFS did not catch the unchecked stale read (%d schedules)"
        r.r_schedules
  | Some (desc, cert) ->
      Alcotest.(check bool) "committed stale read is a UAF access" true
        (contains desc "uaf_access");
      let cert = Cert.of_string (Cert.to_string cert) in
      let r1 = Explore.replay cert ~run:(gen_check_scenario ~gen_check:false) in
      let r2 = Explore.replay cert ~run:(gen_check_scenario ~gen_check:false) in
      Alcotest.(check (option string)) "replay reproduces" (Some desc) r1;
      Alcotest.(check (option string)) "replay is deterministic" r1 r2;
      (* The tentpole invariant: the identical schedule with generation
         checks on fails type-safely instead. *)
      Alcotest.(check (option string)) "generation check closes the window"
        None
        (Explore.replay cert ~run:(gen_check_scenario ~gen_check:true))

(* ------------------------------------------------------------------ *)
(* Positive: every supported safe scheme × structure pair runs a tiny
   trial under a PCT schedule with the sanitizer attached and produces
   zero findings (and a valid trial).                                  *)

module H = Nbr_workload.Harness.Make (Sim)

let smoke_scenario ~scheme ~structure () =
  Sim.set_config det_config;
  Sim.set_max_events 5_000_000;
  let cfg =
    Nbr_workload.Trial.Cfg.make ~nthreads:2 ~duration_ns:20_000 ~key_range:16
      ~seed:11 ()
  in
  let san =
    San.attach
      {
        San.protection =
          (Nbr_workload.Registry.find_exn scheme).r_desc.protection;
        nthreads = 2;
        (* The sanitizer's count is pool-wide; the trial bound is
           per-thread.  Scale and add headroom — the negative tests
           cover tightness, this guards against unbounded blowup. *)
        garbage_bound =
          Some
            (4
            * Nbr_core.Smr_config.garbage_bound cfg.smr
                ~threads:cfg.nthreads ~live:cfg.key_range);
      }
  in
  let result =
    try Some (H.run ~scheme ~structure cfg) with Sim.Stuck _ -> None
  in
  (* A schedule that starves a lock holder (PCT keeps running the
     spinner) hits the event budget mid-operation: protocol findings up
     to the truncation point stand, but detach's still-inside-an-op
     report is an artifact of the cut, not a bug. *)
  let runtime_verdict = verdict san in
  San.detach san;
  if Trace.enabled () then Trace.disable ();
  match result with
  | None -> runtime_verdict
  | Some r -> (
      match verdict san with
      | Some v -> Some v
      | None ->
          if Nbr_workload.Trial.valid r then None else Some "trial invalid")

let run_smoke scheme structure () =
  with_clean_globals @@ fun () ->
  let r =
    Explore.pct ~schedules:1 ~seed:17 ~nthreads:2
      ~run:(smoke_scenario ~scheme ~structure)
      ()
  in
  match r.Explore.r_violation with
  | None -> ()
  | Some (desc, cert) ->
      Alcotest.failf "%s/%s under %s:\n%s" scheme structure
        (Cert.to_string cert) desc

let safe_schemes = [ "nbr"; "nbr+"; "debra"; "qsbr"; "rcu"; "ibr"; "hp"; "he" ]

let smoke_tests =
  List.concat_map
    (fun scheme ->
      List.filter_map
        (fun structure ->
          if Nbr_workload.Registry.supported ~scheme ~structure then
            Some
              (Alcotest.test_case
                 (Printf.sprintf "swarm smoke %s/%s" scheme structure)
                 `Quick (run_smoke scheme structure))
          else None)
        Nbr_workload.Registry.structure_names)
    safe_schemes

(* ------------------------------------------------------------------ *)
(* An operation whose body raises still ends.  Kv.Service absorbs a
   pool exhaustion raised by a write phase's allocation and carries on
   with the thread; the scheme's operation end must have run by then.
   Under QSBR it flips the thread's counter back to even: skipped, the
   next operation start leaves the counter even — "quiescent" — for a
   whole operation of reads, and a peer's grace period can free what
   the thread traverses.  HP covers the schemes whose operation end
   retracts published protection.                                      *)

module Raising_op (S : Nbr_core.Smr_intf.S with type pool = P.t) = struct
  module L = Nbr_ds.Lazy_list.Make (Sim) (S)

  let test () =
    with_clean_globals @@ fun () ->
    Sim.set_config det_config;
    let pool =
      P.create ~capacity:8 ~data_fields:L.data_fields ~ptr_fields:L.ptr_fields
        ~nthreads:1 ()
    in
    let smr = S.create pool ~nthreads:1 Nbr_core.Smr_config.default in
    let l = L.create pool in
    let c = S.register smr ~tid:0 in
    let san =
      San.attach
        {
          San.protection =
            (Nbr_workload.Registry.find_exn S.scheme_name).r_desc.protection;
          nthreads = 1;
          garbage_bound = None;
        }
    in
    let exhausted = ref false in
    Sim.run ~nthreads:1 (fun _ ->
        (try
           for k = 1 to 64 do
             ignore (L.insert l c k)
           done
         with P.Exhausted _ -> exhausted := true);
        ignore (L.contains l c 1));
    San.detach san;
    Alcotest.(check bool) "an insert ran the pool dry" true !exhausted;
    Alcotest.(check (option string)) "sanitizer silent" None (verdict san)
end

module Raising_qsbr = Raising_op (Nbr_core.Qsbr.Make (Sim))
module Raising_hp = Raising_op (Nbr_core.Hp.Make (Sim))

(* ------------------------------------------------------------------ *)
(* A write phase whose allocation raises releases the window's locks
   and frees what it allocated but never published.  Kv.Service absorbs
   the [Exhausted] and retries the put; with a lock left held the retry
   spins on it forever ([Pool.lock] is not reentrant).  Each locking
   structure fills a small pool to exhaustion behind a reserve of raw
   slots, gets the reserve back, and retries the failed insert: it must
   take the same locks and finish under the event budget.  Three
   capacities move the failure across the allocations of one insert
   (the DGT tree's leaf then router, the (a,b)-tree's split).          *)

module NP = Nbr_core.Nbr_plus.Make (Sim)

module type LOCKING = sig
  type t

  val name : string
  val data_fields : int
  val ptr_fields : int
  val max_reservations : int
  val create : P.t -> t
  val insert : t -> NP.ctx -> int -> bool
end

let reserve = 4

(* One run: how many allocations the failed insert got before the one
   that raised. *)
let exhausted_insert (module D : LOCKING) capacity =
  with_clean_globals @@ fun () ->
  Sim.set_config det_config;
  Sim.set_max_events 200_000;
  let pool =
    P.create ~capacity:(capacity + reserve) ~data_fields:D.data_fields
      ~ptr_fields:D.ptr_fields ~nthreads:1 ()
  in
  let smr =
    NP.create pool ~nthreads:1
      {
        Nbr_core.Smr_config.default with
        max_reservations = D.max_reservations;
      }
  in
  let d = D.create pool in
  let c = NP.register smr ~tid:0 in
  let held = List.init reserve (fun _ -> P.alloc pool) in
  let san =
    San.attach
      {
        San.protection = Nbr_core.Nbr_plus.descriptor.protection;
        nthreads = 1;
        garbage_bound = None;
      }
  in
  let in_use () = (P.stats pool).P.s_in_use in
  let failed = ref None and retried = ref false in
  Sim.run ~nthreads:1 (fun _ ->
      (* Free the garbage before each insert, so that every slot in use
         when one fails is reachable or its own. *)
      let rec fill k =
        NP.op c (fun _ -> NP.on_pressure c);
        let before = in_use () in
        match D.insert d c k with
        | _ -> fill (k + 1)
        | exception P.Exhausted _ -> failed := Some (k, before, in_use ())
      in
      fill 1;
      match !failed with
      | None -> ()
      | Some (k, _, _) ->
          List.iter (P.free pool) held;
          retried := D.insert d c k);
  San.detach san;
  let what = Printf.sprintf "%s, capacity %d" D.name capacity in
  match !failed with
  | None -> Alcotest.failf "%s: no insert ran the pool dry" what
  | Some (_, before, after) ->
      Alcotest.(check bool) (what ^ ": the retried insert finished") true
        !retried;
      Alcotest.(check (option string)) (what ^ ": sanitizer silent") None
        (verdict san);
      Alcotest.(check int) (what ^ ": the failed insert kept no slot") before
        after;
      capacity + reserve - before

let test_exhausted_insert ?(mid = false) d () =
  let got = List.map (exhausted_insert d) [ 12; 13; 14 ] in
  if mid then
    Alcotest.(check bool) "a failure came after an allocation that held" true
      (List.exists (fun n -> n > 0) got)

(* ------------------------------------------------------------------ *)
(* Refusal certificates.  Each pair the registry refuses (paper P5) is
   built here past the harness's refusal, and a committed certificate
   replays the use-after-free it allows.  The reader and the writer each
   run a script of set operations; a certificate preempts the reader,
   runs the writer, then resumes the reader.  Every retire sweeps (bag
   threshold 1), every allocation moves the era, and the scheme is
   configured with the structure's reservations, as the harness does.

   [frozen_link] (IBR, raw traversal): the reader stops on node 10
   inside its interval.  The writer inserts 15 behind it, deletes 10
   (pinned by that interval, its mark-tagged link frozen at 15), deletes
   15 and sweeps it with a later retire: 15 was born after the interval.
   The reader's [read_raw] of the frozen link ratchets its era but
   cannot validate, and it reads the freed node's key.

   [unprotected_hop] (HP, HE, raw traversal): [read_raw] publishes no
   hazard, so the reader, stopped between reading 10's link to 40 and
   following it, follows it after the writer deleted and swept 40.

   [long_descent] (HP, rotating window): 2 is the one prefilled key of
   level 2 or more, so the reader's insert of 45 (level 2) takes 2 as
   its level-1 predecessor and then walks the 21 level-1 nodes: 23 more
   reads than the hazard pointing at 2, and the window holds
   [max_reservations + 2] = 19.  Stopped at the end of its read phase,
   the reader resumes after the writer deleted and swept 2, and its
   write phase reads the freed 2's key to lock it.

   [era_moves] (HE, rotating window): an era slot protects 2 as long as
   the era has not moved past 2's retirement, so [long_descent] alone is
   clean under HE on every one-preemption schedule.  Three preemptions
   break it: the writer deletes 2 right after the reader read it, and
   inserts 3, which moves the era; the reader's remaining reads then
   publish only later eras; the writer's delete of 3 sweeps 2; and the
   reader's write phase reads the freed 2's key.  Its certificate was
   found by scanning the three switch points. *)

module type SET = sig
  type t
  type ctx

  val data_fields : int
  val ptr_fields : int
  val max_reservations : int
  val create : P.t -> t
  val insert : t -> ctx -> int -> bool
  val delete : t -> ctx -> int -> bool
  val contains : t -> ctx -> int -> bool
end

type step = Ins of int | Del of int | Has of int
type script = { prefill : int list; reader : step list; writer : step list }

let frozen_link =
  {
    prefill = [ 10 ];
    reader = [ Has 20 ];
    writer = [ Ins 15; Del 10; Del 15; Ins 30; Del 30 ];
  }

let unprotected_hop =
  { prefill = [ 10; 40 ]; reader = [ Del 50 ]; writer = [ Del 40 ] }

let long_descent =
  {
    prefill =
      [ 2; 4; 7; 8; 10; 11; 13; 14; 17; 20; 23; 24; 26; 27; 30; 33; 36; 37;
        39; 40; 42; 43 ];
    reader = [ Ins 45 ];
    writer = [ Del 2 ];
  }

let era_moves = { long_descent with writer = [ Del 2; Ins 3; Del 3 ] }

module Scripted
    (S : Nbr_core.Smr_intf.S with type pool = P.t)
    (D : SET with type ctx = S.ctx) =
struct
  let scenario sc () =
    Sim.set_config det_config;
    Sim.set_max_events 20_000;
    let pool =
      P.create ~capacity:64 ~data_fields:D.data_fields
        ~ptr_fields:D.ptr_fields ~nthreads:2 ()
    in
    let smr =
      S.create pool ~nthreads:2
        {
          Nbr_core.Smr_config.default with
          max_reservations = D.max_reservations;
          epoch_freq = 1;
          bag_threshold = 1;
          lo_watermark = 1;
        }
    in
    let d = D.create pool in
    let c0 = S.register smr ~tid:0 and c1 = S.register smr ~tid:1 in
    List.iter (fun k -> ignore (D.insert d c1 k)) sc.prefill;
    let san =
      San.attach
        {
          San.protection =
            (Nbr_workload.Registry.find_exn S.scheme_name).r_desc.protection;
          nthreads = 2;
          garbage_bound = None;
        }
    in
    let run c =
      List.iter (function
        | Ins k -> ignore (D.insert d c k)
        | Del k -> ignore (D.delete d c k)
        | Has k -> ignore (D.contains d c k))
    in
    (* A preemption that parks a thread holding a record lock leaves the
       other spinning until the event cap, and a [Neutralized] that
       escapes its read phase ends the run: the operations either cuts
       short are not findings.  The escape itself is one. *)
    let cut, escaped =
      try
        Sim.run ~nthreads:2 (fun tid ->
            if tid = 0 then run c0 sc.reader else run c1 sc.writer);
        (false, false)
      with
      | Sim.Stuck _ -> (true, false)
      | Sim.Neutralized -> (true, true)
    in
    San.detach san;
    if Trace.enabled () then Trace.disable ();
    let found =
      List.filter_map
        (fun v ->
          if cut && v.San.v_rule = "unbalanced_op" then None
          else Some (San.violation_to_string v))
        (San.violations san)
      @ if escaped then [ "Neutralized escaped the read phase" ] else []
    in
    if found = [] then None else Some (String.concat "\n" found)
end

module Harris (S : Nbr_core.Smr_intf.S with type pool = P.t) = struct
  type ctx = S.ctx

  include Nbr_ds.Harris_list.Make (Sim) (S)
end

(* One bucket: the whole set is one Harris list. *)
module Hash (S : Nbr_core.Smr_intf.S with type pool = P.t) = struct
  type ctx = S.ctx

  include Nbr_ds.Hash_set.Make (Sim) (S)

  let create pool = create ~buckets:1 pool
end

module Skip (S : Nbr_core.Smr_intf.S with type pool = P.t) = struct
  type ctx = S.ctx

  include Nbr_ds.Skip_list.Make (Sim) (S)
end

module Hp = Nbr_core.Hp.Make (Sim)
module He = Nbr_core.Hazard_eras.Make (Sim)

let refused_case pair cert run =
  Alcotest.test_case
    (Printf.sprintf "refused %s: certificate replays a UAF" pair)
    `Quick
    (fun () ->
      with_clean_globals @@ fun () ->
      let cert = Cert.of_string cert in
      let r1 = Explore.replay cert ~run in
      Alcotest.(check bool) "replay reads a freed record: uaf_access" true
        (match r1 with Some d -> contains d "uaf_access" | None -> false);
      Alcotest.(check (option string)) "replay is deterministic" r1
        (Explore.replay cert ~run))

let era_moves_cert = "nbr-cert/1;scan;2;2;1;7;44x0,200x1,116x0,171x1,261x0"

let refused_cases =
  let module Ibr_harris = Scripted (I) (Harris (I)) in
  let module Hp_harris = Scripted (Hp) (Harris (Hp)) in
  let module He_harris = Scripted (He) (Harris (He)) in
  let module Ibr_hash = Scripted (I) (Hash (I)) in
  let module Hp_hash = Scripted (Hp) (Hash (Hp)) in
  let module He_hash = Scripted (He) (Hash (He)) in
  let module Hp_skip = Scripted (Hp) (Skip (Hp)) in
  let module He_skip = Scripted (He) (Skip (He)) in
  let frozen = "nbr-cert/1;dfs;2;2;1;7;9x0,113x1,10x0" in
  [
    refused_case "ibr/harris-list" frozen (Ibr_harris.scenario frozen_link);
    refused_case "ibr/hash-set" frozen (Ibr_hash.scenario frozen_link);
    refused_case "hp/harris-list" "nbr-cert/1;dfs;2;2;1;7;4x0,21x1,14x0"
      (Hp_harris.scenario unprotected_hop);
    refused_case "hp/hash-set" "nbr-cert/1;dfs;2;2;1;7;4x0,21x1,14x0"
      (Hp_hash.scenario unprotected_hop);
    refused_case "he/harris-list" "nbr-cert/1;dfs;2;2;1;7;4x0,30x1,14x0"
      (He_harris.scenario unprotected_hop);
    refused_case "he/hash-set" "nbr-cert/1;dfs;2;2;1;7;4x0,30x1,14x0"
      (He_hash.scenario unprotected_hop);
    refused_case "hp/skip-list" "nbr-cert/1;dfs;2;2;1;7;215x0,119x1,262x0"
      (Hp_skip.scenario long_descent);
    refused_case "he/skip-list" era_moves_cert (He_skip.scenario era_moves);
  ]

(* The scripts convict the scheme, not themselves: under NBR+ every
   one-preemption schedule of each is clean, and so is the three-switch
   schedule of [era_moves]. *)
let test_refusal_scripts_clean_under_nbr_plus () =
  let module Np_harris = Scripted (NP) (Harris (NP)) in
  let module Np_skip = Scripted (NP) (Skip (NP)) in
  List.iter
    (fun run ->
      with_clean_globals @@ fun () ->
      let r = Explore.dfs ~preemption_bound:1 ~nthreads:2 ~run () in
      Alcotest.(check (option string)) "no finding" None
        (Option.map fst r.Explore.r_violation))
    [
      Np_harris.scenario frozen_link; Np_harris.scenario unprotected_hop;
      Np_skip.scenario long_descent; Np_skip.scenario era_moves;
    ];
  with_clean_globals @@ fun () ->
  Alcotest.(check (option string)) "three switches, no finding" None
    (Explore.replay (Cert.of_string era_moves_cert)
       ~run:(Np_skip.scenario era_moves))

module Lazy_np = Nbr_ds.Lazy_list.Make (Sim) (NP)
module Skip_np = Nbr_ds.Skip_list.Make (Sim) (NP)
module Dgt_np = Nbr_ds.Dgt_bst.Make (Sim) (NP)
module Ab_np = Nbr_ds.Ab_tree.Make (Sim) (NP)

let suite =
  [
    Alcotest.test_case "certificate round-trip" `Quick test_cert_roundtrip;
    Alcotest.test_case "certificate malformed" `Quick test_cert_malformed;
    Alcotest.test_case "sanitizer unbalanced ops" `Quick test_san_unbalanced;
    Alcotest.test_case "sanitizer UAF + garbage bound" `Quick
      test_san_uaf_and_garbage;
    Alcotest.test_case "sanitizer unguarded access" `Quick test_san_unguarded;
    Alcotest.test_case "sanitizer writers' handshake" `Quick test_san_handshake;
    Alcotest.test_case "dfs exhausts a clean scenario" `Quick
      test_dfs_exhausts_clean;
    Alcotest.test_case "negative: unsafe-free UAF + replay" `Quick
      test_unsafe_free_negative;
    Alcotest.test_case "negative: leaky garbage bound + replay" `Quick
      test_leaky_negative;
    Alcotest.test_case "regression: IBR frozen link (A3) + replay" `Quick
      test_ibr_regression;
    Alcotest.test_case "ablation: unchecked stale read (A4) + replay" `Quick
      test_gen_check_ablation;
  ]
  @ smoke_tests
  @ [
      Alcotest.test_case "qsbr: a raising operation still ends" `Quick
        Raising_qsbr.test;
      Alcotest.test_case "hp: a raising operation still ends" `Quick
        Raising_hp.test;
      Alcotest.test_case "lazy list: exhausted insert unlocks" `Quick
        (test_exhausted_insert (module Lazy_np));
      Alcotest.test_case "skip list: exhausted insert unlocks" `Quick
        (test_exhausted_insert (module Skip_np));
      Alcotest.test_case "dgt tree: exhausted insert unlocks" `Quick
        (test_exhausted_insert ~mid:true (module Dgt_np));
      Alcotest.test_case "ab-tree: exhausted insert unlocks" `Quick
        (test_exhausted_insert ~mid:true (module Ab_np));
    ]
  @ refused_cases
  @ [
      Alcotest.test_case "refusal scripts clean under nbr+" `Quick
        test_refusal_scripts_clean_under_nbr_plus;
    ]
