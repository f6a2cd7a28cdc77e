(* Scheme-level unit tests: the handshakes and bookkeeping of each
   reclamation algorithm, exercised directly against the pool (no data
   structure in the way). *)

module Sim = Nbr_runtime.Sim_rt
module P = Nbr_pool.Pool.Make (Sim)

let cfg threshold =
  Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default threshold

let mk_pool ?(capacity = 4096) ?(nthreads = 2) () =
  P.create ~capacity ~data_fields:1 ~ptr_fields:1 ~nthreads ()

(* ------------------------------------------------------------------ *)
(* NBR: reservations protect records across reclamation events.        *)

module N = Nbr_core.Nbr.Make (Sim)

let test_nbr_reservation_protects () =
  let pool = mk_pool () in
  let smr = N.create pool ~nthreads:2 (cfg 8) in
  let c0 = N.register smr ~tid:0 and c1 = N.register smr ~tid:1 in
  let shared = Sim.make P.nil in
  let protected_slot = ref (-1) in
  Sim.run ~nthreads:2 (fun tid ->
      if tid = 1 then begin
        (* Reserve one record and sit in a write phase while thread 0
           retires that very record and churns through many reclamation
           events: the reservation (writers' handshake) must keep the
           slot unfreed throughout. *)
        N.begin_op c1;
        let slot = N.alloc c1 in
        protected_slot := slot;
        N.phase c1
          ~read:{ N.read = (fun _ -> ((), [| slot |])) }
          ~write:{ N.write = (fun _ () ->
            Sim.store shared slot;
            let spin = Sim.make 0 in
            for _ = 1 to 4_000 do
              ignore (Sim.load spin)
            done) };
        N.end_op c1
      end
      else begin
        N.begin_op c0;
        let rec wait () = if Sim.load shared = P.nil then wait () in
        wait ();
        (* Retire the reserved record on the reclaimer side, then churn. *)
        N.retire c0 (Sim.load shared);
        for _ = 1 to 100 do
          let s = N.alloc c0 in
          N.retire c0 s
        done;
        N.end_op c0
      end);
  (* Reservations persist until the next read phase clears them, so the
     slot can never have been freed (a free bumps the seqno). *)
  Alcotest.(check int) "reserved slot never recycled" 0
    (P.seqno pool !protected_slot);
  Alcotest.(check int) "no UAF" 0 (P.stats pool).P.s_uaf_reads

let test_nbr_reclaims_at_threshold () =
  let pool = mk_pool ~nthreads:1 () in
  let smr = N.create pool ~nthreads:1 (cfg 16) in
  let c = N.register smr ~tid:0 in
  Sim.run ~nthreads:1 (fun _ ->
      for _ = 1 to 100 do
        let s = N.alloc c in
        N.retire c s
      done);
  let st = N.stats smr in
  Alcotest.(check bool)
    (Printf.sprintf "reclaim events happened (%d)" (Nbr_core.Smr_stats.reclaim_events st))
    true ((Nbr_core.Smr_stats.reclaim_events st) >= 5);
  Alcotest.(check bool)
    (Printf.sprintf "most records freed (%d/100)" (Nbr_core.Smr_stats.freed st))
    true
    ((Nbr_core.Smr_stats.freed st) >= 64)

let test_nbr_neutralizes_readers () =
  let pool = mk_pool () in
  let smr = N.create pool ~nthreads:2 (cfg 4) in
  let c0 = N.register smr ~tid:0 and c1 = N.register smr ~tid:1 in
  let restarted = ref 0 in
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
        restarted := !attempts - 1;
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
  Alcotest.(check bool)
    (Printf.sprintf "reader neutralized (%d restarts)" !restarted)
    true (!restarted >= 1)

(* ------------------------------------------------------------------ *)
(* NBR+: RGP detection allows signal-free reclamation.                 *)

module NP = Nbr_core.Nbr_plus.Make (Sim)

let test_nbrp_lo_watermark_reclaims_without_signalling () =
  let pool = mk_pool () in
  let smr = NP.create pool ~nthreads:2 (cfg 64) in
  let c0 = NP.register smr ~tid:0 and c1 = NP.register smr ~tid:1 in
  Sim.run ~nthreads:2 (fun tid ->
      let c = if tid = 0 then c0 else c1 in
      (* Thread 0 churns hard (many HiWm broadcasts); thread 1 retires
         slowly, crossing only its LoWatermark, and should piggyback on
         thread 0's RGPs. *)
      let iters = if tid = 0 then 2_000 else 45 in
      for _ = 1 to iters do
        let s = NP.alloc c in
        NP.retire c s;
        if tid = 1 then begin
          let spin = Sim.make 0 in
          for _ = 1 to 50 do
            ignore (Sim.load spin)
          done
        end
      done);
  let st = NP.stats smr in
  Alcotest.(check bool)
    (Printf.sprintf "LoWatermark reclaims happened (%d)" (Nbr_core.Smr_stats.lo_reclaims st))
    true ((Nbr_core.Smr_stats.lo_reclaims st) >= 1)

let test_nbrp_signals_fewer_than_nbr () =
  (* Same retire-churn workload under NBR and NBR+: the + variant must
     send measurably fewer signals (the O(n²) -> O(n) claim of §5). *)
  (* Threads must be phase-desynchronized: in lockstep everyone reaches
     the HiWatermark simultaneously and nobody can piggyback on anyone
     else's grace period (also true of the real algorithm — NBR+ pays off
     when threads cross their watermarks at different moments, which any
     real workload guarantees).  Stagger thread start phases by a fraction
     of the broadcast period and add per-retire jitter. *)
  let spin_cell = Sim.make 0 in
  let pace rng _tid =
    for _ = 1 to Nbr_sync.Rng.below rng 400 do
      ignore (Sim.load spin_cell)
    done
  in
  let stagger tid = Sim.work (tid * 11_000) in
  let sig_nbr =
    let pool = mk_pool ~capacity:16_384 ~nthreads:4 () in
    let smr = N.create pool ~nthreads:4 (cfg 32) in
    let ctxs = Array.init 4 (fun tid -> N.register smr ~tid) in
    Sim.run ~nthreads:4 (fun tid ->
        let c = ctxs.(tid) in
        let rng = Nbr_sync.Rng.for_thread ~seed:77 ~tid in
        stagger tid;
        for _ = 1 to 1_000 do
          let s = N.alloc c in
          N.retire c s;
          pace rng tid
        done);
    Sim.signals_sent ()
  in
  let sig_nbrp =
    let pool = mk_pool ~capacity:16_384 ~nthreads:4 () in
    (* scan_period = 1: Algorithm 2 verbatim (scan on every retire past
       the LoWatermark). *)
    (* Algorithm 2 verbatim (scan every retire) with the paper's
       quarter-full LoWatermark, which widens the RGP detection window. *)
    let smr =
      NP.create pool ~nthreads:4
        { (cfg 32) with scan_period = 1; lo_watermark = 8 }
    in
    let ctxs = Array.init 4 (fun tid -> NP.register smr ~tid) in
    Sim.run ~nthreads:4 (fun tid ->
        let c = ctxs.(tid) in
        let rng = Nbr_sync.Rng.for_thread ~seed:77 ~tid in
        stagger tid;
        for _ = 1 to 1_000 do
          let s = NP.alloc c in
          NP.retire c s;
          pace rng tid
        done);
    (Sim.signals_sent (), NP.stats smr)
  in
  let sig_nbrp, stp = sig_nbrp in
  (* The magnitude of the saving depends on how collective the steady
     state gets (paper: best case O(n), worst O(n²) — the A1 ablation
     bench charts it); the unit-level claim is that the LoWatermark path
     fires and strictly reduces signal traffic at equal reclamation. *)
  Alcotest.(check bool)
    (Printf.sprintf "nbr+ sends fewer signals (nbr=%d nbr+=%d, lo=%d)"
       sig_nbr sig_nbrp (Nbr_core.Smr_stats.lo_reclaims stp))
    true
    (sig_nbrp * 10 <= sig_nbr * 9 && (Nbr_core.Smr_stats.lo_reclaims stp) > 0)

(* The parity round-up: an odd snapshot must not accept the completion of
   the in-flight broadcast plus the start of the next as an RGP. *)
let test_nbrp_parity_rounding () =
  let pool = mk_pool () in
  let smr = NP.create pool ~nthreads:2 (cfg 64) in
  let _c0 = NP.register smr ~tid:0 in
  ignore smr;
  (* White-box via the base module is not exposed; validated behaviourally
     by the sweep above and the concurrent suite.  Here we check the
     arithmetic used: snapshot rounding. *)
  let round v = v + (v land 1) in
  Alcotest.(check int) "even stays" 4 (round 4);
  Alcotest.(check int) "odd rounds up" 6 (round 5);
  (* With snapshot 5 (in-flight), value 7 = end(6)+begin(7): not an RGP. *)
  Alcotest.(check bool) "7 rejected for snapshot 5" false (7 >= round 5 + 2);
  (* Value 8 = end(6)+begin(7)+end(8): a complete post-snapshot RGP. *)
  Alcotest.(check bool) "8 accepted for snapshot 5" true (8 >= round 5 + 2)

(* ------------------------------------------------------------------ *)
(* DEBRA: epoch rotation frees two-epoch-old bags; a stalled thread     *)
(* blocks the epoch.                                                    *)

module D = Nbr_core.Debra.Make (Sim)

let test_debra_epoch_reclamation () =
  let pool = mk_pool ~nthreads:1 () in
  let smr = D.create pool ~nthreads:1 (cfg 16) in
  let c = D.register smr ~tid:0 in
  Sim.run ~nthreads:1 (fun _ ->
      for _ = 1 to 300 do
        D.begin_op c;
        let s = D.alloc c in
        D.retire c s;
        D.end_op c
      done);
  let st = D.stats smr in
  Alcotest.(check bool)
    (Printf.sprintf "epoch advance freed records (%d)" (Nbr_core.Smr_stats.freed st))
    true ((Nbr_core.Smr_stats.freed st) >= 200)

let test_debra_stalled_thread_blocks () =
  let pool = mk_pool ~capacity:65_536 () in
  let smr = D.create pool ~nthreads:2 (cfg 16) in
  let c0 = D.register smr ~tid:0 and c1 = D.register smr ~tid:1 in
  Sim.run ~nthreads:2 (fun tid ->
      if tid = 1 then begin
        (* Enter an operation and stall: pins the epoch. *)
        D.begin_op c1;
        Sim.stall_ns 50_000_000;
        D.end_op c1
      end
      else
        for _ = 1 to 3_000 do
          D.begin_op c0;
          let s = D.alloc c0 in
          D.retire c0 s;
          D.end_op c0
        done);
  let st = D.stats smr in
  Alcotest.(check bool)
    (Printf.sprintf "stalled thread froze reclamation (freed=%d of %d)"
       (Nbr_core.Smr_stats.freed st) (Nbr_core.Smr_stats.retires st))
    true
    ((Nbr_core.Smr_stats.freed st) < (Nbr_core.Smr_stats.retires st) / 2)

(* ------------------------------------------------------------------ *)
(* IBR: a stalled thread pins only its interval (bounded garbage).      *)

module I = Nbr_core.Ibr.Make (Sim)

let test_ibr_bounded_under_stall () =
  let pool = mk_pool ~capacity:65_536 () in
  let smr = I.create pool ~nthreads:2 (cfg 16) in
  let c0 = I.register smr ~tid:0 and c1 = I.register smr ~tid:1 in
  Sim.run ~nthreads:2 (fun tid ->
      if tid = 1 then begin
        I.begin_op c1;
        Sim.stall_ns 50_000_000;
        I.end_op c1
      end
      else
        for _ = 1 to 3_000 do
          I.begin_op c0;
          let s = I.alloc c0 in
          I.retire c0 s;
          I.end_op c0
        done);
  let st = I.stats smr in
  Alcotest.(check bool)
    (Printf.sprintf "IBR kept reclaiming despite stall (freed=%d of %d)"
       (Nbr_core.Smr_stats.freed st) (Nbr_core.Smr_stats.retires st))
    true
    ((Nbr_core.Smr_stats.freed st) > (Nbr_core.Smr_stats.retires st) / 2)

(* ------------------------------------------------------------------ *)
(* HP: hazard announcement protects; validation failure restarts.       *)

module H = Nbr_core.Hp.Make (Sim)

let test_hp_hazard_protects () =
  let pool = mk_pool () in
  let smr = H.create pool ~nthreads:2 (cfg 4) in
  let c0 = H.register smr ~tid:0 and c1 = H.register smr ~tid:1 in
  let root = P.alloc pool in
  P.set_ptr pool root 0 P.nil;
  let target = ref (-1) in
  Sim.run ~nthreads:2 (fun tid ->
      if tid = 1 then begin
        H.begin_op c1;
        let s = H.alloc c1 in
        target := s;
        P.set_ptr pool root 0 s;
        (* Protect it via the root, then let thread 0 retire-and-churn. *)
        let got = H.read_ptr c1 ~src:root ~field:0 in
        Alcotest.(check int) "protected what root held" s got;
        let spin = Sim.make 0 in
        for _ = 1 to 3_000 do
          ignore (Sim.load spin)
        done;
        H.end_op c1
      end
      else begin
        H.begin_op c0;
        (* Wait until the target is published, then retire it and churn
           enough to trigger several scans. *)
        let rec wait () = if P.get_ptr pool root 0 = P.nil then wait () in
        wait ();
        let s = P.get_ptr pool root 0 in
        H.retire c0 s;
        for _ = 1 to 60 do
          let x = H.alloc c0 in
          H.retire c0 x
        done;
        H.end_op c0
      end);
  Alcotest.(check int) "hazard-protected slot never recycled" 0
    (P.seqno pool !target);
  Alcotest.(check int) "no UAF" 0 (P.stats pool).P.s_uaf_reads

let test_hp_validation_failure_restarts () =
  let pool = mk_pool () in
  let smr = H.create pool ~nthreads:2 (cfg 64) in
  let _c0 = H.register smr ~tid:0 and c1 = H.register smr ~tid:1 in
  let root = P.alloc pool in
  let s1 = P.alloc pool and s2 = P.alloc pool in
  P.set_ptr pool root 0 s1;
  let attempts = ref 0 in
  Sim.run ~nthreads:2 (fun tid ->
      if tid = 1 then begin
        H.begin_op c1;
        H.read_only c1 { H.view = (fun _ ->
            incr attempts;
            if !attempts = 1 then begin
              (* First attempt: flip the root mid-protection by letting
                 thread 0 run between load and validate — simulate by
                 burning cycles; thread 0 flips the root repeatedly. *)
              let spin = Sim.make 0 in
              for _ = 1 to 500 do
                ignore (Sim.load spin)
              done
            end;
            ignore (H.read_ptr c1 ~src:root ~field:0)) };
        H.end_op c1
      end
      else
        for i = 1 to 3_000 do
          P.set_ptr pool root 0 (if i land 1 = 0 then s1 else s2)
        done);
  (* The flipping root forces protect/validate retries internally; the
     operation still completes (bounded retries then checkpoint restart,
     or inline success). *)
  Alcotest.(check bool) "completed under churn" true (!attempts >= 1)

(* ------------------------------------------------------------------ *)
(* QSBR / RCU sanity.                                                   *)

module Q = Nbr_core.Qsbr.Make (Sim)

let test_qsbr_reclaims () =
  let pool = mk_pool ~nthreads:2 () in
  let smr = Q.create pool ~nthreads:2 (cfg 16) in
  let ctxs = [| Q.register smr ~tid:0; Q.register smr ~tid:1 |] in
  Sim.run ~nthreads:2 (fun tid ->
      let c = ctxs.(tid) in
      for _ = 1 to 500 do
        Q.begin_op c;
        let s = Q.alloc c in
        Q.retire c s;
        Q.end_op c
      done);
  let st = Q.stats smr in
  Alcotest.(check bool)
    (Printf.sprintf "qsbr freed (%d)" (Nbr_core.Smr_stats.freed st))
    true ((Nbr_core.Smr_stats.freed st) > 0)

module R = Nbr_core.Rcu.Make (Sim)

let test_rcu_reclaims () =
  let pool = mk_pool ~nthreads:2 () in
  let smr = R.create pool ~nthreads:2 (cfg 16) in
  let ctxs = [| R.register smr ~tid:0; R.register smr ~tid:1 |] in
  Sim.run ~nthreads:2 (fun tid ->
      let c = ctxs.(tid) in
      for _ = 1 to 500 do
        R.begin_op c;
        let s = R.alloc c in
        R.retire c s;
        R.end_op c
      done);
  let st = R.stats smr in
  Alcotest.(check bool)
    (Printf.sprintf "rcu freed (%d)" (Nbr_core.Smr_stats.freed st))
    true ((Nbr_core.Smr_stats.freed st) > 0)

(* ------------------------------------------------------------------ *)
(* Hazard eras: protection + bounded under stall.                       *)

module HE = Nbr_core.Hazard_eras.Make (Sim)

let test_he_bounded_under_stall () =
  let pool = mk_pool ~capacity:65_536 () in
  let smr = HE.create pool ~nthreads:2 (cfg 16) in
  let c0 = HE.register smr ~tid:0 and c1 = HE.register smr ~tid:1 in
  Sim.run ~nthreads:2 (fun tid ->
      if tid = 1 then begin
        HE.begin_op c1;
        Sim.stall_ns 50_000_000;
        HE.end_op c1
      end
      else
        for _ = 1 to 3_000 do
          HE.begin_op c0;
          let s = HE.alloc c0 in
          HE.retire c0 s;
          HE.end_op c0
        done);
  let st = HE.stats smr in
  Alcotest.(check bool)
    (Printf.sprintf "HE kept reclaiming despite stall (freed=%d of %d)"
       (Nbr_core.Smr_stats.freed st) (Nbr_core.Smr_stats.retires st))
    true
    ((Nbr_core.Smr_stats.freed st) > (Nbr_core.Smr_stats.retires st) / 2)

let test_he_era_protects () =
  let pool = mk_pool () in
  let smr = HE.create pool ~nthreads:2 (cfg 4) in
  let c0 = HE.register smr ~tid:0 and c1 = HE.register smr ~tid:1 in
  let root = P.alloc pool in
  P.set_ptr pool root 0 P.nil;
  let target = ref (-1) in
  Sim.run ~nthreads:2 (fun tid ->
      if tid = 1 then begin
        HE.begin_op c1;
        let s = HE.alloc c1 in
        target := s;
        P.set_ptr pool root 0 s;
        let got = HE.read_ptr c1 ~src:root ~field:0 in
        Alcotest.(check int) "protected what root held" s got;
        let spin = Sim.make 0 in
        for _ = 1 to 3_000 do
          ignore (Sim.load spin)
        done;
        HE.end_op c1
      end
      else begin
        HE.begin_op c0;
        let rec wait () = if P.get_ptr pool root 0 = P.nil then wait () in
        wait ();
        HE.retire c0 (P.get_ptr pool root 0);
        for _ = 1 to 60 do
          let x = HE.alloc c0 in
          HE.retire c0 x
        done;
        HE.end_op c0
      end);
  Alcotest.(check int) "era-protected slot never recycled" 0
    (P.seqno pool !target)

(* Leaky never frees. *)
module L = Nbr_core.Leaky.Make (Sim)

let test_leaky_never_frees () =
  let pool = mk_pool ~nthreads:1 () in
  let smr = L.create pool ~nthreads:1 (cfg 4) in
  let c = L.register smr ~tid:0 in
  Sim.run ~nthreads:1 (fun _ ->
      for _ = 1 to 100 do
        let s = L.alloc c in
        L.retire c s
      done);
  Alcotest.(check int) "nothing freed" 0 (P.stats pool).P.s_frees;
  Alcotest.(check int) "all unreclaimed" 100 (P.stats pool).P.s_in_use

(* Unsafe free demonstrates the problem SMR solves. *)
module U = Nbr_core.Unsafe_free.Make (Sim)

let test_unsafe_free_causes_uaf () =
  let pool = mk_pool () in
  let smr = U.create pool ~nthreads:2 (cfg 4) in
  let c0 = U.register smr ~tid:0 and c1 = U.register smr ~tid:1 in
  let root = P.alloc pool in
  P.set_ptr pool root 0 P.nil;
  Sim.run ~nthreads:2 (fun tid ->
      if tid = 0 then
        for _ = 1 to 500 do
          let s = U.alloc c0 in
          P.set_ptr pool root 0 s;
          U.retire c0 s (* freed immediately, while published! *)
        done
      else
        for _ = 1 to 500 do
          let s = U.read_ptr c1 ~src:root ~field:0 in
          ignore s
        done);
  Alcotest.(check bool)
    (Printf.sprintf "use-after-free observed (%d)"
       (P.stats pool).P.s_uaf_reads)
    true
    ((P.stats pool).P.s_uaf_reads > 0)

(* ------------------------------------------------------------------ *)
(* The shared sweep's trace contract, for every scheme that sweeps a
   limbo bag: each [Reclaim] directly follows its thread's [Bag_sweep],
   which saw [a] entries and left [b = a - freed]; the [Reclaim] counts
   sum to the freed statistic.                                         *)

module Sweep_contract (S : Nbr_core.Smr_intf.S with type pool = P.t) = struct
  module Trace = Nbr_obs.Trace

  let check () =
    let pool = mk_pool () in
    let smr = S.create pool ~nthreads:2 (cfg 16) in
    let ctxs = [| S.register smr ~tid:0; S.register smr ~tid:1 |] in
    Trace.enable ~capacity:65_536 ~nthreads:2 ();
    Fun.protect ~finally:Trace.clear (fun () ->
        Sim.run ~nthreads:2 (fun tid ->
            let c = ctxs.(tid) in
            for _ = 1 to 300 do
              S.op c (fun op ->
                  S.phase op ~read:{ S.read = (fun _ -> ((), [||])) }
                    ~write:{ S.write =
                               (fun wr () -> S.retire wr (S.alloc wr)) })
            done);
        Trace.disable ();
        Alcotest.(check int) "no events dropped" 0 (Trace.dropped ());
        let evs = Trace.events () in
        let reclaimed = ref 0 and reclaims = ref 0 in
        for tid = 0 to 1 do
          let mine =
            List.filter (fun e -> e.Trace.e_tid = tid) evs
            |> List.sort (fun a b -> compare a.Trace.e_seq b.Trace.e_seq)
          in
          ignore
            (List.fold_left
               (fun prev e ->
                 (if e.Trace.e_kind = Trace.Reclaim then
                    match prev with
                    | Some p when p.Trace.e_kind = Trace.Bag_sweep ->
                        incr reclaims;
                        reclaimed := !reclaimed + e.e_a;
                        Alcotest.(check int)
                          (S.scheme_name ^ ": sweep left a - freed")
                          (p.e_a - e.e_a) p.e_b
                    | _ ->
                        Alcotest.failf "%s: t%d Reclaim without a Bag_sweep"
                          S.scheme_name tid);
                 Some e)
               None mine)
        done;
        let freed = Nbr_core.Smr_stats.freed (S.stats smr) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: retires crossed the threshold (%d reclaims)"
             S.scheme_name !reclaims)
          true
          (!reclaims > 0 && freed > 0);
        Alcotest.(check int)
          (S.scheme_name ^ ": Reclaim counts sum to freed")
          freed !reclaimed)
end

let test_sweep_contract () =
  List.iter
    (fun (module S : Nbr_core.Smr_intf.S with type pool = P.t) ->
      let module C = Sweep_contract (S) in
      C.check ())
    [
      (module N);
      (module NP);
      (module D);
      (module R);
      (module H);
      (module HE);
      (module I);
    ]

(* ------------------------------------------------------------------ *)
(* The write phase owns the locks taken through its token: a phase that
   raises with two of them held releases both, last taken first, and a
   second operation that takes the same locks finishes instead of
   spinning on them.  One scheme per phase implementation: the NBR
   family's, the shared restartable one (HP) and the unguarded one
   (DEBRA).                                                            *)

module Lock_release (S : Nbr_core.Smr_intf.S with type pool = P.t) = struct
  let f_lock = 1

  let check () =
    let pool =
      P.create ~capacity:64 ~data_fields:2 ~ptr_fields:1 ~nthreads:1 ()
    in
    let smr = S.create pool ~nthreads:1 (cfg 8) in
    let c = S.register smr ~tid:0 in
    let a = P.alloc pool and b = P.alloc pool in
    let lock_both ~fail =
      S.op c (fun op ->
          S.phase op
            ~read:{ S.read = (fun _ -> ((), [| a; b |])) }
            ~write:{ S.write = (fun wr () ->
              S.lock wr a f_lock;
              S.lock wr b f_lock;
              if fail then failwith "write phase fails";
              S.set_data wr a 0 1;
              S.unlock wr b f_lock;
              S.unlock wr a f_lock) })
    in
    let raised = ref false and finished = ref false in
    Fun.protect ~finally:(fun () -> Sim.set_max_events 0) (fun () ->
        Sim.set_max_events 200_000;
        Sim.run ~nthreads:1 (fun _ ->
            (try lock_both ~fail:true with Failure _ -> raised := true);
            Alcotest.(check (pair bool bool))
              (S.scheme_name ^ ": both locks released")
              (false, false)
              (P.is_locked pool a f_lock, P.is_locked pool b f_lock);
            lock_both ~fail:false;
            finished := true));
    Alcotest.(check bool) (S.scheme_name ^ ": the phase raised") true !raised;
    Alcotest.(check bool)
      (S.scheme_name ^ ": the second operation finished")
      true !finished;
    Alcotest.(check int) (S.scheme_name ^ ": and wrote") 1 (P.get_data pool a 0)
end

let test_lock_release () =
  List.iter
    (fun (module S : Nbr_core.Smr_intf.S with type pool = P.t) ->
      let module L = Lock_release (S) in
      L.check ())
    [ (module NP); (module H); (module D) ]

(* The write path allocates nothing per operation: [alloc] passes the
   flush closure its context built at [register], and the lock stack is
   preallocated.  On the native runtime, so no simulator event is
   counted; the bound leaves room for nothing per iteration. *)

module NN = Nbr_core.Nbr_plus.Make (Nbr_runtime.Native_rt)
module PN = Nbr_pool.Pool.Make (Nbr_runtime.Native_rt)

let test_write_path_allocation () =
  let iters = 10_000 and max_words = 16. in
  let pool =
    PN.create ~capacity:64 ~data_fields:2 ~ptr_fields:1 ~nthreads:1 ()
  in
  let smr = NN.create pool ~nthreads:1 (cfg 8) in
  let c = NN.register smr ~tid:0 in
  let w =
    { NN.write = (fun wr s ->
          NN.lock wr s 1;
          NN.set_data wr s 0 s;
          NN.unlock wr s 1) }
  in
  let round () =
    let s = NN.alloc c in
    NN.run_write c w s;
    PN.free pool s
  in
  (* The first allocation makes the pool's storage. *)
  round ();
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    round ()
  done;
  let words = Gc.minor_words () -. before in
  if words > max_words then
    Alcotest.failf "%.0f minor words over %d alloc+lock+free (bound %.0f)"
      words iters max_words

(* ------------------------------------------------------------------ *)
(* NBR's reservation row: a read phase clears only the slots the last
   [end_read] wrote, and a signal that lands between two of
   [end_read]'s stores still leaves no slot reserved once the next
   read phase has begun.                                               *)

module Slots
    (S : Nbr_core.Smr_intf.S with type pool = P.t)
    (R : sig
      val row : S.ctx -> Sim.aint array
    end) =
struct
  let nothing = { S.view = (fun _ -> ()) }

  let publish c recs =
    S.op c (fun op ->
        S.phase op
          ~read:{ S.read = (fun _ -> ((), recs)) }
          ~write:{ S.write = (fun _ () -> ()) })

  (* Shared accesses of a read-only operation, counted by the
     simulator's heartbeat (one tick per access): after a read-only one,
     and after a write phase that published [r] slots, which costs
     exactly [r] stores more. *)
  let cost () =
    let pool = mk_pool ~nthreads:1 () in
    let smr = S.create pool ~nthreads:1 (cfg 8) in
    let c = S.register smr ~tid:0 in
    let recs = Array.init 3 (fun _ -> P.alloc pool) in
    let read_only () = S.op c (fun op -> S.read_only op nothing) in
    let ticks f =
      let h = Sim.heartbeat 0 in
      f ();
      Sim.heartbeat 0 - h
    in
    Sim.run ~nthreads:1 (fun _ ->
        read_only ();
        let base = ticks read_only in
        for r = 0 to Array.length recs do
          publish c (Array.sub recs 0 r);
          Alcotest.(check int)
            (Printf.sprintf "%s: read-only after %d published" S.scheme_name r)
            (base + r) (ticks read_only)
        done)

  (* Thread 0's first read attempt publishes three slots, every retry
     none; thread 1 sends it one signal.  Under the schedules where the
     signal lands inside [end_read]'s stores, the retry must still clear
     the slots the neutralized attempt wrote. *)
  let scenario ~replays () =
    Sim.set_config
      { Sim.default_config with cores = 2; granularity = 1; jitter = 0 };
    Sim.set_max_events 200_000;
    let pool = mk_pool () in
    let smr = S.create pool ~nthreads:2 (cfg 8) in
    let c = S.register smr ~tid:0 in
    let recs = Array.init 3 (fun _ -> P.alloc pool) in
    let attempts = ref 0 in
    let read _ =
      incr attempts;
      ((), if !attempts = 1 then recs else [||])
    in
    (try
       Sim.run ~nthreads:2 (fun tid ->
           if tid = 0 then
             S.op c (fun op ->
                 S.phase op ~read:{ S.read = read }
                   ~write:{ S.write = (fun _ () -> ()) };
                 S.read_only op nothing)
           else Sim.send_signal 0)
     with Sim.Stuck _ -> ());
    if !attempts > 1 then incr replays;
    let row = R.row c in
    match
      List.filter (fun i -> Sim.load row.(i) <> P.nil)
        (List.init (Array.length row) Fun.id)
    with
    | [] -> None
    | l ->
        Some
          (Printf.sprintf "slots %s still reserved after %d attempts"
             (String.concat "," (List.map string_of_int l))
             !attempts)

  let signal_in_publication () =
    let replays = ref 0 in
    let r =
      Fun.protect
        ~finally:(fun () ->
          Sim.set_config Sim.default_config;
          Sim.set_max_events 0)
        (fun () ->
          Nbr_check.Explore.dfs ~preemption_bound:1 ~nthreads:2
            ~run:(scenario ~replays) ())
    in
    Alcotest.(check (option string))
      (S.scheme_name ^ ": no slot left reserved") None
      (Option.map fst r.Nbr_check.Explore.r_violation);
    Alcotest.(check bool)
      (Printf.sprintf "%s: some schedule neutralized the reader (%d of %d)"
         S.scheme_name !replays r.r_schedules)
      true (!replays > 0)
end

module Slots_nbr =
  Slots
    (N)
    (struct
      let row (c : N.ctx) = c.N.b.N.shared.N.reservations.(c.N.tid)
    end)

module Slots_nbrp =
  Slots
    (NP)
    (struct
      let row (c : NP.ctx) = c.NP.b.NP.shared.NP.reservations.(c.NP.tid)
    end)

let test_reservation_cost () =
  Slots_nbr.cost ();
  Slots_nbrp.cost ()

let test_signal_in_publication () =
  Slots_nbr.signal_in_publication ();
  Slots_nbrp.signal_in_publication ()

let suite =
  [
    Alcotest.test_case "nbr: reservation protects" `Quick
      test_nbr_reservation_protects;
    Alcotest.test_case "nbr: reclaims at threshold" `Quick
      test_nbr_reclaims_at_threshold;
    Alcotest.test_case "nbr: neutralizes readers" `Quick
      test_nbr_neutralizes_readers;
    Alcotest.test_case "nbr: a read phase clears only published slots" `Quick
      test_reservation_cost;
    Alcotest.test_case "nbr: a signal inside end_read leaves no slot" `Quick
      test_signal_in_publication;
    Alcotest.test_case "nbr+: LoWm reclaims via RGP" `Quick
      test_nbrp_lo_watermark_reclaims_without_signalling;
    Alcotest.test_case "nbr+: fewer signals than nbr" `Quick
      test_nbrp_signals_fewer_than_nbr;
    Alcotest.test_case "nbr+: odd-snapshot parity rounding" `Quick
      test_nbrp_parity_rounding;
    Alcotest.test_case "debra: epoch reclamation" `Quick
      test_debra_epoch_reclamation;
    Alcotest.test_case "debra: stalled thread blocks epochs" `Quick
      test_debra_stalled_thread_blocks;
    Alcotest.test_case "ibr: bounded under stall" `Quick
      test_ibr_bounded_under_stall;
    Alcotest.test_case "hp: hazard protects" `Quick test_hp_hazard_protects;
    Alcotest.test_case "hp: survives root churn" `Quick
      test_hp_validation_failure_restarts;
    Alcotest.test_case "he: bounded under stall" `Quick
      test_he_bounded_under_stall;
    Alcotest.test_case "he: era protects" `Quick test_he_era_protects;
    Alcotest.test_case "qsbr: reclaims" `Quick test_qsbr_reclaims;
    Alcotest.test_case "rcu: reclaims" `Quick test_rcu_reclaims;
    Alcotest.test_case "leaky: never frees" `Quick test_leaky_never_frees;
    Alcotest.test_case "unsafe-free: UAF observed" `Quick
      test_unsafe_free_causes_uaf;
    Alcotest.test_case "sweep contract: Bag_sweep then Reclaim" `Quick
      test_sweep_contract;
    Alcotest.test_case "write phase releases its locks on raise" `Quick
      test_lock_release;
    Alcotest.test_case "write path allocates nothing" `Quick
      test_write_path_allocation;
  ]
