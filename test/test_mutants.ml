(* Mutant kills: each protocol step the schemes' safety rests on, removed
   by one patch under mutants/, is convicted by a committed schedule.

   A certificate replays a reader and a writer running scripts on a lazy
   list (the scripted scenario of the refusal certificates, Test_check)
   and must end in a sanitizer finding or in a [Neutralized] that escaped
   its read phase.  On the real scheme the same schedule is clean, and so
   is every schedule within the preemption bound the search used.  IBR's
   source validation (A3) and the pool's generation check (A4) have
   two-thread scenarios of their own, below.  NBR's per-read poll and
   [end_read]'s re-check (A2), which the simulator cannot tell apart
   from their mutants, have native tests at the end.

   The steps, with the scripts that break them:

   - Restart checkpoint, in [phase] and in [read_only] (Nbr_base, and
     Smr_base for HP, HE and IBR).  [restarted]: the reader stops inside
     its read phase, at 10; the writer inserts 15 and deletes 10, 15 and
     20.  An NBR reader takes the writer's neutralization signal at its
     next access; an HP, HE or IBR reader finds the next record retired
     and aborts.  Either raises [Neutralized], which the checkpoint
     catches and replays.
   - NBR's writers' handshake, the signal broadcast before a sweep
     (Assumption 4).  [swept_window]: the reader stops in its read
     phase, past 20, before it publishes its window <20, 30>.  The
     writer deletes 20, then 10, whose retire sweeps 20: no reservation
     names it, and no signal restarts the reader.  The reader's write
     phase reads the freed 20's mark.
   - HP's and HE's publication.  [unpublished]: the reader stops between
     its read phase, which ends on the window <20, 30>, and its write
     phase.  The writer deletes 20 and sweeps it, as no hazard or era
     announces it, and the write phase reads the freed 20's mark.
   - HP's validation.  [frozen_successor]: the reader protects 10; the
     writer deletes 10, whose link stays at 20, then deletes and sweeps
     20.  The reader follows 10's link to the freed 20, reads the same
     link again, and keeps 20 without asking whether it is live.
   - HE's validation: Test_check's [frozen_link].  15 is born and
     retired after the era the reader published, so it is swept while
     10, retired but pinned, still links to it; the reader follows that
     link and publishes the moved era, too late for 15.
   - IBR's publication.  [unannounced_birth]: three switches.  The reader
     opens its operation; the writer inserts 20, moving the era; the
     reader reaches 20, ratcheting only its cached upper bound; the writer
     deletes 20 and sweeps it with a later retire, since the announced
     interval still ends before 20's birth; the reader reads 20's key.
   - The epoch family's announcement at operation start.  [quiescent]:
     the reader stops at 10; the writer deletes 10 and 20 and runs three
     more operations.  An unannounced reader blocks no grace period, so
     10 is freed under it. *)

module Sim = Nbr_runtime.Sim_rt
module P = Test_check.P
module Cert = Nbr_check.Certificate
module Explore = Nbr_check.Explore
module San = Nbr_check.Sanitizer

module Lazy (S : Nbr_core.Smr_intf.S with type pool = P.t) = struct
  type ctx = S.ctx

  include Nbr_ds.Lazy_list.Make (Sim) (S)
end

let script ?(prefill = [ 10; 20; 30 ]) reader writer =
  { Test_check.prefill; reader; writer }

let restarted reader =
  script reader Test_check.[ Ins 15; Del 10; Del 15; Del 20 ]

let unpublished = Test_check.(script [ Ins 25 ] [ Del 20 ])
let swept_window = Test_check.(script [ Ins 25 ] [ Del 20; Del 10 ])
let frozen_successor = Test_check.(script [ Has 25 ] [ Del 10; Del 20 ])

let unannounced_birth =
  Test_check.(
    script ~prefill:[ 10 ] [ Has 30 ] [ Ins 20; Del 20; Ins 40; Del 40 ])

let quiescent =
  Test_check.(script [ Has 25 ] [ Del 10; Del 20; Has 1; Has 1; Has 1 ])

(* The real-code search's cap, far above the schedules any bound used
   here yields. *)
let max_schedules = 50_000

(* [cert] replays [finding] on the mutant's scenario, twice alike; the
   real code's scenario is clean on it and on every schedule of
   preemption bound [bound]. *)
let kill name ?(bound = 1) ~finding cert ~mutant ~real =
  Alcotest.test_case (name ^ ": a certificate kills the mutant") `Quick
    (fun () ->
      Test_check.with_clean_globals @@ fun () ->
      let cert = Cert.of_string cert in
      let r1 = Explore.replay cert ~run:mutant in
      Alcotest.(check bool) ("the mutant replays " ^ finding) true
        (match r1 with
        | Some d -> Test_check.contains d finding
        | None -> false);
      Alcotest.(check (option string)) "replay is deterministic" r1
        (Explore.replay cert ~run:mutant);
      Alcotest.(check (option string)) "the real code is clean on it" None
        (Explore.replay cert ~run:real);
      let r =
        Explore.dfs ~preemption_bound:bound ~max_schedules ~nthreads:2
          ~run:real ()
      in
      Alcotest.(check (option string))
        (Printf.sprintf "and on every schedule of preemption bound %d" bound)
        None
        (Option.map fst r.Explore.r_violation);
      Alcotest.(check bool) "which the search exhausted" true
        (r.r_schedules < max_schedules))

module Kill
    (Real : Nbr_core.Smr_intf.S with type pool = P.t)
    (Mutant : Nbr_core.Smr_intf.S with type pool = P.t) =
struct
  module R = Test_check.Scripted (Real) (Lazy (Real))
  module M = Test_check.Scripted (Mutant) (Lazy (Mutant))

  let case name ?bound ~finding cert sc =
    kill name ?bound ~finding cert ~mutant:(M.scenario sc)
      ~real:(R.scenario sc)
end

(* ------------------------------------------------------------------ *)
(* IBR's source validation (A3) and the frozen-link bug it closes.  One
   record A is published at the root.  One preemption: the reader
   resolves the root; the writer replaces A with C, retires A (pinned by
   the reader's interval, its link frozen at C), unlinks C and retires it
   (born after the reader's upper bound, so the sweep frees it); the
   reader follows A's frozen link.  Every allocation moves the era and
   every retire sweeps. *)

module Frozen_source (S : Nbr_core.Smr_intf.S with type pool = P.t) = struct
  let scenario () =
    Sim.set_config Test_check.det_config;
    Sim.set_max_events 500_000;
    let pool =
      P.create ~capacity:32 ~data_fields:1 ~ptr_fields:1 ~nthreads:2 ()
    in
    let smr =
      S.create pool ~nthreads:2
        {
          Nbr_core.Smr_config.default with
          epoch_freq = 1;
          bag_threshold = 1;
          lo_watermark = 1;
        }
    in
    let root = P.alloc pool in
    let c0 = S.register smr ~tid:0 and c1 = S.register smr ~tid:1 in
    let nothing = { S.read = (fun _ -> ((), [||])) } in
    let a =
      S.op c1 (fun op ->
          S.phase op ~read:nothing
            ~write:{ S.write = (fun wr () -> S.alloc wr) })
    in
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
           if tid = 0 then
             S.op c0 (fun op ->
                 S.read_only op
                   {
                     S.view =
                       (fun rd ->
                         let x = S.read_ptr rd ~src:root ~field:0 in
                         if x >= 0 then ignore (S.read_ptr rd ~src:x ~field:0));
                   })
           else
             S.op c1 (fun op ->
                 S.phase op ~read:nothing
                   ~write:
                     {
                       S.write =
                         (fun wr () ->
                           let c = S.alloc wr in
                           P.set_ptr pool c 0 P.nil;
                           P.set_ptr pool a 0 c;
                           P.set_ptr pool root 0 c;
                           S.retire wr a;
                           P.set_ptr pool root 0 P.nil;
                           S.retire wr c);
                     }))
     with Sim.Stuck _ -> ());
    San.detach san;
    if Nbr_obs.Trace.enabled () then Nbr_obs.Trace.disable ();
    Test_check.verdict san
end

(* ------------------------------------------------------------------ *)
(* The pool's generation check (A4).  The reader loads a published
   handle and reads through it with no protection at all; the writer
   publishes A, frees it and recycles its slot.  One preemption leaves
   the reader's handle stale: the real pool refuses the read with
   [Stale], and the mutant commits the recycled memory, an access the
   sanitizer convicts. *)

module type POOL = sig
  type t

  exception Stale of int

  val nil : int

  val create :
    capacity:int -> data_fields:int -> ptr_fields:int -> nthreads:int ->
    unit -> t

  val alloc : ?on_pressure:(unit -> unit) -> ?cls:int -> t -> int
  val free : t -> int -> unit
  val set_data : t -> int -> int -> int -> unit
  val read_data : t -> int -> int -> int
end

module Stale_read (Q : POOL) = struct
  let scenario () =
    Sim.set_config Test_check.det_config;
    Sim.set_max_events 500_000;
    let pool =
      Q.create ~capacity:16 ~data_fields:1 ~ptr_fields:1 ~nthreads:2 ()
    in
    let root = Sim.make Q.nil in
    let san =
      San.attach { San.protection = Epoch; nthreads = 2; garbage_bound = None }
    in
    (try
       Sim.run ~nthreads:2 (fun tid ->
           if tid = 0 then begin
             let a = Sim.load root in
             if a >= 0 then
               match Q.read_data pool a 0 with
               | _ -> ()
               | exception Q.Stale _ -> ()
           end
           else begin
             let a = Q.alloc pool in
             Q.set_data pool a 0 1;
             Sim.store root a;
             Q.free pool a;
             let b = Q.alloc pool in
             Q.set_data pool b 0 2;
             Q.free pool b
           end)
     with Sim.Stuck _ -> ());
    San.detach san;
    if Nbr_obs.Trace.enabled () then Nbr_obs.Trace.disable ();
    Test_check.verdict san
end

module Nbr = Nbr_core.Nbr.Make (Sim)
module Hp = Nbr_core.Hp.Make (Sim)
module He = Nbr_core.Hazard_eras.Make (Sim)
module Ibr = Nbr_core.Ibr.Make (Sim)
module Debra = Nbr_core.Debra.Make (Sim)
module Qsbr = Nbr_core.Qsbr.Make (Sim)
module Rcu = Nbr_core.Rcu.Make (Sim)

let escaped = "Neutralized escaped"
let uaf = "uaf_access"

let sim_cases =
  let phase = restarted Test_check.[ Ins 25 ] in
  let view = restarted Test_check.[ Has 25 ] in
  let module K = Kill (Nbr) (Mut_nbr_phase_checkpoint.Nbr.Make (Sim)) in
  let nbr_phase =
    K.case "nbr phase checkpoint" ~finding:escaped
      "nbr-cert/1;dfs;2;2;1;7;10x0,97x1,0" phase
  in
  let module K = Kill (Nbr) (Mut_nbr_read_only_checkpoint.Nbr.Make (Sim)) in
  let nbr_read_only =
    K.case "nbr read_only checkpoint" ~finding:escaped
      "nbr-cert/1;dfs;2;2;1;7;9x0,101x1,0" view
  in
  let module M = Mut_smr_phase_checkpoint in
  let module Kh = Kill (Hp) (M.Hp.Make (Sim)) in
  let module Ke = Kill (He) (M.Hazard_eras.Make (Sim)) in
  let module Ki = Kill (Ibr) (M.Ibr.Make (Sim)) in
  let smr_phase =
    [
      Kh.case "hp phase checkpoint" ~finding:escaped
        "nbr-cert/1;dfs;2;2;1;7;12x0,119x1,325x0" phase;
      Ke.case "he phase checkpoint" ~finding:escaped
        "nbr-cert/1;dfs;2;2;1;7;11x0,146x1,5x0" phase;
      Ki.case "ibr phase checkpoint" ~finding:escaped
        "nbr-cert/1;dfs;2;2;1;7;11x0,123x1,5x0" phase;
    ]
  in
  let module M = Mut_smr_read_only_checkpoint in
  let module Kh = Kill (Hp) (M.Hp.Make (Sim)) in
  let module Ke = Kill (He) (M.Hazard_eras.Make (Sim)) in
  let module Ki = Kill (Ibr) (M.Ibr.Make (Sim)) in
  let smr_read_only =
    [
      Kh.case "hp read_only checkpoint" ~finding:escaped
        "nbr-cert/1;dfs;2;2;1;7;12x0,123x1,325x0" view;
      Ke.case "he read_only checkpoint" ~finding:escaped
        "nbr-cert/1;dfs;2;2;1;7;11x0,150x1,5x0" view;
      Ki.case "ibr read_only checkpoint" ~finding:escaped
        "nbr-cert/1;dfs;2;2;1;7;11x0,127x1,5x0" view;
    ]
  in
  let module Hp_pub = Kill (Hp) (Mut_hp_publish.Hp.Make (Sim)) in
  let module Hp_val = Kill (Hp) (Mut_hp_validate.Hp.Make (Sim)) in
  let module He_pub = Kill (He) (Mut_he_publish.Hazard_eras.Make (Sim)) in
  let module He_val = Kill (He) (Mut_he_validate.Hazard_eras.Make (Sim)) in
  let module Ibr_pub = Kill (Ibr) (Mut_ibr_publish.Ibr.Make (Sim)) in
  let module De = Kill (Debra) (Mut_debra_announce.Debra.Make (Sim)) in
  let module Qs = Kill (Qsbr) (Mut_qsbr_announce.Qsbr.Make (Sim)) in
  let module Rc = Kill (Rcu) (Mut_rcu_announce.Rcu.Make (Sim)) in
  let module Nbr_sig = Kill (Nbr) (Mut_nbr_signal_all.Nbr.Make (Sim)) in
  [ nbr_phase; nbr_read_only ] @ smr_phase @ smr_read_only
  @ [
      Hp_pub.case "hp read_ptr publish" ~finding:uaf
        "nbr-cert/1;dfs;2;2;1;7;20x0,36x1,39x0" unpublished;
      Hp_val.case "hp read_ptr validate" ~finding:uaf
        "nbr-cert/1;dfs;2;2;1;7;7x0,54x1,12x0" frozen_successor;
      He_pub.case "he read_ptr publish" ~finding:uaf
        "nbr-cert/1;dfs;2;2;1;7;17x0,42x1,40x0" unpublished;
      He_val.case "he read_ptr validate" ~finding:uaf
        "nbr-cert/1;dfs;2;2;1;7;10x0,174x1,15x0" Test_check.frozen_link;
      Ibr_pub.case "ibr read_ptr publish" ~bound:3 ~finding:uaf
        "nbr-cert/1;dfs;2;2;1;7;9x0,49x1,4x0,81x1,13x0" unannounced_birth;
      De.case "debra begin_op announcement" ~finding:uaf
        "nbr-cert/1;dfs;2;2;1;7;6x0,65x1,5x0" quiescent;
      Qs.case "qsbr begin_op announcement" ~finding:uaf
        "nbr-cert/1;dfs;2;2;1;7;4x0,53x1,5x0" quiescent;
      Rc.case "rcu begin_op announcement" ~finding:uaf
        "nbr-cert/1;dfs;2;2;1;7;4x0,55x1,5x0" quiescent;
      Nbr_sig.case "nbr reclamation signal broadcast" ~finding:uaf
        "nbr-cert/1;dfs;2;2;1;7;9x0,50x1,34x0" swept_window;
      (let module R = Frozen_source (Ibr) in
      let module M = Frozen_source (Mut_ibr_validate.Ibr.Make (Sim)) in
      kill "ibr read_ptr validate" ~finding:uaf
        "nbr-cert/1;dfs;2;2;1;7;8x0,34x1,6x0" ~mutant:M.scenario
        ~real:R.scenario);
      (let module R = Stale_read (P) in
      let module M = Stale_read (Mut_pool_generation_check.Pool.Make (Sim)) in
      kill "pool generation check" ~finding:uaf
        "nbr-cert/1;dfs;2;2;1;7;0,8x1,2x0" ~mutant:M.scenario
        ~real:R.scenario);
    ]

(* ------------------------------------------------------------------ *)
(* Two NBR steps that only a polling runtime exercises, on one native
   domain: the simulator delivers a signal at every access whether or not
   the code polls.  The read phase signals its own thread on its first
   attempt, before or after its one [read_ptr].

   - The poll at the top of [read_ptr].  Signalled before it, the poll
     must neutralize the attempt before the lambda's next line runs.
     Without the poll the line runs, and only [end_read]'s re-check
     restarts the phase.
   - [end_read]'s pending-signal re-check after publication (§4.3,
     lines 11-12, A2).  Signalled after the last [read_ptr], nothing but
     the re-check sees the signal: the real phase replays, and without
     the re-check it commits. *)

module Nat = Nbr_runtime.Native_rt
module NP = Nbr_pool.Pool.Make (Nat)

module Signalled (S : Nbr_core.Smr_intf.S with type pool = NP.t) = struct
  (* The attempts of the one read phase, and those that ran past the
     read. *)
  let run ~before =
    let pool =
      NP.create ~capacity:8 ~data_fields:1 ~ptr_fields:1 ~nthreads:1 ()
    in
    let smr = S.create pool ~nthreads:1 Nbr_core.Smr_config.default in
    let root = NP.alloc pool in
    NP.set_ptr pool root 0 (NP.alloc pool);
    let c = S.register smr ~tid:0 in
    let attempts = ref 0 and past = ref [] in
    Nat.run ~nthreads:1 (fun tid ->
        S.op c (fun op ->
            S.read_only op
              {
                S.view =
                  (fun rd ->
                    incr attempts;
                    let signal = !attempts = 1 in
                    if signal && before then Nat.send_signal tid;
                    ignore (S.read_ptr rd ~src:root ~field:0);
                    past := !attempts :: !past;
                    if signal && not before then Nat.send_signal tid);
              }));
    (!attempts, List.rev !past)
end

module Real = Signalled (Nbr_core.Nbr.Make (Nat))
module No_poll = Signalled (Mut_nbr_read_ptr_poll.Nbr.Make (Nat))
module No_recheck = Signalled (Mut_nbr_end_read_recheck.Nbr.Make (Nat))

let pair = Alcotest.(pair int (list int))

let test_read_ptr_poll () =
  Alcotest.check pair "the signalled attempt stops at read_ptr" (2, [ 2 ])
    (Real.run ~before:true);
  Alcotest.check pair "without the poll it runs past it" (2, [ 1; 2 ])
    (No_poll.run ~before:true)

let test_end_read_recheck () =
  Alcotest.check pair "end_read replays the signalled phase" (2, [ 1; 2 ])
    (Real.run ~before:false);
  Alcotest.check pair "without the re-check the phase commits" (1, [ 1 ])
    (No_recheck.run ~before:false)

let suite =
  sim_cases
  @ [
      Alcotest.test_case "nbr read_ptr poll: a native test kills the mutant"
        `Quick test_read_ptr_poll;
      Alcotest.test_case
        "nbr end_read re-check: a native test kills the mutant" `Quick
        test_end_read_recheck;
    ]
