(* Mutant kills: each protocol step the schemes' safety rests on, removed
   by one patch under mutants/, is convicted by a committed schedule.

   A certificate replays a reader and a writer running scripts on a lazy
   list (the scripted scenario of the refusal certificates, Test_check)
   and must end in a sanitizer finding or in a [Neutralized] that escaped
   its read phase.  On the real scheme the same schedule is clean, and so
   is every schedule within the preemption bound the search used.  IBR's
   source validation is the A3 certificate in Test_check; NBR's per-read
   poll, which the simulator cannot see, has a native test at the end.

   The steps, with the scripts that break them:

   - Restart checkpoint, in [phase] and in [read_only] (Nbr_base, and
     Smr_base for HP, HE and IBR).  [restarted]: the reader stops inside
     its read phase, at 10; the writer inserts 15 and deletes 10, 15 and
     20.  An NBR reader takes the writer's neutralization signal at its
     next access; an HP, HE or IBR reader finds the next record retired
     and aborts.  Either raises [Neutralized], which the checkpoint
     catches and replays.
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

module Lazy (S : Nbr_core.Smr_intf.S with type pool = P.t) = struct
  type ctx = S.ctx

  include Nbr_ds.Lazy_list.Make (Sim) (S)
end

let script ?(prefill = [ 10; 20; 30 ]) reader writer =
  { Test_check.prefill; reader; writer }

let restarted reader =
  script reader Test_check.[ Ins 15; Del 10; Del 15; Del 20 ]

let unpublished = Test_check.(script [ Ins 25 ] [ Del 20 ])
let frozen_successor = Test_check.(script [ Has 25 ] [ Del 10; Del 20 ])

let unannounced_birth =
  Test_check.(
    script ~prefill:[ 10 ] [ Has 30 ] [ Ins 20; Del 20; Ins 40; Del 40 ])

let quiescent =
  Test_check.(script [ Has 25 ] [ Del 10; Del 20; Has 1; Has 1; Has 1 ])

(* The real-code search's cap, far above the schedules any bound used
   here yields. *)
let max_schedules = 50_000

module Kill
    (Real : Nbr_core.Smr_intf.S with type pool = P.t)
    (Mutant : Nbr_core.Smr_intf.S with type pool = P.t) =
struct
  module R = Test_check.Scripted (Real) (Lazy (Real))
  module M = Test_check.Scripted (Mutant) (Lazy (Mutant))

  let case name ?(bound = 1) ~finding cert sc =
    Alcotest.test_case (name ^ ": a certificate kills the mutant") `Quick
      (fun () ->
        Test_check.with_clean_globals @@ fun () ->
        let cert = Cert.of_string cert in
        let r1 = Explore.replay cert ~run:(M.scenario sc) in
        Alcotest.(check bool) ("the mutant replays " ^ finding) true
          (match r1 with
          | Some d -> Test_check.contains d finding
          | None -> false);
        Alcotest.(check (option string)) "replay is deterministic" r1
          (Explore.replay cert ~run:(M.scenario sc));
        Alcotest.(check (option string)) "the real scheme is clean on it"
          None
          (Explore.replay cert ~run:(R.scenario sc));
        let r =
          Explore.dfs ~preemption_bound:bound ~max_schedules ~nthreads:2
            ~run:(R.scenario sc) ()
        in
        Alcotest.(check (option string))
          (Printf.sprintf "and on every schedule of preemption bound %d" bound)
          None
          (Option.map fst r.Explore.r_violation);
        Alcotest.(check bool) "which the search exhausted" true
          (r.r_schedules < max_schedules))
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
    ]

(* ------------------------------------------------------------------ *)
(* NBR's poll at the top of [read_ptr].  The simulator delivers a signal
   at every access whether or not the code polls, so this runs on one
   native domain: the read phase signals its own thread, and the poll in
   the next [read_ptr] must neutralize it before the lambda's next line
   runs.  Without the poll the line runs, and only [end_read]'s re-check
   restarts the phase. *)

module Nat = Nbr_runtime.Native_rt
module NP = Nbr_pool.Pool.Make (Nat)

module Poll (S : Nbr_core.Smr_intf.S with type pool = NP.t) = struct
  (* The attempts of the one read phase, and those that ran past the
     read. *)
  let run () =
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
                    if !attempts = 1 then Nat.send_signal tid;
                    ignore (S.read_ptr rd ~src:root ~field:0);
                    past := !attempts :: !past);
              }));
    (!attempts, List.rev !past)
end

module Poll_real = Poll (Nbr_core.Nbr.Make (Nat))
module Poll_mutant = Poll (Mut_nbr_read_ptr_poll.Nbr.Make (Nat))

let test_read_ptr_poll () =
  let pair = Alcotest.(pair int (list int)) in
  Alcotest.check pair "the signalled attempt stops at read_ptr" (2, [ 2 ])
    (Poll_real.run ());
  Alcotest.check pair "without the poll it runs past it" (2, [ 1; 2 ])
    (Poll_mutant.run ())

let suite =
  sim_cases
  @ [
      Alcotest.test_case "nbr read_ptr poll: a native test kills the mutant"
        `Quick test_read_ptr_poll;
    ]
