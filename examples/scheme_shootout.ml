(* Compare every reclamation scheme on your workload before committing.

   Run with:  dune exec examples/scheme_shootout.exe -- [list|tree]

   This is the decision most users of an SMR library actually face: given
   a structure and an operation mix, which reclamation scheme should I
   use?  The example sweeps all of them on a simulated 16-core machine at
   32 threads (oversubscribed, like a loaded server) and prints
   throughput, peak memory, and the signal/restart overheads — the P1/P2
   trade-off the paper is about, measured on your own workload shape. *)

module Sim = Nbr.Runtime.Sim
module H = Nbr.Workload.Harness.Make (Sim)
module T = Nbr.Workload.Trial

let () =
  let structure =
    match Sys.argv with
    | [| _; "list" |] -> "lazy-list"
    | [| _; "tree" |] | [| _ |] -> "dgt-tree"
    | [| _; "skiplist" |] -> "skip-list"
    | [| _; "hash" |] -> "hash-set"
    | _ ->
        prerr_endline "usage: scheme_shootout [list|tree|skiplist|hash]";
        exit 2
  in
  let key_range = if structure = "lazy-list" then 512 else 16384 in
  Printf.printf
    "32 threads on 16 simulated cores, %s, %d keys, 25%% ins / 25%% del\n\n"
    structure key_range;
  Printf.printf "%-8s %12s %10s %10s %10s %10s\n" "scheme" "Mops/s" "peak-recs"
    "signals" "restarts" "bounded?";
  List.iter
    (fun scheme ->
      Sim.set_config { Sim.default_config with cores = 16; seed = 9 };
      let cfg =
        T.Cfg.make ~nthreads:32 ~duration_ns:1_500_000 ~key_range ~ins_pct:25
          ~del_pct:25
          ~smr:
            (Nbr.Scheme.Config.with_threshold Nbr.Scheme.Config.default
               256)
          ~seed:9 ()
      in
      if Nbr.Workload.Registry.supported ~scheme ~structure then begin
        let r = H.run ~scheme ~structure cfg in
        assert (T.valid r);
        Printf.printf "%-8s %12.2f %10d %10d %10d %10s\n" scheme
          r.T.throughput_mops r.T.peak_unreclaimed r.T.signals
          (Nbr.Scheme.Stats.restarts r.T.smr_stats)
          (match (Nbr.Workload.Registry.find_exn scheme).r_desc with
          | { bounded_garbage = true; _ } -> "yes"
          | { protection = Unprotected; _ } -> "leaks!"
          | _ -> "no")
      end)
    [ "nbr+"; "nbr"; "debra"; "qsbr"; "rcu"; "ibr"; "hp"; "he"; "none" ]
