(* Development smoke test: every scheme × structure pair on the simulator,
   plus NBR+ on the native runtime, with set-semantics validation. *)

module Sim = Nbr.Runtime.Sim
module Nat = Nbr.Runtime.Native
module H_sim = Nbr.Workload.Harness.Make (Sim)
module H_nat = Nbr.Workload.Harness.Make (Nat)

let check r =
  let ok = Nbr.Workload.Trial.valid r in
  Format.printf "%a%s@." Nbr.Workload.Trial.pp_row r
    (if ok then "" else "  <-- FAILED");
  ok

let () =
  Sim.set_config { Sim.default_config with cores = 4 };
  let ok = ref true in
  let cfg =
    Nbr.Workload.Trial.Cfg.make ~nthreads:6 ~duration_ns:1_500_000 ~key_range:256
      ~smr:(Nbr.Scheme.Config.with_threshold Nbr.Scheme.Config.default 64)
      ()
  in
  List.iter
    (fun scheme ->
      List.iter
        (fun structure ->
          if Nbr.Workload.Registry.supported ~scheme ~structure then
            ok := check (H_sim.run ~scheme ~structure cfg) && !ok)
        Nbr.Workload.Registry.structure_names)
    Nbr.Workload.Registry.scheme_names;
  (* Native spot-checks. *)
  let ncfg = Nbr.Workload.Trial.Cfg.make ~nthreads:4 ~duration_ns:300_000_000 () in
  List.iter
    (fun (s, d) -> ok := check (H_nat.run ~scheme:s ~structure:d ncfg) && !ok)
    [
      ("nbr+", "lazy-list");
      ("nbr+", "dgt-tree");
      ("nbr", "harris-list");
      ("debra", "ab-tree");
      ("hp", "dgt-tree");
    ];
  if !ok then print_endline "smoke OK" else (print_endline "smoke FAILED"; exit 1)
