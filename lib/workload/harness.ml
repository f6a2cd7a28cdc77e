(* Name-keyed dispatch: a trial's scheme and structure modules are built
   when the trial runs, never as a table. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  let run ~scheme ~structure cfg =
    let (module S : Registry.SCHEME) =
      match Registry.find scheme with
      | Some { Registry.r_foil = false; r_scheme; _ } -> r_scheme
      | _ -> invalid_arg ("Harness.run: unknown scheme " ^ scheme)
    in
    Option.iter
      (Printf.ksprintf invalid_arg
         "Harness.run: %s cannot run %s safely (paper P5), %s" scheme
         structure)
      (Registry.refusal ~scheme ~structure);
    let module Smr = S.Make (Rt) in
    let module Run = Runner.Make (Rt) (Smr) in
    match structure with
    | "lazy-list" ->
        let module R = Run (Nbr_ds.Lazy_list.Make (Rt) (Smr)) in
        R.run cfg
    | "dgt-tree" ->
        let module R = Run (Nbr_ds.Dgt_bst.Make (Rt) (Smr)) in
        R.run cfg
    | "harris-list" ->
        let module R = Run (Nbr_ds.Harris_list.Make (Rt) (Smr)) in
        R.run cfg
    | "ab-tree" ->
        let module R = Run (Nbr_ds.Ab_tree.Make (Rt) (Smr)) in
        R.run cfg
    | "hash-set" ->
        let module H = Nbr_ds.Hash_set.Make (Rt) (Smr) in
        let module R =
          Run (struct include H let create pool = H.create pool end) in
        R.run cfg
    | "skip-list" ->
        let module R = Run (Nbr_ds.Skip_list.Make (Rt) (Smr)) in
        R.run cfg
    | _ -> invalid_arg ("Harness.run: unknown structure " ^ structure)
end
