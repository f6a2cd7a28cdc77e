(** The scheme × structure trial matrix for one runtime.

    Instantiates every sound scheme from {!Registry} against every data
    structure and exposes uniform [run] entry points keyed by name, so
    experiment definitions (and the CLI) can express figures as data. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module For_scheme
      (Smr : Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t) =
  struct
    module LL = Runner.Make (Rt) (Smr) (Nbr_ds.Lazy_list.Make (Rt) (Smr))
    module DG = Runner.Make (Rt) (Smr) (Nbr_ds.Dgt_bst.Make (Rt) (Smr))
    module HL = Runner.Make (Rt) (Smr) (Nbr_ds.Harris_list.Make (Rt) (Smr))
    module AB = Runner.Make (Rt) (Smr) (Nbr_ds.Ab_tree.Make (Rt) (Smr))

    module SK = Runner.Make (Rt) (Smr) (Nbr_ds.Skip_list.Make (Rt) (Smr))

    module HS =
      Runner.Make (Rt) (Smr)
        (struct
          module H = Nbr_ds.Hash_set.Make (Rt) (Smr)

          type t = H.t

          let name = H.name
          let data_fields = H.data_fields
          let ptr_fields = H.ptr_fields
          let max_reservations = H.max_reservations
          let create pool = H.create pool
          let contains = H.contains
          let insert = H.insert
          let delete = H.delete
          let size = H.size
        end)

    let runners =
      [
        ("lazy-list", LL.run);
        ("dgt-tree", DG.run);
        ("harris-list", HL.run);
        ("ab-tree", AB.run);
        ("hash-set", HS.run);
        ("skip-list", SK.run);
      ]
  end

  let runners_of (module S : Registry.SCHEME) =
    let module Smr = S.Make (Rt) in
    let module F = For_scheme (Smr) in
    F.runners

  let schemes =
    List.filter_map
      (fun e ->
        if e.Registry.r_foil then None
        else Some (e.Registry.r_name, runners_of e.Registry.r_scheme))
      Registry.all

  let scheme_names = List.map fst schemes
  let structure_names = Registry.structure_names
  let unsupported = Registry.unsupported
  let supported = Registry.supported

  let run ~scheme ~structure cfg =
    match List.assoc_opt scheme schemes with
    | None -> invalid_arg ("Harness.run: unknown scheme " ^ scheme)
    | Some rs -> (
        match List.assoc_opt structure rs with
        | None -> invalid_arg ("Harness.run: unknown structure " ^ structure)
        | Some r -> r cfg)
end
