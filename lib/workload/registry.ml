(* See registry.mli: a scheme's declared facts and its [Make] functor. *)

module type SCHEME = sig
  val descriptor : Nbr_core.Smr_intf.scheme

  module Make (Rt : Nbr_runtime.Runtime_intf.S) :
    Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t
end

type entry = {
  r_desc : Nbr_core.Smr_intf.scheme;
  r_foil : bool;
  r_scheme : (module SCHEME);
}

let entry ?(foil = false) (module S : SCHEME) =
  { r_desc = S.descriptor; r_foil = foil; r_scheme = (module S) }

let all =
  Nbr_core.
    [
      entry (module Nbr); entry (module Nbr_plus); entry (module Debra);
      entry (module Qsbr); entry (module Rcu); entry (module Ibr);
      entry (module Hp); entry (module Hazard_eras); entry (module Leaky);
      entry ~foil:true (module Unsafe_free);
    ]

let scheme_names =
  List.filter_map (fun e -> if e.r_foil then None else Some e.r_desc.name) all

let all_scheme_names = List.map (fun e -> e.r_desc.name) all

let find name = List.find_opt (fun e -> e.r_desc.name = name) all

let find_exn name =
  match find name with
  | Some e -> e
  | None -> invalid_arg ("Registry: unknown scheme " ^ name)

let structures =
  Nbr_ds.
    [
      ("lazy-list", Lazy_list.traversal); ("dgt-tree", Dgt_bst.traversal);
      ("harris-list", Harris_list.traversal); ("ab-tree", Ab_tree.traversal);
      ("hash-set", Hash_set.traversal); ("skip-list", Skip_list.traversal);
    ]

let structure_names = List.map fst structures

let reason (d : Nbr_core.Smr_intf.scheme) (t : Nbr_core.Smr_intf.traversal) =
  match (d.protection, t) with
  | (Hazard | Interval), { raw = true; _ } ->
      Some
        "raw traversal: it reads links with read_raw through records that \
         may be unlinked, which per-read protection cannot cover"
  | Hazard, { keeps_old = true; _ } ->
      Some
        "rotating window: it keeps protected records older than the \
         scheme's window of slots holds"
  | _ -> None

let refusal ~scheme ~structure =
  match (find scheme, List.assoc_opt structure structures) with
  | Some e, Some t -> reason e.r_desc t
  | _ -> None

let supported ~scheme ~structure = refusal ~scheme ~structure = None

let unsupported () =
  List.concat_map
    (fun e ->
      List.filter_map
        (fun (structure, t) ->
          Option.map (fun _ -> (e.r_desc.name, structure)) (reason e.r_desc t))
        structures)
    all
