(** The single scheme-name → functor table.

    Every consumer that needs "a reclamation scheme picked at runtime by
    name" — the trial harness, the micro-benchmarks, the KV serving
    layer, the CLIs — goes through this registry instead of hand-rolling
    its own dispatch list.  A scheme is packed as a first-class module
    whose only member is the usual [Make (Rt)] functor, so a consumer
    unpacks it against whichever runtime it is compiled for:

    {[
      let module S = (val entry.r_scheme) in
      let module Smr = S.Make (Rt) in
      ...
    ]}

    The [unsafe-free] foil (frees at retire time, no protection at all —
    the paper's motivation strawman) is carried here too but flagged
    [r_foil]: sweep-style consumers skip foils by default and only run
    them when explicitly asked. *)

module type SCHEME = sig
  module Make (Rt : Nbr_runtime.Runtime_intf.S) :
    Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t
end

type entry = {
  r_name : string;
  r_foil : bool;
      (** deliberately unsound baseline: excluded from default sweeps *)
  r_scheme : (module SCHEME);
}

let all =
  [
    { r_name = "nbr"; r_foil = false; r_scheme = (module Nbr_core.Nbr) };
    { r_name = "nbr+"; r_foil = false; r_scheme = (module Nbr_core.Nbr_plus) };
    { r_name = "debra"; r_foil = false; r_scheme = (module Nbr_core.Debra) };
    { r_name = "qsbr"; r_foil = false; r_scheme = (module Nbr_core.Qsbr) };
    { r_name = "rcu"; r_foil = false; r_scheme = (module Nbr_core.Rcu) };
    { r_name = "ibr"; r_foil = false; r_scheme = (module Nbr_core.Ibr) };
    { r_name = "hp"; r_foil = false; r_scheme = (module Nbr_core.Hp) };
    {
      r_name = "he";
      r_foil = false;
      r_scheme = (module Nbr_core.Hazard_eras);
    };
    { r_name = "none"; r_foil = false; r_scheme = (module Nbr_core.Leaky) };
    {
      r_name = "unsafe-free";
      r_foil = true;
      r_scheme = (module Nbr_core.Unsafe_free);
    };
  ]

let scheme_names =
  List.filter_map (fun e -> if e.r_foil then None else Some e.r_name) all

let all_scheme_names = List.map (fun e -> e.r_name) all

let find name = List.find_opt (fun e -> e.r_name = name) all

let find_exn name =
  match find name with
  | Some e -> e
  | None -> invalid_arg ("Registry: unknown scheme " ^ name)

let structure_names =
  [ "lazy-list"; "dgt-tree"; "harris-list"; "ab-tree"; "hash-set"; "skip-list" ]

(* Era/hazard protection cannot cover traversals through unlinked
   records (paper P5), and the rotation-window HP/HE variants here
   cannot keep a skiplist's many cross-level predecessors protected:
   never pair these schemes with those structures.  IBR shares the P5
   half of that: its era ratchet cannot protect a mark-tagged link read
   out of an already-retired record (a thread descheduled mid-traversal
   can wake inside one whose frozen link points at a freed record born
   after its announced upper bound — found by the churn QCheck property),
   so the [read_raw]-traversing structures are off limits to it too.
   IBR's validated [read_ptr] keeps it safe on the remaining structures,
   skiplist included. *)
let unsupported =
  [
    ("hp", "harris-list"); ("hp", "hash-set"); ("hp", "skip-list");
    ("he", "harris-list"); ("he", "hash-set"); ("he", "skip-list");
    ("ibr", "harris-list"); ("ibr", "hash-set");
  ]

let supported ~scheme ~structure =
  not (List.mem (scheme, structure) unsupported)
