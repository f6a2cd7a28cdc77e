(** The single scheme-name → functor table shared by every consumer that
    selects a reclamation scheme at runtime (harness, micro-benchmarks,
    KV serving layer, CLIs).  Unpack with
    [let module S = (val e.r_scheme) in let module Smr = S.Make (Rt)]. *)

module type SCHEME = sig
  module Make (Rt : Nbr_runtime.Runtime_intf.S) :
    Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t
end

type entry = {
  r_name : string;
  r_foil : bool;
      (** deliberately unsound baseline (unsafe-free): excluded from
          default sweeps, runnable only on explicit request *)
  r_scheme : (module SCHEME);
}

val all : entry list
(** All ten schemes, foils included, in canonical display order. *)

val scheme_names : string list
(** Names of the nine sound schemes (foils excluded). *)

val all_scheme_names : string list
(** All ten names, foils included. *)

val find : string -> entry option
val find_exn : string -> entry

val structure_names : string list
(** The six set implementations, in canonical display order. *)

val unsupported : (string * string) list
(** (scheme, structure) pairs that are unsafe by construction (paper P5:
    hazard/era protection cannot cover traversals through unlinked
    records). *)

val supported : scheme:string -> structure:string -> bool
