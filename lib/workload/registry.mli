(** The single scheme-name → functor table shared by every consumer that
    selects a reclamation scheme at runtime (harness, micro-benchmarks,
    KV serving layer, CLIs).  Unpack with
    [let module S = (val e.r_scheme) in let module Smr = S.Make (Rt)]. *)

module type SCHEME = sig
  val descriptor : Nbr_core.Smr_intf.scheme

  module Make (Rt : Nbr_runtime.Runtime_intf.S) :
    Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t
end

type entry = {
  r_desc : Nbr_core.Smr_intf.scheme;  (** the scheme's declared facts *)
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

val structures : (string * Nbr_core.Smr_intf.traversal) list
(** The six set implementations with their declared traversal facts, in
    canonical display order. *)

val structure_names : string list

val refusal : scheme:string -> structure:string -> string option
(** [Some reason] when the scheme's declared protection cannot cover the
    structure's declared traversal (paper P5); the reason opens with the
    violated fact.  [None] for a safe pair and for unknown names.  Each
    refused pair has a committed schedule in [test/test_check.ml] that
    replays a read of a freed record.
    - {b raw traversal} (harris-list, hash-set; hp, he, ibr): links read
      with [read_raw] through records that may be unlinked.  HP and HE
      publish nothing for such a hop, so a reader stopped before
      following a link follows it into a node deleted and swept
      meanwhile.  IBR's ratchet cannot validate: a reader stopped on a
      node deleted meanwhile follows its frozen link to a successor
      born after the interval and already swept (first found by the
      churn QCheck property).
    - {b rotating window} (skip-list; hp, he): a traversal keeps
      records protected past the last few reads, but a [Hazard]
      scheme's window of slots overwrites the oldest first (IBR's
      interval has no window).  A long level-0 walk rotates out the
      slot protecting a level-1 predecessor, which is then deleted and
      swept before the write phase reads it.  HE needs the era to move
      past that retirement first: three thread switches. *)

val supported : scheme:string -> structure:string -> bool
(** [refusal ~scheme ~structure = None]. *)

val unsupported : unit -> (string * string) list
(** Every refused (scheme, structure) pair, in registry order. *)
