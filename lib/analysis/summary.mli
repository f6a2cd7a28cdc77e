(** Per-function effect summaries — the interprocedural substrate of the
    R2 scheme checks (DESIGN.md §16).

    Each function gets its [closure]: the transitive union of the
    protocol effects its body may run.  Protocol builtins (Pool / Rt /
    Atomic) come from a curated table; module aliases and functor
    parameters are resolved to it; other analyzed files resolve to their
    computed summaries; everything else is benign. *)

(** {1 Effect bits} *)

val shared_write : int
val poll : int
val checkpoint : int
val validate : int

type entry = { closure : int; ent_loc : Location.t }

type target = Builtin of string | File of string | Benign

type info = {
  path : string;
  modname : string;
  structure : Parsetree.structure;
  locals : (string, target) Hashtbl.t;
  fns : (string, entry) Hashtbl.t;
  mutable includes : string list;
  mutable scheme : string option;
}

type t = { infos : info list; by_mod : (string, info) Hashtbl.t }

val build : (string * Parsetree.structure) list -> t
(** Compute summaries for a set of parsed files, iterating the
    cross-file fixpoint to stability. *)

val lookup_fn : t -> info -> string -> entry option
(** Resolve a bare function name in [info]'s scope (local table, then
    includes). *)
