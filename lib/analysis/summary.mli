(** Per-function effect summaries — the interprocedural substrate of
    the R1, R2 and R4 phase-discipline rules (DESIGN.md §16).

    Each function gets two effect bitmasks: [exposed] (what a caller
    observes; effects inside phase-combinator lambdas and
    [reader]/[viewer] record literals are masked because the phase
    provides the guard) and [closure] (the
    unmasked transitive union, used by the per-scheme R2 checks).
    Protocol builtins (Smr / Pool / Rt / Atomic) come from a
    curated table; module aliases, functor parameters and first-class
    module unpacks are resolved to it; other analyzed files resolve to
    their computed summaries; everything else is benign. *)

(** {1 Effect bits} *)

val shared_write : int
val lock : int
val alloc : int
val retire : int
val free : int
val plain : int
val poll : int
val begins : int
val ends : int
val phase : int
val checkpoint : int
val validate : int

val impure : int
(** The read-phase-purity mask: shared writes, locking, allocation,
    retirement, frees. *)

val pp_bits : int -> string
(** Human-readable ["a+b+c"] rendering of a mask, for messages. *)

type entry = { exposed : int; closure : int; ent_loc : Location.t }

type target = Builtin of string | File of string | Benign

type info = {
  path : string;
  modname : string;
  structure : Parsetree.structure;
  locals : (string, target) Hashtbl.t;
  fns : (string, entry) Hashtbl.t;
  mutable includes : string list;
  mutable scheme : string option;
  mutable verb_defs : string list;
}

type t = { infos : info list; by_mod : (string, info) Hashtbl.t }

val build : (string * Parsetree.structure) list -> t
(** Compute summaries for a set of parsed files, iterating the
    cross-file fixpoint to stability. *)

val call_effect : t -> info -> Parsetree.expression -> (int * int) option
(** [(exposed, closure)] for an application node whose head is an
    identifier; [None] for anything else. *)

val is_function : Parsetree.expression -> bool
val peel_fun : Parsetree.expression -> Parsetree.expression

val read_lambda : Parsetree.expression -> Parsetree.expression option
(** The read lambda of a [reader]/[viewer] record literal
    ([{ read = f }] / [{ view = f }], qualified or not). *)

val is_smr_impl : info -> bool
(** Files that implement the SMR protocol (define [scheme_name] or
    several protocol verbs) are checked by the per-scheme R2 rules
    instead of the client-side rules. *)

val lookup_fn : t -> info -> string -> entry option
(** Resolve a bare function name in [info]'s scope (local table, then
    includes). *)
