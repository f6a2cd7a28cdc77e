(** The concurrency-idiom rules, as compiler alerts.

    Every library under [lib/] opens this module through its dune
    [flags], so [Obj] and [Domain] there are these re-exports of the
    stdlib modules: the same values and types, with an alert on the
    entry point an idiom rule forbids.  [lib/core] and [lib/ds] also
    open {!Scheme}, and [lib/runtime] opens {!Runtime}.  The root [dune]
    file makes the alerts errors (the flags are in [lib/idiom/alerts]);
    a deliberate use carries a file-level waiver,
    [[@@@alert "-nbr_..."]], with its reason beside it.  The fourth
    alert, [nbr_raw], is declared on the pool's raw accessors.

    Dune's dev profile compiles every library [-opaque], so a call to a
    [val] of this module is a closure call where the stdlib's own would
    have been inlined.  What the libraries call is therefore left to the
    stdlib where no rule applies ([Atomic] outside [lib/core] and
    [lib/ds], [Domain] in [lib/runtime]), and {!Scheme.Atomic} declares
    the primitives the stdlib implements its atomics with, so those
    calls compile as before. *)

module Obj : sig
  include module type of struct include Stdlib.Obj end

  external magic : 'a -> 'b = "%identity"
  [@@alert nbr_obj_magic "Obj.magic defeats the type system; find another way"]
end

module Domain : sig
  include module type of struct include Stdlib.Domain end

  module DLS : module type of struct include Stdlib.Domain.DLS end
  [@@alert
    nbr_domain_dls
      "Domain.DLS outside lib/runtime: thread identity is a runtime \
       concern (use the tid-threaded _t interfaces)"]
end

(** The scheme and structure layer: shared cells go through the runtime. *)
module Scheme : sig
  module Atomic : sig
    include module type of struct include Stdlib.Atomic end

    external make : 'a -> 'a t = "%makemutable"
    [@@alert
      nbr_atomic_make
        "bare Atomic.make in scheme/structure code: shared cells must go \
         through Rt.make / Rt.make_padded (or Nbr_sync.Padded) so the \
         simulator costs them and hot cells get cache-line isolation"]

    external get : 'a t -> 'a = "%atomic_load"
    external exchange : 'a t -> 'a -> 'a = "%atomic_exchange"
    external compare_and_set : 'a t -> 'a -> 'a -> bool = "%atomic_cas"
    external fetch_and_add : int t -> int -> int = "%atomic_fetch_add"
  end
end

(** The runtime layer, where thread identity lives: the stdlib's
    [Domain]. *)
module Runtime : sig
  module Domain = Stdlib.Domain
end
