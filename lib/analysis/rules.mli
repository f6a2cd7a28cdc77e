(** The phase-discipline rules the types of {!Nbr_core.Smr_intf.S} do
    not already enforce (DESIGN.md §16):

    - R1 [read-phase-write] — no shared-memory writes, locks,
      allocation, retirement, operation bracketing or nested phases
      inside a read lambda;
    - R2 [unguarded-deref] — each scheme's read path installs the guard
      of its family (restart checkpoint, neutralization poll,
      reservation publication and validation, epoch announcement);
    - R4 [write-phase-read] — plain (unvalidated) field reads only on
      locked/reserved windows, never inside a read lambda. *)

val rule_r1 : string
val rule_r2 : string
val rule_r4 : string
val all_rules : string list

type family = Neutralization | Hazard | Epoch | Foil | Unknown_family

val family_of_scheme : string -> family
(** Guard lattice per scheme family: Neutralization (nbr, nbr+) needs a
    checkpoint + neutralization poll; Hazard (hp, he, ibr) needs a
    published reservation/era + liveness validation; Epoch (debra, qsbr,
    rcu) needs an epoch announcement at begin_op; Foils (none,
    unsafe-free) are exempt. *)

val check_scheme : Summary.t -> Summary.info -> Findings.t list
(** Per-scheme-family R2 closure checks for SMR-implementation files. *)

val check :
  Summary.t -> Summary.info -> Findings.Waivers.t -> Findings.t list
(** Run the rules over one file (R1/R4 for structure and service code,
    the R2 scheme checks for SMR implementations), collecting
    [@nbr.allow] waivers into [waivers] along the way. *)
