(** R2 [unguarded-deref] (DESIGN.md §16): each scheme's read path
    installs the guard of its family — restart checkpoint,
    neutralization poll, reservation publication and validation, epoch
    announcement.  The rest of the paper's phase discipline is in the
    types of {!Nbr_core.Smr_intf.S}. *)

val rule_r2 : string

type family = Neutralization | Hazard | Epoch | Foil | Unknown_family

val family_of_scheme : string -> family
(** Guard lattice per scheme family: Neutralization (nbr, nbr+) needs a
    checkpoint + neutralization poll; Hazard (hp, he, ibr) needs a
    published reservation/era + liveness validation; Epoch (debra, qsbr,
    rcu) needs an epoch announcement at begin_op; Foils (none,
    unsafe-free) are exempt. *)

val checks : family -> (string * int * string) list
(** The family's closure checks: a function name, the {!Summary} effect
    bit its closure must carry, and the finding's message without it. *)

val check_scheme : Summary.t -> Summary.info -> Findings.t list
(** The R2 closure checks for a file that defines [scheme_name]; no
    findings for any other file. *)
