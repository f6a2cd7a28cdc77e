(** Static analysis of the library sources (DESIGN.md §16), exposed as
    [Nbr.Analysis].

    The types of {!Nbr_core.Smr_intf.S} keep phases inside operations,
    operations balanced, validated reads inside read phases and writes,
    locks and allocation inside write phases.  The protocol steps each
    scheme's own read path must take (its restart checkpoint, NBR's
    neutralization poll, HP/HE/IBR publication and validation, the epoch
    family's announcement) are certified by schedules that kill a mutant
    of each (test/test_mutants.ml).  What stays here is a compiler-libs
    pass for the concurrency-idiom rules, with in-source waivers, an
    allowlist and SARIF output.  Runs as [dune build @lint] via
    [bin/nbr_lint]. *)

module Findings = Findings
module Idiom = Idiom
module Sarif = Sarif
module Driver = Driver
