(** Static phase-discipline analysis for the NBR protocol
    (DESIGN.md §16), exposed as [Nbr.Analysis].

    The types of {!Nbr_core.Smr_intf.S} keep phases inside operations,
    operations balanced, validated reads inside read phases and writes,
    locks and allocation inside write phases.  This compiler-libs pass
    over the library sources checks what they cannot see: that each
    scheme's read path installs the guard of its family.  Runs as
    [dune build @lint] via [bin/nbr_lint], alongside the
    concurrency-idiom rules. *)

module Findings = Findings
module Summary = Summary
module Rules = Rules
module Idiom = Idiom
module Sarif = Sarif
module Driver = Driver
