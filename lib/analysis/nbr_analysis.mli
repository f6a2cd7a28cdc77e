(** Static phase-discipline analysis for the NBR protocol
    (DESIGN.md §16), exposed as [Nbr.Analysis]. *)

module Findings = Findings
module Summary = Summary
module Rules = Rules
module Idiom = Idiom
module Sarif = Sarif
module Driver = Driver
