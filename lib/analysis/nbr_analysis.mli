(** Static analysis of the library sources (DESIGN.md §16), exposed as
    [Nbr.Analysis]: the concurrency-idiom rules, with in-source waivers,
    an allowlist and SARIF output. *)

module Findings = Findings
module Idiom = Idiom
module Sarif = Sarif
module Driver = Driver
