(* Static analysis driver for the NBR codebase (DESIGN.md §11, §16).

   A thin shell over [Nbr_analysis.Driver]: the concurrency-idiom rules
   (atomic-make, domain-dls, obj-magic, pool-raw-index, missing-mli)
   plus the phase-discipline rule the SMR interface's types leave open
   (unguarded-deref: each scheme's read path installs its family's
   guard) over per-callee effect summaries.

   Usage: nbr_lint [--github] [--allowlist FILE] [--sarif FILE] DIR...
   Exit status 1 iff any finding is not allowlisted or waived. *)

let () = exit (Nbr_analysis.Driver.main ())
