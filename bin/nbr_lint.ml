(* Static analysis driver for the NBR codebase (DESIGN.md §11, §16).

   A thin shell over [Nbr_analysis.Driver]: the concurrency-idiom rules
   (atomic-make, domain-dls, obj-magic, pool-raw-index, missing-mli,
   parse).

   Usage: nbr_lint [--github] [--allowlist FILE] [--sarif FILE] DIR...
   Exit status 1 iff any finding is not allowlisted or waived. *)

let () = exit (Nbr_analysis.Driver.main ())
