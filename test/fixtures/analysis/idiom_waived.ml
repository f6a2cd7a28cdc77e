(* Waiver fixture: the same raw cell access as idiom_violation, but
   deliberately waived in source — the finding must be counted as
   suppressed, not reported. *)

let sneak pool h = (P.raw_load_ptr pool h 0 [@nbr.allow pool-raw-index])
