(* Waiver fixture: the same plain read in a read phase as r4_violation,
   but deliberately waived in source — the finding must be counted as
   suppressed, not reported. *)

let find t ctx k =
  Smr.op ctx (fun op ->
      Smr.read_only op
        { Smr.view = (fun _ ->
            (P.get_data t k 0 [@nbr.allow write-phase-read]) = 0) })
