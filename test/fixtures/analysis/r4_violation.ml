(* R4 fixture: a plain (unvalidated) field read inside a read phase.
   Plain reads are legal only on locked/reserved windows (write phase)
   or in sequential code; in Φread the slot may be recycled
   mid-traversal and the read returns the new occupant's bytes. *)

let find t ctx k =
  Smr.op ctx (fun op ->
      Smr.read_only op { Smr.view = (fun _ -> P.get_data t k 0 = 0) })
