(* Type fixture: a plain (unvalidated) field read inside a read phase.
   Plain reads are legal only on locked/reserved windows (the write
   phase); in Φread the slot may be recycled mid-traversal and the read
   would return the new occupant's bytes.  [get_data] takes a write
   token, so the compiler rejects the read token here. *)

module Make (S : Nbr_core.Smr_intf.S) = struct
  let find ctx k =
    S.op ctx (fun op ->
        S.read_only op { S.view = (fun rd -> S.get_data rd k 0 = 0) })
end
