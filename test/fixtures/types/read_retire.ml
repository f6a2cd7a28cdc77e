(* Type fixture: a retire inside a restartable read phase.  A replay
   would retire the record again, and the record is still linked: the
   unlink that makes a retire safe belongs to the write phase.
   [retire] takes a write token, so the compiler rejects the read token
   here. *)

module Make (S : Nbr_core.Smr_intf.S) = struct
  let drop ctx k =
    S.op ctx (fun op ->
        S.read_only op { S.view = (fun rd -> S.retire rd k) })
end
