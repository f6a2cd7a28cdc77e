(* Type fixture: a read token returned as the phase's payload, to be
   used after the read phase has ended.  The reader's field is
   polymorphic in the token's ['s], so the compiler rejects this. *)

module Make (S : Nbr_core.Smr_intf.S) = struct
  let leak ctx =
    S.op ctx (fun op ->
        S.phase op ~read:{ S.read = (fun rd -> (rd, [||])) } ~write:Fun.id)
end
