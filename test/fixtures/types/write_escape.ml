(* Type fixture: a write token returned from its write phase, to lock or
   write after the phase (and the reservations that protect it) have
   ended.  The writer's field is polymorphic in the token's ['s], so the
   compiler rejects this. *)

module Make (S : Nbr_core.Smr_intf.S) = struct
  let leak ctx =
    S.op ctx (fun op ->
        S.phase op
          ~read:{ S.read = (fun _ -> ((), [||])) }
          ~write:{ S.write = (fun wr () -> wr) })
end
