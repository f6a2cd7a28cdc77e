(* Type fixture: an allocation inside a restartable read phase, through
   the operation's token.  Each replay of the phase would allocate
   again and leak the record it allocated before.  [alloc] takes a
   write token, not the [op] token, so the compiler rejects this. *)

module Make (S : Nbr_core.Smr_intf.S) = struct
  let prepare ctx k =
    S.op ctx (fun op ->
        S.phase op
          ~read:{ S.read = (fun rd ->
            let fresh = S.alloc op in
            ((fresh, S.read_data rd ~src:k ~field:0), [||])) }
          ~write:{ S.write = (fun _ v -> v) })
end
