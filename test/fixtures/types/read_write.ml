(* Type fixture: a shared-memory write inside a restartable read phase.
   When the reader is neutralized the phase restarts from its
   checkpoint, so the store would be repeated — or torn against the
   writer it was racing.  [set_data] takes a write token, which only a
   running write phase hands out, so the compiler rejects the read
   token here. *)

module Make (S : Nbr_core.Smr_intf.S) = struct
  let lookup ctx k =
    S.op ctx (fun op ->
        S.phase op
          ~read:{ S.read = (fun rd ->
            S.set_data rd k 0 1;
            (S.read_data rd ~src:k ~field:0, [||])) }
          ~write:{ S.write = (fun _ v -> v) })
end
