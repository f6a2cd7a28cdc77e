(* Type fixture: a record lock taken inside a restartable read phase.  A
   neutralized reader restarts from its checkpoint still holding the
   lock, and every writer that needs the record then spins forever.
   [lock] takes a write token, so the compiler rejects the read token
   here; write_clean.ml takes the same lock in the write phase. *)

module Make (S : Nbr_core.Smr_intf.S) = struct
  let find ctx k =
    S.op ctx (fun op ->
        S.phase op
          ~read:{ S.read = (fun rd ->
            S.lock rd k 1;
            (S.read_data rd ~src:k ~field:0, [||])) }
          ~write:{ S.write = (fun wr v ->
            S.unlock wr k 1;
            v) })
end
