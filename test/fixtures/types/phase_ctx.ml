(* Type fixture: a phase entered with the thread's context instead of
   the token of an open operation.  [read_only] takes the token only
   [op] hands out, so the compiler rejects this. *)

module Make (S : Nbr_core.Smr_intf.S) = struct
  let find (ctx : S.ctx) t =
    S.read_only ctx { S.view = (fun rd -> S.read_data rd ~src:t ~field:0) }
end
