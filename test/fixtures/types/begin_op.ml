(* Type fixture: an operation opened by hand.  [Smr_intf.S] has no
   [begin_op]; only [op] opens an operation, and it closes it too. *)

module Make (S : Nbr_core.Smr_intf.S) = struct
  let enter ctx = S.begin_op ctx
end
