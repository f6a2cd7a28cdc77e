(* Type fixture: an operation closed by hand.  [Smr_intf.S] has no
   [end_op]; the operation [op] opened ends when its body returns or
   raises. *)

module Make (S : Nbr_core.Smr_intf.S) = struct
  let leave ctx = S.end_op ctx
end
