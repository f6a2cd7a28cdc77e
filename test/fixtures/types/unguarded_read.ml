(* Type fixture: a validated read given the thread's context outside any
   phase.  [read_ptr] takes a read token, which only a running read
   phase hands out, so the compiler rejects this. *)

module Make (S : Nbr_core.Smr_intf.S) = struct
  let peek (ctx : S.ctx) t = S.read_ptr ctx ~src:t ~field:0
end
