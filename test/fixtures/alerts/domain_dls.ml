(* Alert fixture: thread identity kept outside the native runtime.  Alert
   nbr_domain_dls rejects it. *)

let key = Domain.DLS.new_key (fun () -> 0)
