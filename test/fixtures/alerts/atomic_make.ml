(* Alert fixture: a bare shared cell, compiled as lib/core and lib/ds
   are.  Alert nbr_atomic_make rejects it: such cells go through the
   runtime, so the simulator costs them. *)

let hits = Atomic.make 0
