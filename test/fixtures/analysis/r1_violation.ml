(* R1 fixture: a shared-memory write inside a restartable read phase.
   When the reader is neutralized the phase restarts from its
   checkpoint, so the store would be repeated — or torn against the
   writer it was racing.  The read token does not stop it: [Rt.store]
   takes none. *)

let lookup t ctx k =
  Smr.op ctx (fun op ->
      Smr.phase op
        ~read:{ Smr.read = (fun rd ->
          Rt.store t 1;
          (Smr.read_data rd ~src:k ~field:0, [||])) }
        ~write:(fun v -> v))
