(* R1 fixture: a record lock taken inside a restartable read phase.  A
   neutralized reader restarts from its checkpoint still holding the
   lock, and every writer that needs the record then spins forever.
   Locks belong in the write phase: r4_clean.ml takes the same lock
   there and is silent.  [P.lock] takes no read token, so only the
   analyzer sees this. *)

let find t ctx k =
  Smr.op ctx (fun op ->
      Smr.phase op
        ~read:{ Smr.read = (fun rd ->
          P.lock t k 1;
          (Smr.read_data rd ~src:k ~field:0, [||])) }
        ~write:(fun v ->
          P.unlock t k 1;
          v))
