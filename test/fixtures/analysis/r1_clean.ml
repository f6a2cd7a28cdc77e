(* R1 fixture, clean twin: the same store is legal in the write phase —
   the thread is non-restartable there, so it runs exactly once. *)

let lookup t ctx k =
  Smr.op ctx (fun op ->
      Smr.phase op
        ~read:{ Smr.read = (fun rd -> (Smr.read_data rd ~src:k ~field:0, [||])) }
        ~write:(fun v ->
          Rt.store t 1;
          v))
