(* R4 fixture, clean twin: the read phase goes through the validated
   accessor; the plain read happens in the write phase, under the lock
   that freezes the window. *)

let find t ctx k =
  Smr.op ctx (fun op ->
      Smr.phase op
        ~read:{ Smr.read = (fun rd -> (Smr.read_data rd ~src:k ~field:0, [||])) }
        ~write:(fun v ->
          P.lock t k 1;
          let w = P.get_data t k 0 in
          P.unlock t k 1;
          v + w))
