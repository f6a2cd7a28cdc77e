(* R4 fixture, clean twin: the read phase goes through the validated
   accessor; the plain read happens in the write phase, under the lock
   that freezes the window. *)

let find t ctx k =
  Smr.begin_op ctx;
  let hit =
    Smr.phase ctx
      ~read:(fun () -> Smr.read_data ctx ~src:k ~field:0)
      ~write:(fun v ->
        P.lock t k 1;
        let w = P.get_data t k 0 in
        P.unlock t k 1;
        v + w)
  in
  Smr.end_op ctx;
  hit
