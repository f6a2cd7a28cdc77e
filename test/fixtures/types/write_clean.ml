(* Type fixture, clean twin of read_write.ml, read_lock.ml and
   plain_read.ml: the read phase goes through the validated accessor;
   the lock, the plain read, the allocation, the write and the retire
   happen in the write phase, through its token.  It must compile. *)

module Make (S : Nbr_core.Smr_intf.S) = struct
  let replace ctx k =
    S.op ctx (fun op ->
        S.phase op
          ~read:{ S.read = (fun rd -> (S.read_data rd ~src:k ~field:0, [| k |])) }
          ~write:{ S.write = (fun wr v ->
            S.lock wr k 1;
            let w = S.get_data wr k 0 in
            let fresh = S.alloc wr in
            S.set_data wr fresh 0 (v + w);
            S.unlock wr k 1;
            S.retire wr k;
            fresh) })
end
