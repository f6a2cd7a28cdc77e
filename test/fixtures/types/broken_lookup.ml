(* Type fixture: test/broken_ds.ml's [broken_lookup], written against
   [Smr_intf.S] instead of the concrete NBR+ module.  It opens an
   operation by hand, dereferences with no phase entered and never
   closes the operation; the compiler stops at the first of these. *)

module Make
    (P : sig
      type t

      val record_read : t -> int -> bool
      val get_data : t -> int -> int -> int
    end)
    (S : Nbr_core.Smr_intf.S) =
struct
  let broken_lookup pool ctx root =
    S.begin_op ctx;
    let a = S.read_ptr ctx ~src:root ~field:0 in
    if a >= 0 && P.record_read pool a then ignore (P.get_data pool a 0)
end
