(* Alert fixture: a structure-side read through the pool's raw accessor,
   which skips the generation check.  Alert nbr_raw rejects it. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)

  let sneak pool h = P.raw_load_ptr pool h 0
end
