(* Alert fixture, clean twin of raw.ml: the same raw read, waived for the
   file as the scheme layer waives it.  It must compile. *)

(* The read stands for a scheme's protected read. *)
[@@@alert "-nbr_raw"]

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)

  let sneak pool h = P.raw_load_ptr pool h 0
end
