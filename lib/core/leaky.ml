(** The "none" baseline: never reclaim.

    Retired records are abandoned; allocation always takes fresh slots from
    the pool.  This is the paper's leaky upper-bound on throughput (no
    reclamation costs at all) and the foil for the E2 memory experiments
    (its footprint grows linearly with updates). *)

let scheme_name = "none"
let descriptor =
  { Smr_intf.name = scheme_name; bounded_garbage = false;
    protection = Unprotected }

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)

  (* Nothing is ever buffered: the shared layer's empty-buffer form. *)
  module B = Smr_base.Make (Rt) (struct
    type inst = unit
    type thr = unit

    let descriptor = descriptor
    let create_inst ~capacity:_ ~nthreads:_ _ = ()
    let create_thr ~nthreads:_ _ = ()
    let size () = 0
    let push () () _ = ()
    let drain () = []
    let exportable = size
    let export = drain
    let retract () _ = ()
  end)

  include B
  include Unguarded

  let end_op = note_end_op
  let op c body = bracket ~begin_op ~end_op c body
  let abandon = begin_op

  (* Nothing to flush: abandoned records are gone for good, which is the
     point of the baseline — under pool pressure it simply exhausts. *)
  let on_pressure _ = ()

  let retire c slot =
    count_retire c slot;
    (* Every retire is garbage forever. *)
    Smr_stats.note_garbage c.st (Smr_stats.retires c.st)
end
