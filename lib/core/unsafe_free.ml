(** The unsafe foil: free immediately on retire, with no protection.

    Exists to {e demonstrate} the problem SMR solves: under concurrency,
    readers dereference freed (and recycled) slots, which the pool's
    instrumentation counts as use-after-free reads, and pointer CAS can
    succeed spuriously (ABA).  Tests use this scheme — in small, bounded
    scenarios only — to show that the detectors fire here and stay silent
    under NBR.  Never use it for anything else: traversals over recycled
    slots may not terminate. *)

let scheme_name = "unsafe-free"
(* Bounded trivially: nothing is ever buffered. *)
let descriptor =
  { Smr_intf.name = scheme_name; bounded_garbage = true;
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

  (* Nothing is ever buffered; [max_garbage] stays 0. *)
  let on_pressure _ = ()

  let retire c slot =
    count_retire c slot;
    (* Racing retires of one record are among the bugs this foil exists
       to exhibit: the second free arrives through a now-stale handle and
       the generation check rejects it — record the detection and keep
       the foil running so the other detectors get their chance. *)
    match P.free c.b.pool slot with
    | () -> Smr_stats.add_freed c.st 1
    | exception Invalid_argument _ -> Smr_stats.note_uaf c.st
end
