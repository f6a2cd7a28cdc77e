(** NBR: Neutralization Based Reclamation (paper Algorithm 1).

    Each thread buffers unlinked records in its limbo bag; when the bag
    reaches the threshold the thread sends a neutralizing signal to every
    other thread ([signalAll]), then scans all reservations and frees every
    unreserved record in its bag.  Readers respond to signals by restarting
    their read phase; writers are protected by the reservations they
    published before becoming non-restartable.

    This is the baseline version: every reclamation event costs n-1
    signals, so a collective round of reclamation costs O(n²) signals —
    the bottleneck NBR+ removes (§5). *)

let scheme_name = "nbr"
let descriptor =
  { Smr_intf.name = scheme_name; bounded_garbage = true;
    protection = Neutralization }

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  include Nbr_base.Make (Rt) (struct let descriptor = descriptor end)

  let on_pressure = flush
  let register = register_flushing ~flush

  (* Algorithm 1, lines 14–20 — with the threshold crossing first offered
     to the background reclaimer: an accepted handoff replaces the whole
     signalAll + scan with one channel push.  As in the paper, the
     threshold is tested before the push, which is why this is not the
     shared [buffer_retired]. *)
  let retire c slot =
    count_retire c slot;
    if Limbo_bag.size c.local.bag >= c.b.cfg.Smr_config.bag_threshold then
      if not (maybe_offload c) then flush c;
    bag_push c slot
end
