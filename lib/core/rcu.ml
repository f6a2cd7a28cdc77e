(** RCU-flavoured epoch reclamation (the IBR benchmark's "RCU" baseline).

    Readers announce the global epoch on entry and withdraw on exit;
    retired records are stamped with the epoch at retire time; a reclaimer
    bumps the global epoch and frees records stamped strictly before the
    minimum announced epoch.  Equivalent to classic EBR without DEBRA's
    amortized scanning or bag rotation.

    Not bounded: a reader stalled inside an operation pins the minimum
    epoch. *)

let scheme_name = "rcu"
let descriptor =
  { Smr_intf.name = scheme_name; bounded_garbage = false; protection = Epoch }

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)

  let idle = max_int

  type shared = {
    epoch : Rt.aint;
    ann : Rt.aint array;
    retire_ep : int array;  (** per-slot retire epoch (thread-owned writes) *)
  }

  module B = Smr_base.Make (Rt) (struct
    type inst = shared
    type thr = Limbo_bag.t

    let descriptor = descriptor

    let create_inst ~capacity ~nthreads _ =
      {
        (* Padded: the global epoch is bumped by every reclaimer while
           every reader loads it, and the per-thread announcements are
           SWMR cells scanned by all reclaimers — classic false-sharing
           hot spots. *)
        epoch = Rt.make_padded 1;
        ann = Array.init nthreads (fun _ -> Rt.make_padded idle);
        retire_ep = Array.make capacity 0;
      }

    let create_thr ~nthreads:_ _ = Limbo_bag.create ()
    let size = Limbo_bag.size

    (* Retire epochs live in the instance-level [retire_ep] array, so
       adopted and collected slots carry everything the sweep predicate
       needs. *)
    let push _ bag slot = Limbo_bag.push bag slot
    let drain = Limbo_bag.drain
    let exportable = size
    let export = drain

    (* Withdraw the announcement: a departed reader must not pin the
       minimum epoch. *)
    let retract s tid = Rt.store s.ann.(tid) idle
  end)

  include B
  include Unguarded

  let begin_op c =
    B.begin_op c;
    Rt.store c.b.shared.ann.(c.tid) (Rt.load c.b.shared.epoch)

  let end_op = retract_end_op
  let op c body = bracket ~begin_op ~end_op c body
  let abandon = begin_op

  (* Bump the epoch and free everything retired strictly before the
     minimum announced epoch — the threshold-crossing body of [retire],
     also run threshold-free under pool pressure.  Our own announcement
     participates in the minimum, so records retired during the current
     operation stay pinned (conservative and safe mid-operation). *)
  let flush c =
    let s = c.b.shared and bag = c.local in
    if Limbo_bag.size bag > 0 then begin
      ignore (Rt.faa s.epoch 1);
      let min_ann = ref max_int in
      for t = 0 to c.b.n - 1 do
        let a = Rt.load s.ann.(t) in
        if a < !min_ann then min_ann := a
      done;
      sweep c bag ~upto:(Limbo_bag.abs_tail bag) ~keep:(fun slot ->
          s.retire_ep.(P.uid c.b.pool slot) >= !min_ann);
      Smr_stats.add_reclaim_events c.st 1
    end

  let on_pressure = flush
  let register = register_flushing ~flush

  let retire c slot =
    count_retire c slot;
    c.b.shared.retire_ep.(P.uid c.b.pool slot) <- Rt.load c.b.shared.epoch;
    buffer_retired c slot ~flush
end
