(** Hazard pointers (Michael, TPDS'04).

    Every dereference announces the target in a single-writer multi-reader
    hazard slot with a fenced publish (the paper models this with [xchg],
    whose implicit fence is cheaper than [mfence]; we do the same), then
    validates that the link it was read from is unchanged — in our
    structures every unlink modifies the link that was followed, so an
    unchanged link proves the target is not yet retired and the
    announcement was made in time.  Validation failure aborts the read
    phase through the checkpoint (the "restart" obligation HP imposes on
    data structures, paper §2/§5.3).

    Hazard slots rotate through a window of [max_reservations + 2], which
    preserves hand-over-hand protection for list/tree traversals and keeps
    the reservations passed to [phase]'s write stage protected.

    Bounded: at most (window × threads) records can be pinned. *)

(* [read_ptr] loads the link raw, then announces and validates it: the
   raw accessors are the substrate HP's protection is built on. *)
[@@@alert "-nbr_raw"]

let descriptor =
  { Smr_intf.name = "hp"; bounded_garbage = true; protection = Hazard }

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)

  type shared = {
    window : int;
    hazards : Rt.aint array array;  (** [hazards.(tid).(i)] *)
  }

  type local = {
    bag : Limbo_bag.t;
    mutable hpi : int;  (** rotation index *)
    scratch : int array;
  }

  let window cfg = cfg.Smr_config.max_reservations + 2

  module B = Smr_base.Make (Rt) (struct
    type inst = shared
    type thr = local

    let descriptor = descriptor

    let create_inst ~capacity:_ ~nthreads cfg =
      let window = window cfg in
      {
        window;
        (* Padded: hazard slots are stored (with a fence) on every guarded
           dereference by their owner and scanned by every reclaimer — the
           single most write-hot SWMR cells of any scheme here. *)
        hazards =
          Array.init nthreads (fun _ ->
              Array.init window (fun _ -> Rt.make_padded P.nil));
      }

    let create_thr ~nthreads cfg =
      {
        bag = Limbo_bag.create ();
        hpi = 0;
        scratch = Array.make (nthreads * window cfg) 0;
      }

    let size x = Limbo_bag.size x.bag

    (* Records in the bag carry no per-record metadata beyond the slot
       itself: the hazard scan pins by slot id. *)
    let push _ x slot = Limbo_bag.push x.bag slot
    let drain x = Limbo_bag.drain x.bag
    let exportable = size
    let export = drain

    let retract s tid =
      let hz = s.hazards.(tid) in
      for i = 0 to s.window - 1 do
        Rt.store hz.(i) P.nil
      done
  end)

  include B

  module W = Watchdog (struct
    let bag x = x.bag
  end)

  let max_validate_retries = 64

  let end_op = retract_end_op
  let op c body = bracket ~begin_op ~end_op c body
  let abandon = begin_op

  (* Announce-and-validate: publish the target read from pointer field
     [field] of [src], then check that the field still holds it, that the
     target has not been unlinked, and that the slot was not recycled
     under us.  The link re-read alone
     is insufficient for structures whose unlink splices an ancestor edge
     (DGT delete leaves the interior parent->leaf edge intact while both
     records retire) — the "check whether the record has already been
     unlinked" obligation the paper ascribes to HP (§2).  Failure aborts
     the read phase through the checkpoint. *)
  let read_ptr c ~src ~field =
    let hz = c.b.shared.hazards.(c.tid) in
    let x = c.local in
    let slot = x.hpi in
    x.hpi <- (x.hpi + 1) mod c.b.shared.window;
    let rec go tries =
      let p = P.raw_load_ptr c.b.pool src field in
      if p < 0 then p
      else begin
        let s0 = P.stamp c.b.pool p in
        ignore (Rt.xchg hz.(slot) p) (* fenced publish *);
        let p' = P.raw_load_ptr c.b.pool src field in
        if p = p' && P.live c.b.pool p && P.stamp c.b.pool p = s0 then begin
          if P.record_read c.b.pool p then Smr_stats.note_uaf c.st;
          p
        end
        else if tries >= max_validate_retries then raise Rt.Neutralized
        else go (tries + 1)
      end
    in
    go 0

  (* [phase] is the shared restartable one: the reservations passed by
     the data structure are the last few records it protected, and the
     rotation window is sized so they are still live, so the write phase
     needs no further publication. *)

  (* No hazard through a mark-tagged word (paper P5): the registry refuses
     HP the raw-traversal structures. *)
  let read_raw = Unguarded.read_raw

  (* Hazard scan + sweep — the threshold-crossing body of [retire], also
     run threshold-free under pool pressure.  Own hazards are skipped, as
     in the retire-time scan: records in our bag were retired by us and
     are never touched again, whatever our hazard slots still point at.
     The crash watchdog runs first: HP is bounded, so a peer frozen past
     the death threshold is claimed, its hazard slots cleared and its bag
     orphaned.  No signals to re-send. *)
  let flush c =
    W.watchdog c ~on_round:(fun ~peer:_ ~round:_ -> ());
    let x = c.local in
    if Limbo_bag.size x.bag > 0 then begin
      let k = collect_published c c.b.shared.hazards x.scratch in
      sweep c x.bag ~upto:(Limbo_bag.abs_tail x.bag) ~keep:(fun slot ->
          Smr_base.mem_sorted x.scratch k slot);
      Smr_stats.add_reclaim_events c.st 1
    end

  let on_pressure = flush
  let register = register_flushing ~flush

  let retire c slot =
    count_retire c slot;
    buffer_retired c slot ~flush
end
