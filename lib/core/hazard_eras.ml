(** Hazard Eras (Ramalhete & Correia, SPAA'17).

    The scheme that seeded the interval-based family the paper benchmarks
    (IBR descends from it, WFE builds on it; §2).  Hazard-pointer shaped,
    but slots publish {e eras} instead of pointers: every record carries
    birth and retire eras; a dereference publishes the current global era
    in one of the thread's era slots (validating that the era did not move
    during the read, like HP's re-read); a record may be freed only if no
    published era falls within its [birth, retire] lifetime.

    Compared to {!Ibr} (2GEIBR) a thread pins a set of discrete eras
    rather than one interval — cheaper when an operation dereferences few
    records, and a slot-for-slot drop-in for HP code.  Like HP and IBR it
    cannot protect traversals through unlinked records (the paper's P5
    objection): [read_raw] publishes nothing, so the registry refuses HE
    the raw-traversal structures.

    Bounded: a stalled thread pins at most its published eras' records. *)

let descriptor =
  { Smr_intf.name = "he"; bounded_garbage = true; protection = Hazard }

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)

  let empty_slot = -1

  type shared = {
    window : int;
    era : Rt.aint;
    slots : Rt.aint array array;  (** published eras; -1 = empty *)
    birth : Rt.cells;
    retire_era : Rt.cells;
  }

  type local = {
    bag : Limbo_bag.t;
    mutable hpi : int;
    mutable alloc_count : int;
    scratch : int array;  (** collected eras at reclamation *)
  }

  let window cfg = cfg.Smr_config.max_reservations + 2

  module B = Smr_base.Make (Rt) (struct
    type inst = shared
    type thr = local

    let descriptor = descriptor

    let create_inst ~capacity ~nthreads cfg =
      let window = window cfg in
      {
        window;
        (* Padded era + per-thread SWMR era slots; per-record birth/retire
           stamps stay unpadded (capacity-sized, accessed with the
           record). *)
        era = Rt.make_padded 1;
        slots =
          Array.init nthreads (fun _ ->
              Array.init window (fun _ -> Rt.make_padded empty_slot));
        birth = Rt.make_cells capacity 0;
        retire_era = Rt.make_cells capacity 0;
      }

    let create_thr ~nthreads cfg =
      {
        bag = Limbo_bag.create ();
        hpi = 0;
        alloc_count = 0;
        scratch = Array.make (nthreads * window cfg) 0;
      }

    let size x = Limbo_bag.size x.bag

    (* Birth/retire eras live in the instance-level metadata blocks, so
       adopted and collected slots carry everything the era sweep
       needs. *)
    let push _ x slot = Limbo_bag.push x.bag slot
    let drain x = Limbo_bag.drain x.bag
    let exportable = size
    let export = drain

    let retract s tid =
      let sl = s.slots.(tid) in
      for i = 0 to s.window - 1 do
        Rt.store sl.(i) empty_slot
      done
  end)

  include B

  module W = Watchdog (struct
    let bag x = x.bag
  end)

  let end_op = retract_end_op
  let op c body = bracket ~begin_op ~end_op c body
  let abandon = begin_op

  (* Protect-by-era: publish the current era in the next rotation slot,
     then read; if the era moved during the read, republish and re-read —
     the value finally returned was read under a published covering era.
     Like HP, the era covers the target only if the target was still
     linked when the era was published: a record born and retired entirely
     inside our operation can be reached through a stale interior edge
     with every published era outside its lifetime, so the target's
     lifecycle state must be validated too (see [Hp.read_ptr]). *)
  exception Validation_failed

  let read_ptr c ~src ~field =
    let s = c.b.shared and x = c.local in
    let sl = s.slots.(c.tid) in
    let i = x.hpi in
    x.hpi <- (x.hpi + 1) mod s.window;
    let rec go prev_e tries =
      if tries > 64 then raise Rt.Neutralized;
      let v = P.raw_load_ptr c.b.pool src field in
      let e = Rt.load s.era in
      if e = prev_e then
        if v < 0 || P.live c.b.pool v then v
        else begin
          (* Target already unlinked: behave like a failed protection. *)
          raise Validation_failed
        end
      else begin
        ignore (Rt.xchg sl.(i) e) (* fenced publish, as in HP *);
        go e (tries + 1)
      end
    in
    let e0 = Rt.load s.era in
    ignore (Rt.xchg sl.(i) e0);
    match go e0 0 with
    | v ->
        if v >= 0 && P.record_read c.b.pool v then Smr_stats.note_uaf c.st;
        v
    | exception Validation_failed -> raise Rt.Neutralized

  (* Unlinked-record traversal cannot be protected by eras; unsafe with
     mark-traversing structures (never benchmarked together). *)
  let read_raw = Unguarded.read_raw

  (* Era scan + sweep — the threshold-crossing body of [retire], also run
     threshold-free under pool pressure.  Safe mid-operation: our own
     published eras are part of the scan, pinning anything we might still
     dereference.  The crash watchdog runs first: HE is bounded, so a
     peer frozen past the death threshold is claimed, its era slots
     cleared and its bag orphaned.  No signals to re-send. *)
  let flush c =
    W.watchdog c ~on_round:(fun ~peer:_ ~round:_ -> ());
    let s = c.b.shared and x = c.local in
    if Limbo_bag.size x.bag > 0 then begin
      let k = ref 0 in
      for t = 0 to c.b.n - 1 do
        for i = 0 to s.window - 1 do
          let e = Rt.load s.slots.(t).(i) in
          if e >= 0 then begin
            x.scratch.(!k) <- e;
            incr k
          end
        done
      done;
      let pinned slot =
        let u = P.uid c.b.pool slot in
        let birth = Rt.plain_load_at s.birth u in
        let death = Rt.plain_load_at s.retire_era u in
        let hit = ref false in
        for j = 0 to !k - 1 do
          if (not !hit) && x.scratch.(j) >= birth && x.scratch.(j) <= death
          then hit := true
        done;
        !hit
      in
      sweep c x.bag ~upto:(Limbo_bag.abs_tail x.bag) ~keep:pinned;
      Smr_stats.add_reclaim_events c.st 1
    end

  let on_pressure = flush
  let register = register_flushing ~flush

  (* The shared [alloc], then the birth-era stamp. *)
  let alloc ?cls c =
    let slot = B.alloc ?cls c in
    let s = c.b.shared and x = c.local in
    x.alloc_count <- x.alloc_count + 1;
    if x.alloc_count mod c.b.cfg.Smr_config.epoch_freq = 0 then
      ignore (Rt.faa s.era 1);
    (* Era metadata is per slot, dense across size-classes/generations. *)
    Rt.store_at s.birth (P.uid c.b.pool slot) (Rt.load s.era);
    slot

  let retire c slot =
    count_retire c slot;
    Rt.store_at c.b.shared.retire_era (P.uid c.b.pool slot)
      (Rt.load c.b.shared.era);
    buffer_retired c slot ~flush
end
