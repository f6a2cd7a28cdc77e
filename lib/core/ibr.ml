(** 2GEIBR: two-global-epoch interval-based reclamation (Wen et al.,
    PPoPP'18) — the IBR variant the paper benchmarks.

    Every record carries two eras of metadata: the global era at
    allocation (birth) and at retirement.  Every thread announces an
    interval [lower, upper]: [lower] is the era at operation start and
    [upper] is ratcheted up to the current era at {e every dereference of a
    new record} — the per-read overhead the paper charges against P1/P3.
    A reclaimer frees a record iff its [birth, retire] interval intersects
    no announced interval.

    Bounded: a stalled thread pins a fixed interval, so only records whose
    lifetime overlaps it leak — everything born after the stall reclaims
    normally.

    Era protection shares HP's structure obligation (paper P5): the
    ratcheted upper bound only covers records reached through links that
    are re-read from {e live} sources.  A thread descheduled mid-traversal
    can wake inside a retired (but still pinned) record whose frozen link
    points at a record born {e after} the sleeper's announced upper bound —
    by then already swept, and no amount of ratcheting resurrects it.
    [read_ptr] therefore validates its source whenever the ratchet fires
    and aborts the read phase through the checkpoint, exactly like HP's
    announce-and-validate.  [read_raw] cannot validate, which is why the
    registry refuses IBR the raw-traversal structures. *)

(* [read_ptr] loads the link raw, then ratchets the interval and
   validates the source: the raw accessors are the substrate IBR's
   protection is built on. *)
[@@@alert "-nbr_raw"]

let descriptor =
  { Smr_intf.name = "ibr"; bounded_garbage = true; protection = Interval }

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)

  let inactive_lo = max_int
  let inactive_hi = -1

  type shared = {
    era : Rt.aint;
    lo : Rt.aint array;
    hi : Rt.aint array;
    birth : Rt.cells;  (** per-record metadata (real algorithm state) *)
    retire_era : Rt.cells;
  }

  type local = {
    bag : Limbo_bag.t;
    mutable cached_hi : int;
    mutable alloc_count : int;
    (* interval snapshot scratch for reclamation *)
    slo : int array;
    shi : int array;
  }

  module B = Smr_base.Make (Rt) (struct
    type inst = shared
    type thr = local

    let descriptor = descriptor

    let create_inst ~capacity ~nthreads _ =
      {
        (* Padded: the era is bumped on retires and read per dereference;
           lo/hi are per-thread SWMR interval bounds scanned by
           reclaimers.  The per-record birth/retire stamps stay unpadded —
           they are capacity-sized and accessed with the record, not
           contended rows. *)
        era = Rt.make_padded 1;
        lo = Array.init nthreads (fun _ -> Rt.make_padded inactive_lo);
        hi = Array.init nthreads (fun _ -> Rt.make_padded inactive_hi);
        birth = Rt.make_cells capacity 0;
        retire_era = Rt.make_cells capacity 0;
      }

    let create_thr ~nthreads _ =
      {
        bag = Limbo_bag.create ();
        cached_hi = 0;
        alloc_count = 0;
        slo = Array.make nthreads inactive_lo;
        shi = Array.make nthreads inactive_hi;
      }

    let size x = Limbo_bag.size x.bag

    (* Birth/retire eras live in the instance-level metadata blocks, so
       adopted and collected slots carry everything the interval sweep
       needs. *)
    let push _ x slot = Limbo_bag.push x.bag slot
    let drain x = Limbo_bag.drain x.bag
    let exportable = size
    let export = drain

    let retract s tid =
      Rt.store s.lo.(tid) inactive_lo;
      Rt.store s.hi.(tid) inactive_hi
  end)

  include B

  module W = Watchdog (struct
    let bag x = x.bag
  end)

  let begin_op c =
    B.begin_op c;
    let s = c.b.shared in
    let e = Rt.load s.era in
    Rt.store s.lo.(c.tid) e;
    Rt.store s.hi.(c.tid) e;
    c.local.cached_hi <- e

  let end_op = retract_end_op
  let op c body = bracket ~begin_op ~end_op c body
  let abandon = begin_op

  (* Interval scan + sweep — the threshold-crossing body of [retire],
     also run threshold-free under pool pressure.  Safe mid-operation:
     our own announced interval is part of the scan, so anything we might
     still dereference stays pinned.  The crash watchdog runs first: IBR
     is bounded, so a peer frozen past the death threshold is claimed,
     its interval retracted and its bag orphaned.  No signals to
     re-send. *)
  let flush c =
    W.watchdog c ~on_round:(fun ~peer:_ ~round:_ -> ());
    let s = c.b.shared and x = c.local in
    if Limbo_bag.size x.bag > 0 then begin
      for t = 0 to c.b.n - 1 do
        x.slo.(t) <- Rt.load s.lo.(t);
        x.shi.(t) <- Rt.load s.hi.(t)
      done;
      let pinned slot =
        let u = P.uid c.b.pool slot in
        let birth = Rt.plain_load_at s.birth u in
        let death = Rt.plain_load_at s.retire_era u in
        let hit = ref false in
        for t = 0 to c.b.n - 1 do
          if (not !hit) && birth <= x.shi.(t) && death >= x.slo.(t) then
            hit := true
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
    (* Era metadata is per {e slot}, not per handle: [uid] keeps the
       arrays dense across size-classes and generations. *)
    Rt.store_at s.birth (P.uid c.b.pool slot) (Rt.load s.era);
    slot

  let retire c slot =
    count_retire c slot;
    Rt.store_at c.b.shared.retire_era (P.uid c.b.pool slot)
      (Rt.load c.b.shared.era);
    buffer_retired c slot ~flush

  (* The 2GE per-dereference protocol (Wen et al., fig. 4): read the
     pointer, then check that the global era still equals the announced
     upper bound; if not, extend the announcement and re-read.  The value
     finally returned was read while [hi = era], so its birth era is
     covered by the announced interval.

     That induction has a second leg: the re-read only proves anything if
     the cell reflects the current structure.  When the ratchet fires, the
     era moved while we held the cell — potentially a whole deschedule, in
     which [src] itself may have been retired.  Its links are then frozen
     stale copies: they can point at a record born after our old upper
     bound that a sweep (correctly) never saw as pinned and has already
     freed, and re-reading the frozen cell just returns the same dangling
     value.  So a fired ratchet validates that the source is still live,
     and aborts the read phase through the checkpoint when it is not —
     HP's validation obligation, surfacing in IBR only on the era-moved
     slow path. *)
  let read_ptr c ~src ~field =
    let rec loop () =
      let v = P.raw_load_ptr c.b.pool src field in
      let e = Rt.plain_load c.b.shared.era in
      if e <> c.local.cached_hi then begin
        Rt.store c.b.shared.hi.(c.tid) e;
        c.local.cached_hi <- e;
        (* Without this check (mutant [ibr_validate], A3) the frozen
           link is followed into a freed record. *)
        if not (P.live c.b.pool src) then raise Rt.Neutralized;
        loop ()
      end
      else v
    in
    let v = loop () in
    if v >= 0 && P.record_read c.b.pool v then Smr_stats.note_uaf c.st;
    v

  (* Interval protection covers targets of guarded dereferences, so data
     reads of an already-covered record need no ratchet.  A [Stale]
     refusal is the frozen-link unsoundness surfacing (possible only under
     the [ibr_validate] mutant, or through the paper's P5-style misuse):
     the foil-like honest behaviour is to consume the recycled memory and
     let [record_read] convict the access — which is what the mutant's
     certificate replays. *)
  let read_data = Unguarded.read_data
  let peek_ptr = Unguarded.peek_ptr

  (* No liveness validation for a mark-tagged link out of an unlinked
     record (paper P5); the ratchet keeps the interval monotone. *)
  let read_raw c ~src ~field =
    note_read c src;
    let rec loop () =
      let v = P.raw_load_ptr c.b.pool src field in
      let e = Rt.plain_load c.b.shared.era in
      if e <> c.local.cached_hi then begin
        Rt.store c.b.shared.hi.(c.tid) e;
        c.local.cached_hi <- e;
        loop ()
      end
      else v
    in
    loop ()
end
