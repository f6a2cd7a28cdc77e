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
    objection): [read_raw] only ratchets the era and is unsafe for
    mark-traversing structures, which the benchmarks never pair it with.

    Bounded: a stalled thread pins at most its published eras' records. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)
  module L = Lifecycle.Make (Rt)

  type aint = Rt.aint
  type pool = P.t

  type t = {
    pool : P.t;
    n : int;
    cfg : Smr_config.t;
    window : int;
    era : Rt.aint;
    slots : Rt.aint array array;  (** published eras; -1 = empty *)
    birth : Rt.cells;
    retire_era : Rt.cells;
    lc : L.t;
    done_stats : Smr_stats.t;
    mutable ctxs : ctx option array;
    mutable offload : Smr_intf.Offload.t option;
  }

  and ctx = {
    b : t;
    tid : int;
    bag : Limbo_bag.t;
    st : Smr_stats.t;
    mutable hpi : int;
    mutable alloc_count : int;
    scratch : int array;  (** collected eras at reclamation *)
  }

  let scheme_name = "he"
  let bounded_garbage = true
  let empty_slot = -1

  let create pool ~nthreads cfg =
    P.set_generation_check pool (not cfg.Smr_config.unsafe_no_generation_check);
    let window = cfg.Smr_config.max_reservations + 2 in
    {
      pool;
      n = nthreads;
      cfg;
      window;
      (* Padded era + per-thread SWMR era slots; per-record birth/retire
         stamps stay unpadded (capacity-sized, accessed with the record). *)
      era = Rt.make_padded 1;
      slots =
        Array.init nthreads (fun _ ->
            Array.init window (fun _ -> Rt.make_padded empty_slot));
      birth = Rt.make_cells (P.capacity pool) 0;
      retire_era = Rt.make_cells (P.capacity pool) 0;
      lc = L.create ~nthreads;
      done_stats = Smr_stats.zero ();
      ctxs = Array.make nthreads None;
      offload = None;
    }

  let set_offload b o = b.offload <- o

  let register b ~tid =
    L.reset_slot b.lc tid;
    let c =
      {
        b;
        tid;
        bag = Limbo_bag.create ();
        st = Smr_stats.zero ();
        hpi = 0;
        alloc_count = 0;
        scratch = Array.make (b.n * b.window) 0;
      }
    in
    b.ctxs.(tid) <- Some c;
    c

  let begin_op c =
    L.check_self c.b.lc c.tid;
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.Begin_op 0
        0

  (* Orphan birth/retire eras live in the t-level metadata arrays, so the
     slots alone carry everything the era sweep needs. *)
  let adopt_orphans c =
    let n =
      L.adopt c.b.lc ~tid:c.tid ~push:(fun slot -> Limbo_bag.push c.bag slot)
    in
    if n > 0 then Smr_stats.note_garbage c.st (Limbo_bag.size c.bag)

  (* Limbo-bag externalization (DESIGN.md §12).  Birth/retire eras live in
     the t-level metadata arrays, so handed-off slots carry everything the
     collector's era sweep needs — the orphan-parcel argument. *)

  let limbo_size c = Limbo_bag.size c.bag

  let export_bag c =
    let slots = Limbo_bag.drain c.bag in
    L.push_handoff c.b.lc ~origin:c.tid slots;
    List.length slots

  let hand_off c = export_bag c

  let maybe_offload c =
    match c.b.offload with
    | None -> false
    | Some o ->
        let count = Limbo_bag.size c.bag in
        count > 0
        && Smr_intf.Offload.try_accept o ~tid:c.tid ~ns:(Rt.now_ns ()) ~count
        &&
        (ignore (export_bag c);
         true)

  let collect_handoffs c =
    let n =
      L.take_handoffs c.b.lc ~push:(fun slot -> Limbo_bag.push c.bag slot)
    in
    if n > 0 then begin
      Smr_stats.note_garbage c.st (Limbo_bag.size c.bag);
      match c.b.offload with
      | Some o ->
          Smr_intf.Offload.note_collected o ~tid:c.tid ~ns:(Rt.now_ns ())
            ~count:n
      | None ->
          if !Nbr_obs.Trace.on then
            Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
              Nbr_obs.Trace.Handoff_collect n 0
    end;
    n

  let end_op c =
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.End_op 0 0;
    let sl = c.b.slots.(c.tid) in
    for i = 0 to c.b.window - 1 do
      Rt.store sl.(i) empty_slot
    done;
    if L.has_orphans c.b.lc && L.is_active c.b.lc c.tid then adopt_orphans c

  (* Retract [tid]'s published eras so they stop pinning records. *)
  let retract_published b tid =
    let sl = b.slots.(tid) in
    for i = 0 to b.window - 1 do
      Rt.store sl.(i) empty_slot
    done

  let orphan_ctx b ~into (vc : ctx) slots =
    L.push_parcel b.lc ~origin:vc.tid slots;
    Smr_stats.add into vc.st;
    b.ctxs.(vc.tid) <- None

  let deregister c =
    if L.depart c.b.lc c.tid then begin
      (* Hand the departing thread's magazine caches back to the depot:
         an abandoned magazine would strand up to a magazine's worth of
         free slots per size class.  Safe here: we won the depart CAS, so
         no watchdog owns this tid's state. *)
      P.flush_thread c.b.pool ~tid:c.tid;
      retract_published c.b c.tid;
      let slots = Limbo_bag.drain c.bag in
      L.with_stats_lock c.b.lc (fun () ->
          orphan_ctx c.b ~into:c.b.done_stats c slots)
    end

  (* Crash watchdog (see [Lifecycle]): HE is bounded, so it takes part in
     recovery — a peer frozen past the death threshold is claimed, its
     era slots cleared and its bag orphaned.  No signals to re-send. *)
  let watchdog c =
    L.scan c.b.lc ~self:c.tid ~timeout_ns:c.b.cfg.Smr_config.wd_timeout_ns
      ~rounds:c.b.cfg.Smr_config.wd_rounds
      ~on_round:(fun ~peer:_ ~round:_ -> ())
      ~reap:(fun v ->
        P.flush_thread c.b.pool ~tid:v;
        retract_published c.b v;
        match c.b.ctxs.(v) with
        | None -> ()
        | Some vc ->
            orphan_ctx c.b ~into:c.st vc
              (L.seize_bag c.b.lc ~origin:vc.tid vc.bag))

  let alloc_with ?cls c ~on_pressure =
    let slot = P.alloc ~on_pressure ?cls c.b.pool in
    c.alloc_count <- c.alloc_count + 1;
    if c.alloc_count mod c.b.cfg.Smr_config.epoch_freq = 0 then
      ignore (Rt.faa c.b.era 1);
    (* Era metadata is per slot, dense across size-classes/generations. *)
    Rt.store_at c.b.birth (P.uid c.b.pool slot) (Rt.load c.b.era);
    slot

  (* Protect-by-era: publish the current era in the next rotation slot,
     then read; if the era moved during the read, republish and re-read —
     the value finally returned was read under a published covering era.
     Like HP, the era covers the target only if the target was still
     linked when the era was published: a record born and retired entirely
     inside our operation can be reached through a stale interior edge
     with every published era outside its lifetime, so the target's
     lifecycle state must be validated too (see Hp.protect_from). *)
  exception Validation_failed

  (* The protected word, addressed as in [Hp.link]: [root] when
     [field < 0], else pointer field [field] of record [src]. *)
  let no_root = Rt.make P.nil

  let link c root ~src ~field =
    if field < 0 then Rt.load root else P.raw_load_ptr c.b.pool src field

  let protected_read c root ~src ~field =
    let sl = c.b.slots.(c.tid) in
    let i = c.hpi in
    c.hpi <- (c.hpi + 1) mod c.b.window;
    let rec go prev_e tries =
      if tries > 64 then raise Rt.Neutralized;
      let v = link c root ~src ~field in
      let e = Rt.load c.b.era in
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
    let e0 = Rt.load c.b.era in
    ignore (Rt.xchg sl.(i) e0);
    match go e0 0 with
    | v ->
        if v >= 0 && P.record_read c.b.pool v then Smr_stats.note_uaf c.st;
        v
    | exception Validation_failed -> raise Rt.Neutralized

  let read_root c root = protected_read c root ~src:(-1) ~field:(-1)
  let read_ptr c ~src ~field = protected_read c no_root ~src ~field

  (* Unlinked-record traversal cannot be protected by eras; unsafe with
     mark-traversing structures (never benchmarked together). *)
  let read_raw c ~src ~field = P.raw_load_ptr c.b.pool src field

  (* Data reads only ever target records the traversal just protected by
     era; a [Stale] result means protection was lost — abort the read
     phase like a failed validation rather than consume recycled
     memory. *)
  let read_data c ~src ~field =
    match P.read_data c.b.pool src field with
    | P.Value v -> v
    | P.Stale _ ->
        Smr_stats.note_uaf c.st;
        raise Rt.Neutralized

  let peek_ptr c ~src ~field =
    match P.read_ptr c.b.pool src field with
    | P.Value v -> v
    | P.Stale _ ->
        Smr_stats.note_uaf c.st;
        raise Rt.Neutralized

  let phase c ~read ~write =
    let attempts = ref 0 in
    let out =
      Rt.checkpoint (fun () ->
          incr attempts;
          if !attempts > 1 then Smr_stats.uaf_abort c.st;
          let payload, _recs = read () in
          Smr_stats.uaf_commit c.st;
          write payload)
    in
    Smr_stats.add_restarts c.st (!attempts - 1);
    out

  let read_only c f =
    let attempts = ref 0 in
    let out =
      Rt.checkpoint (fun () ->
          incr attempts;
          if !attempts > 1 then Smr_stats.uaf_abort c.st;
          let r = f () in
          Smr_stats.uaf_commit c.st;
          r)
    in
    Smr_stats.add_restarts c.st (!attempts - 1);
    out

  (* Era scan + sweep — the threshold-crossing body of [retire], also run
     threshold-free under pool pressure.  Safe mid-operation: our own
     published eras are part of the scan, pinning anything we might still
     dereference. *)
  let flush c =
    watchdog c;
    if Limbo_bag.size c.bag > 0 then begin
      let k = ref 0 in
      for t = 0 to c.b.n - 1 do
        for i = 0 to c.b.window - 1 do
          let e = Rt.load c.b.slots.(t).(i) in
          if e >= 0 then begin
            c.scratch.(!k) <- e;
            incr k
          end
        done
      done;
      let pinned s =
        let u = P.uid c.b.pool s in
        let birth = Rt.plain_load_at c.b.birth u in
        let death = Rt.plain_load_at c.b.retire_era u in
        let hit = ref false in
        for j = 0 to !k - 1 do
          if (not !hit) && c.scratch.(j) >= birth && c.scratch.(j) <= death
          then hit := true
        done;
        !hit
      in
      let freed =
        Limbo_bag.sweep c.bag ~upto:(Limbo_bag.abs_tail c.bag) ~keep:pinned
          ~free:(fun s -> P.free c.b.pool s)
      in
      Smr_stats.add_freed c.st freed;
      Smr_stats.add_reclaim_events c.st 1;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
          Nbr_obs.Trace.Reclaim freed
          (Limbo_bag.size c.bag)
    end

  let on_pressure = flush
  let alloc ?cls c = alloc_with ?cls c ~on_pressure:(fun () -> flush c)

  let retire c slot =
    P.note_retired c.b.pool slot;
    Smr_stats.add_retires c.st 1;
    Rt.store_at c.b.retire_era (P.uid c.b.pool slot) (Rt.load c.b.era);
    Limbo_bag.push c.bag slot;
    if Limbo_bag.size c.bag >= c.b.cfg.Smr_config.bag_threshold then
      if not (maybe_offload c) then flush c;
    let g = Limbo_bag.size c.bag in
    Smr_stats.note_garbage c.st g

  let ctx_stats (c : ctx) = c.st

  let stats b =
    let acc = Smr_stats.zero () in
    L.with_stats_lock b.lc (fun () -> Smr_stats.add acc b.done_stats);
    Array.iter (function None -> () | Some c -> Smr_stats.add acc c.st) b.ctxs;
    acc
end
