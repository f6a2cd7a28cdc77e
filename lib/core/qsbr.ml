(** QSBR: quiescent-state-based reclamation.

    Threads flip a per-thread counter odd at operation start and even at
    operation end, so an even value means "currently quiescent" and any
    change means "passed through a quiescent state".  A thread whose
    retire buffer fills snapshots all counters and parks the buffer; a
    parked buffer is freed once every other thread has either quiesced
    since the snapshot or is currently quiescent.

    Not bounded: a thread stalled {e inside} an operation freezes its odd
    counter and blocks every parked buffer behind it. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)
  module L = Lifecycle.Make (Rt)
  module U = Unguarded.Make (Rt)

  type aint = Rt.aint
  type pool = P.t

  type parked = { snap : int array; recs : Nbr_sync.Int_vec.t }

  type t = {
    pool : P.t;
    n : int;
    cfg : Smr_config.t;
    qs : Rt.aint array;
    lc : L.t;
    done_stats : Smr_stats.t;
    mutable ctxs : ctx option array;
    mutable offload : Smr_intf.Offload.t option;
  }

  and ctx = {
    b : t;
    tid : int;
    mutable current : Nbr_sync.Int_vec.t;
    mutable parked : parked list;
    st : Smr_stats.t;
  }

  let scheme_name = "qsbr"
  let bounded_garbage = false

  let create pool ~nthreads cfg =
    P.set_generation_check pool (not cfg.Smr_config.unsafe_no_generation_check);
    {
      pool;
      n = nthreads;
      cfg;
      (* Padded per-thread quiescence counters: bumped by their owner on
         every operation, scanned by every reclaimer. *)
      qs = Array.init nthreads (fun _ -> Rt.make_padded 0);
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
        current = Nbr_sync.Int_vec.create ();
        parked = [];
        st = Smr_stats.zero ();
      }
    in
    b.ctxs.(tid) <- Some c;
    c

  let begin_op c =
    L.check_self c.b.lc c.tid;
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.Begin_op 0
        0;
    ignore (Rt.faa c.b.qs.(c.tid) 1) (* odd: active *)

  let grace_elapsed c (p : parked) =
    let ok = ref true in
    for t = 0 to c.b.n - 1 do
      if !ok && t <> c.tid then begin
        let v = Rt.load c.b.qs.(t) in
        (* Safe if currently quiescent, or advanced since the snapshot. *)
        if v land 1 = 1 && v = p.snap.(t) then ok := false
      end
    done;
    !ok

  let try_collect c =
    let ready, waiting = List.partition (grace_elapsed c) c.parked in
    List.iter
      (fun p ->
        Nbr_sync.Int_vec.iter (fun slot -> P.free c.b.pool slot) p.recs;
        Smr_stats.add_freed c.st (Nbr_sync.Int_vec.length p.recs);
        Smr_stats.add_reclaim_events c.st 1;
        if !Nbr_obs.Trace.on then
          Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
            Nbr_obs.Trace.Reclaim
            (Nbr_sync.Int_vec.length p.recs)
            0)
      ready;
    c.parked <- waiting

  (* Pool-pressure flush: park the current buffer regardless of the
     threshold and collect everything whose grace period has elapsed.  A
     peer stalled inside an operation still blocks every buffer parked
     behind its frozen counter — QSBR's structural degradation. *)
  let on_pressure c =
    if Nbr_sync.Int_vec.length c.current > 0 then begin
      let snap = Array.init c.b.n (fun t -> Rt.load c.b.qs.(t)) in
      c.parked <- { snap; recs = c.current } :: c.parked;
      c.current <- Nbr_sync.Int_vec.create ()
    end;
    try_collect c

  let alloc ?cls c = P.alloc ~on_pressure:(fun () -> on_pressure c) ?cls c.b.pool

  let buffered c =
    Nbr_sync.Int_vec.length c.current
    + List.fold_left
        (fun acc p -> acc + Nbr_sync.Int_vec.length p.recs)
        0 c.parked

  (* Orphans join our current (unparked) buffer: they get a fresh
     snapshot when it parks, which only delays their release. *)
  let adopt_orphans c =
    let n =
      L.adopt c.b.lc ~tid:c.tid ~push:(fun slot ->
          Nbr_sync.Int_vec.push c.current slot)
    in
    if n > 0 then Smr_stats.note_garbage c.st (buffered c)

  (* Limbo-bag externalization (DESIGN.md §12).  The collector re-buffers
     handed-off records in its own current buffer, which parks under a
     fresh counter snapshot — release is only ever delayed, the
     orphan-adoption argument above. *)

  let limbo_size c = buffered c

  (* Retire-path export: the current (unparked) buffer only — parked
     buffers already have their snapshots and are one [try_collect] from
     freedom, so shipping them would restart their grace periods. *)
  let export_current c =
    let slots = ref [] in
    Nbr_sync.Int_vec.iter (fun s -> slots := s :: !slots) c.current;
    c.current <- Nbr_sync.Int_vec.create ();
    L.push_handoff c.b.lc ~origin:c.tid !slots;
    List.length !slots

  let hand_off c =
    let slots = ref [] in
    Nbr_sync.Int_vec.iter (fun s -> slots := s :: !slots) c.current;
    List.iter
      (fun p -> Nbr_sync.Int_vec.iter (fun s -> slots := s :: !slots) p.recs)
      c.parked;
    c.current <- Nbr_sync.Int_vec.create ();
    c.parked <- [];
    L.push_handoff c.b.lc ~origin:c.tid !slots;
    List.length !slots

  let maybe_offload c =
    match c.b.offload with
    | None -> false
    | Some o ->
        let count = Nbr_sync.Int_vec.length c.current in
        count > 0
        && Smr_intf.Offload.try_accept o ~tid:c.tid ~ns:(Rt.now_ns ()) ~count
        &&
        (ignore (export_current c);
         true)

  let collect_handoffs c =
    let n =
      L.take_handoffs c.b.lc ~push:(fun slot ->
          Nbr_sync.Int_vec.push c.current slot)
    in
    if n > 0 then begin
      Smr_stats.note_garbage c.st (buffered c);
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
    ignore (Rt.faa c.b.qs.(c.tid) 1) (* even: quiescent *);
    if L.has_orphans c.b.lc && L.is_active c.b.lc c.tid then adopt_orphans c

  let deregister c =
    if L.depart c.b.lc c.tid then begin
      (* Hand the departing thread's magazine caches back to the depot:
         an abandoned magazine would strand up to a magazine's worth of
         free slots per size class.  Safe here: we won the depart CAS, so
         no watchdog owns this tid's state. *)
      P.flush_thread c.b.pool ~tid:c.tid;
      (* Leave the counter even: a departed thread is forever quiescent
         and must never block a peer's grace period. *)
      if Rt.load c.b.qs.(c.tid) land 1 = 1 then
        ignore (Rt.faa c.b.qs.(c.tid) 1);
      let slots = ref [] in
      Nbr_sync.Int_vec.iter (fun s -> slots := s :: !slots) c.current;
      List.iter
        (fun p -> Nbr_sync.Int_vec.iter (fun s -> slots := s :: !slots) p.recs)
        c.parked;
      c.current <- Nbr_sync.Int_vec.create ();
      c.parked <- [];
      L.push_parcel c.b.lc ~origin:c.tid !slots;
      L.with_stats_lock c.b.lc (fun () -> Smr_stats.add c.b.done_stats c.st);
      c.b.ctxs.(c.tid) <- None
    end

  let retire c slot =
    P.note_retired c.b.pool slot;
    Smr_stats.add_retires c.st 1;
    Nbr_sync.Int_vec.push c.current slot;
    if
      Nbr_sync.Int_vec.length c.current >= c.b.cfg.Smr_config.bag_threshold
      && not (maybe_offload c)
    then begin
      let snap = Array.init c.b.n (fun t -> Rt.load c.b.qs.(t)) in
      c.parked <- { snap; recs = c.current } :: c.parked;
      c.current <- Nbr_sync.Int_vec.create ();
      try_collect c
    end;
    let g = buffered c in
    Smr_stats.note_garbage c.st g

  let phase c ~read ~write = U.phase c.st ~read ~write
  let read_only c f = U.read_only c.st f

  let read_root c root = U.read_root c.b.pool c.st root
  let read_ptr c ~src ~field = U.read_ptr c.b.pool c.st ~src ~field
  let read_raw c ~src ~field = U.read_raw c.b.pool ~src ~field
  let read_data c ~src ~field = U.read_data c.b.pool c.st ~src ~field
  let peek_ptr c ~src ~field = U.peek_ptr c.b.pool c.st ~src ~field

  let ctx_stats (c : ctx) = c.st

  let stats b =
    let acc = Smr_stats.zero () in
    L.with_stats_lock b.lc (fun () -> Smr_stats.add acc b.done_stats);
    Array.iter (function None -> () | Some c -> Smr_stats.add acc c.st) b.ctxs;
    acc
end
