(** QSBR: quiescent-state-based reclamation.

    Threads flip a per-thread counter odd at operation start and even at
    operation end, so an even value means "currently quiescent" and any
    change means "passed through a quiescent state".  A thread whose
    retire buffer fills snapshots all counters and parks the buffer; a
    parked buffer is freed once every other thread has either quiesced
    since the snapshot or is currently quiescent.

    Not bounded: a thread stalled {e inside} an operation freezes its odd
    counter and blocks every parked buffer behind it. *)

let descriptor =
  { Smr_intf.name = "qsbr"; bounded_garbage = false; protection = Epoch }

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)
  module Iv = Nbr_sync.Int_vec

  type parked = { snap : int array; recs : Iv.t }

  type local = {
    mutable current : Iv.t;
    mutable parked : parked list;
  }

  let buffered x =
    Iv.length x.current
    + List.fold_left (fun acc p -> acc + Iv.length p.recs) 0 x.parked

  (* The current buffer's slots, newest first, and a fresh buffer. *)
  let take_current x =
    let slots = ref [] in
    Iv.iter (fun s -> slots := s :: !slots) x.current;
    x.current <- Iv.create ();
    !slots

  module B = Smr_base.Make (Rt) (struct
    type inst = Rt.aint array
    (** Per-thread quiescence counters, padded: bumped by their owner on
        every operation, scanned by every reclaimer. *)

    type thr = local

    let descriptor = descriptor

    let create_inst ~capacity:_ ~nthreads _ =
      Array.init nthreads (fun _ -> Rt.make_padded 0)

    let create_thr ~nthreads:_ _ = { current = Iv.create (); parked = [] }
    let size = buffered

    (* Adopted and collected records join the current (unparked) buffer:
       they get a fresh snapshot when it parks, which only delays their
       release. *)
    let push _ x slot = Iv.push x.current slot

    let drain x =
      let slots = ref (take_current x) in
      List.iter
        (fun p -> Iv.iter (fun s -> slots := s :: !slots) p.recs)
        x.parked;
      x.parked <- [];
      !slots

    (* Offload ships the current buffer only: parked buffers already
       have their snapshots and are one [try_collect] from freedom, so
       shipping them would restart their grace periods. *)
    let exportable x = Iv.length x.current
    let export = take_current

    (* Leave the counter even: a departed thread is forever quiescent and
       must never block a peer's grace period. *)
    let retract qs tid =
      if Rt.load qs.(tid) land 1 = 1 then ignore (Rt.faa qs.(tid) 1)
  end)

  include B
  include Unguarded

  let begin_op c =
    B.begin_op c;
    ignore (Rt.faa c.b.shared.(c.tid) 1) (* odd: active *)

  let end_op c =
    note_end_op c;
    ignore (Rt.faa c.b.shared.(c.tid) 1) (* even: quiescent *);
    adopt_pending c
  let op c body = bracket ~begin_op ~end_op c body
  let abandon = begin_op

  let grace_elapsed c (p : parked) =
    let ok = ref true in
    for t = 0 to c.b.n - 1 do
      if !ok && t <> c.tid then begin
        let v = Rt.load c.b.shared.(t) in
        (* Safe if currently quiescent, or advanced since the snapshot. *)
        if v land 1 = 1 && v = p.snap.(t) then ok := false
      end
    done;
    !ok

  let try_collect c =
    let x = c.local in
    let ready, waiting = List.partition (grace_elapsed c) x.parked in
    List.iter
      (fun p ->
        Iv.iter (fun slot -> P.free c.b.pool slot) p.recs;
        Smr_stats.add_freed c.st (Iv.length p.recs);
        Smr_stats.add_reclaim_events c.st 1;
        if !Nbr_obs.Trace.on then
          Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
            Nbr_obs.Trace.Reclaim (Iv.length p.recs) 0)
      ready;
    x.parked <- waiting

  let park c =
    let x = c.local in
    let snap = Array.init c.b.n (fun t -> Rt.load c.b.shared.(t)) in
    x.parked <- { snap; recs = x.current } :: x.parked;
    x.current <- Iv.create ()

  (* Pool-pressure flush: park the current buffer regardless of the
     threshold and collect everything whose grace period has elapsed.  A
     peer stalled inside an operation still blocks every buffer parked
     behind its frozen counter — QSBR's structural degradation. *)
  let on_pressure c =
    if Iv.length c.local.current > 0 then park c;
    try_collect c

  let register = register_flushing ~flush:on_pressure

  (* Not the shared [buffer_retired]: the threshold counts only the
     current buffer, while the garbage noted counts the parked ones
     too. *)
  let retire c slot =
    count_retire c slot;
    Iv.push c.local.current slot;
    if
      Iv.length c.local.current >= c.b.cfg.Smr_config.bag_threshold
      && not (maybe_offload c)
    then begin
      park c;
      try_collect c
    end;
    Smr_stats.note_garbage c.st (buffered c.local)
end
