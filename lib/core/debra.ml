(** DEBRA: distributed epoch-based reclamation (Brown, PODC'15).

    The fastest known EBR variant and the paper's strongest baseline.
    Threads announce (epoch, quiescent-bit) pairs; the global epoch
    advances when every thread is either quiescent or has announced the
    current epoch, and the advance scan is {e amortized} — each operation
    checks only a few threads, resuming where it left off.  Each thread
    keeps three limbo bags indexed by epoch mod 3: on observing a new
    epoch [e], everything retired in epoch [e-2] is freed wholesale, with
    no per-record scan.

    Not bounded: a thread stalled inside an operation pins the epoch, all
    bags grow without limit, and when the stall ends the backlog is freed
    in a burst — the "delayed thread vulnerability" the paper blames for
    DEBRA's throughput collapse at high thread counts (§7). *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)
  module L = Lifecycle.Make (Rt)
  module U = Unguarded.Make (Rt)

  type aint = Rt.aint
  type pool = P.t

  type t = {
    pool : P.t;
    n : int;
    cfg : Smr_config.t;
    epoch : Rt.aint;
    announce : Rt.aint array;  (** (epoch lsl 1) lor quiescent-bit *)
    lc : L.t;
    done_stats : Smr_stats.t;
    mutable ctxs : ctx option array;
    mutable offload : Smr_intf.Offload.t option;
  }

  and ctx = {
    b : t;
    tid : int;
    bags : Limbo_bag.t array;  (** three, indexed by epoch mod 3 *)
    st : Smr_stats.t;
    mutable local_epoch : int;
    mutable check_next : int;  (** next thread index in the advance scan *)
    mutable checked : int;  (** threads validated for the current epoch *)
  }

  let scheme_name = "debra"
  let bounded_garbage = false

  let create pool ~nthreads cfg =
    P.set_generation_check pool (not cfg.Smr_config.unsafe_no_generation_check);
    {
      pool;
      n = nthreads;
      cfg;
      (* Padded: global epoch + per-thread SWMR announcements (see
         Nbr_base.create for the false-sharing rationale). *)
      epoch = Rt.make_padded 0;
      announce = Array.init nthreads (fun _ -> Rt.make_padded 1 (* quiescent *));
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
        bags = Array.init 3 (fun _ -> Limbo_bag.create ());
        st = Smr_stats.zero ();
        local_epoch = 0;
        check_next = 0;
        checked = 0;
      }
    in
    b.ctxs.(tid) <- Some c;
    c

  let free_bag c bag =
    let freed =
      Limbo_bag.sweep bag ~upto:(Limbo_bag.abs_tail bag)
        ~keep:(fun _ -> false)
        ~free:(fun slot -> P.free c.b.pool slot)
    in
    if freed > 0 then begin
      Smr_stats.add_freed c.st freed;
      Smr_stats.add_reclaim_events c.st 1;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
          Nbr_obs.Trace.Reclaim freed (Limbo_bag.size bag)
    end

  let buffered c =
    Limbo_bag.size c.bags.(0) + Limbo_bag.size c.bags.(1)
    + Limbo_bag.size c.bags.(2)

  (* Bag label for a record buffered now.  The {e global} epoch re-read
     at push time, not [local_epoch]: an active thread only pins the
     global to [local_epoch + 1], so by retire time the unlink may have
     happened one epoch after our announcement.  A record labelled [l] is
     freed only once the epoch reaches [l + 2], an advance every reader
     that could still hold it (announced [<= l]) blocks — labelling with
     the stale local epoch frees exactly one epoch too early for readers
     announced at [local_epoch + 1].  The generation-aware pool detector
     caught this as reads through freed-and-recycled slots. *)
  let retire_label c = Rt.load c.b.epoch mod 3

  (* Departed/crashed threads' retires go into our current retire bag:
     retired "now" from the epoch discipline's point of view, which only
     delays their release — never frees early. *)
  let adopt_orphans c =
    let n =
      L.adopt c.b.lc ~tid:c.tid ~push:(fun slot ->
          Limbo_bag.push c.bags.(retire_label c) slot)
    in
    if n > 0 then Smr_stats.note_garbage c.st (buffered c)

  (* Limbo-bag externalization (DESIGN.md §12).  All three epoch bags are
     flattened into the handoff parcel; the collector re-buffers them in
     its own current retire bag — retired "now" from the epoch
     discipline's point of view, so release is only ever delayed, exactly
     the orphan-adoption argument above. *)

  let limbo_size c = buffered c

  let export_bag c =
    let slots = ref [] in
    Array.iter
      (fun bag ->
        ignore
          (Limbo_bag.sweep bag ~upto:(Limbo_bag.abs_tail bag)
             ~keep:(fun _ -> false)
             ~free:(fun s -> slots := s :: !slots)))
      c.bags;
    L.push_handoff c.b.lc ~origin:c.tid !slots;
    List.length !slots

  let hand_off c = export_bag c

  let maybe_offload c =
    match c.b.offload with
    | None -> false
    | Some o ->
        let count = buffered c in
        count > 0
        && Smr_intf.Offload.try_accept o ~tid:c.tid ~ns:(Rt.now_ns ()) ~count
        &&
        (ignore (export_bag c);
         true)

  let collect_handoffs c =
    let n =
      L.take_handoffs c.b.lc ~push:(fun slot ->
          Limbo_bag.push c.bags.(retire_label c) slot)
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

  let deregister c =
    if L.depart c.b.lc c.tid then begin
      (* Hand the departing thread's magazine caches back to the depot:
         an abandoned magazine would strand up to a magazine's worth of
         free slots per size class.  Safe here: we won the depart CAS, so
         no watchdog owns this tid's state. *)
      P.flush_thread c.b.pool ~tid:c.tid;
      (* Quiescent announcement: a departed thread must never pin the
         epoch. *)
      Rt.store c.b.announce.(c.tid) ((c.local_epoch lsl 1) lor 1);
      let slots = ref [] in
      Array.iter
        (fun bag ->
          ignore
            (Limbo_bag.sweep bag ~upto:(Limbo_bag.abs_tail bag)
               ~keep:(fun _ -> false)
               ~free:(fun s -> slots := s :: !slots)))
        c.bags;
      L.push_parcel c.b.lc ~origin:c.tid !slots;
      L.with_stats_lock c.b.lc (fun () -> Smr_stats.add c.b.done_stats c.st);
      c.b.ctxs.(c.tid) <- None
    end

  (* leaveQstate *)
  let begin_op c =
    L.check_self c.b.lc c.tid;
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.Begin_op 0
        0;
    let e = Rt.load c.b.epoch in
    if e <> c.local_epoch then begin
      (* Entering epoch [e]: records retired in epoch [e-2] (bag index
         (e+1) mod 3) are safe — every thread is in e-1 or e. *)
      free_bag c c.bags.((e + 1) mod 3);
      c.local_epoch <- e;
      c.check_next <- 0;
      c.checked <- 0
    end;
    Rt.store c.b.announce.(c.tid) (e lsl 1);
    (* Amortized advance scan: DEBRA's low per-operation overhead comes
       from checking only a couple of threads per op, resuming where the
       previous op left off. *)
    let quota = ref (max 1 (c.b.cfg.Smr_config.epoch_freq / 8)) in
    let blocked = ref false in
    while (not !blocked) && !quota > 0 && c.checked < c.b.n do
      let j = c.check_next in
      let a = Rt.load c.b.announce.(j) in
      if a land 1 = 1 || a lsr 1 >= e then begin
        c.check_next <- (j + 1) mod c.b.n;
        c.checked <- c.checked + 1
      end
      else blocked := true;
      decr quota
    done;
    if c.checked >= c.b.n then begin
      if Rt.cas c.b.epoch e (e + 1) then begin
        (* Adopt the epoch we just created while still ahead of any
           protected read of this op: re-announcing keeps our retire
           labels at the current global epoch (instead of one behind,
           which would pin their release an extra epoch), and entering
           [e+1] releases its two-epochs-back bag right away. *)
        free_bag c c.bags.((e + 2) mod 3);
        c.local_epoch <- e + 1;
        c.check_next <- 0;
        Rt.store c.b.announce.(c.tid) ((e + 1) lsl 1)
      end;
      c.checked <- 0
    end

  (* enterQstate *)
  let end_op c =
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.End_op 0 0;
    Rt.store c.b.announce.(c.tid) ((c.local_epoch lsl 1) lor 1);
    if L.has_orphans c.b.lc && L.is_active c.b.lc c.tid then adopt_orphans c

  (* Pool-pressure flush.  While this thread is inside an operation its
     own announcement pins the global epoch to at most [local_epoch + 1],
     so at most one bag (records retired two epochs back) can be released
     no matter how hard we try — EBR's degradation under pressure is
     structural.  Best effort: run the advance scan in full (not
     amortized) and release that bag if the epoch moved.  [local_epoch]
     and our announcement are deliberately left alone: re-announcing a
     newer epoch mid-operation would un-pin records we may still be
     traversing. *)
  let on_pressure c =
    let e = Rt.load c.b.epoch in
    let ok = ref true in
    for j = 0 to c.b.n - 1 do
      if !ok then begin
        let a = Rt.load c.b.announce.(j) in
        if not (a land 1 = 1 || a lsr 1 >= e) then ok := false
      end
    done;
    if !ok then ignore (Rt.cas c.b.epoch e (e + 1));
    let e' = Rt.load c.b.epoch in
    if e' <> c.local_epoch then
      (* Never a current retire target: our own announcement keeps
         [e' <= local_epoch + 1], so the freed index [(e'+1) mod 3] is
         neither [local_epoch mod 3] nor [(local_epoch + 1) mod 3] — the
         two bags [retire_label] can select mid-operation. *)
      free_bag c c.bags.((e' + 1) mod 3)

  let alloc ?cls c =
    P.alloc ~on_pressure:(fun () -> on_pressure c) ?cls c.b.pool

  let retire c slot =
    P.note_retired c.b.pool slot;
    Smr_stats.add_retires c.st 1;
    Limbo_bag.push c.bags.(retire_label c) slot;
    let g = buffered c in
    Smr_stats.note_garbage c.st g;
    (* DEBRA frees by epoch, not by threshold — but a backlog past the
       sweep threshold (a pinned epoch, or simple retire pressure) is
       worth shedding to the reclaimer, whose begin_op cadence both
       drains it and helps the epoch advance. *)
    if g >= c.b.cfg.Smr_config.bag_threshold then ignore (maybe_offload c)

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
