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

let descriptor =
  { Smr_intf.name = "debra"; bounded_garbage = false; protection = Epoch }

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)

  type shared = {
    epoch : Rt.aint;
    announce : Rt.aint array;  (** (epoch lsl 1) lor quiescent-bit *)
  }

  type local = {
    bags : Limbo_bag.t array;  (** three, indexed by epoch mod 3 *)
    mutable local_epoch : int;
    mutable check_next : int;  (** next thread index in the advance scan *)
    mutable checked : int;  (** threads validated for the current epoch *)
  }

  (* Bag label for a record buffered now.  The {e global} epoch re-read
     at push time, not [local_epoch]: an active thread only pins the
     global to [local_epoch + 1], so by retire time the unlink may have
     happened one epoch after our announcement.  A record labelled [l] is
     freed only once the epoch reaches [l + 2], an advance every reader
     that could still hold it (announced [<= l]) blocks — labelling with
     the stale local epoch frees exactly one epoch too early for readers
     announced at [local_epoch + 1].  The generation-aware pool detector
     caught this as reads through freed-and-recycled slots. *)
  let retire_bag s x = x.bags.(Rt.load s.epoch mod 3)

  let buffered x =
    Limbo_bag.size x.bags.(0) + Limbo_bag.size x.bags.(1)
    + Limbo_bag.size x.bags.(2)

  (* All three epoch bags flatten into one parcel; adopters and the
     reclaimer re-buffer it in their current retire bag. *)
  let drain x =
    Array.fold_left (fun acc bag -> Limbo_bag.drain bag @ acc) [] x.bags

  module B = Smr_base.Make (Rt) (struct
    type inst = shared
    type thr = local

    let descriptor = descriptor

    let create_inst ~capacity:_ ~nthreads _ =
      {
        (* Padded: global epoch + per-thread SWMR announcements (see
           Nbr_base for the false-sharing rationale). *)
        epoch = Rt.make_padded 0;
        announce =
          Array.init nthreads (fun _ -> Rt.make_padded 1 (* quiescent *));
      }

    let create_thr ~nthreads:_ _ =
      {
        bags = Array.init 3 (fun _ -> Limbo_bag.create ());
        local_epoch = 0;
        check_next = 0;
        checked = 0;
      }

    let size = buffered
    let push s x slot = Limbo_bag.push (retire_bag s x) slot
    let drain = drain
    let exportable = buffered
    let export = drain

    (* Quiescent announcement: a departed thread must never pin the
       epoch.  Readers test the quiescent bit first and never look at
       the epoch bits of a quiescent announcement. *)
    let retract s tid = Rt.store s.announce.(tid) 1
  end)

  include B
  include Unguarded

  (* A whole epoch bag at once: nothing in it is pinned, so a non-empty
     bag is exactly one that frees something. *)
  let free_bag c bag =
    if Limbo_bag.size bag > 0 then begin
      sweep c bag ~upto:(Limbo_bag.abs_tail bag) ~keep:(fun _ -> false);
      Smr_stats.add_reclaim_events c.st 1
    end

  (* leaveQstate *)
  let begin_op c =
    B.begin_op c;
    let s = c.b.shared and x = c.local in
    let e = Rt.load s.epoch in
    if e <> x.local_epoch then begin
      (* Entering epoch [e]: records retired in epoch [e-2] (bag index
         (e+1) mod 3) are safe — every thread is in e-1 or e. *)
      free_bag c x.bags.((e + 1) mod 3);
      x.local_epoch <- e;
      x.check_next <- 0;
      x.checked <- 0
    end;
    Rt.store s.announce.(c.tid) (e lsl 1);
    (* Amortized advance scan: DEBRA's low per-operation overhead comes
       from checking only a couple of threads per op, resuming where the
       previous op left off. *)
    let quota = ref (max 1 (c.b.cfg.Smr_config.epoch_freq / 8)) in
    let blocked = ref false in
    while (not !blocked) && !quota > 0 && x.checked < c.b.n do
      let j = x.check_next in
      let a = Rt.load s.announce.(j) in
      if a land 1 = 1 || a lsr 1 >= e then begin
        x.check_next <- (j + 1) mod c.b.n;
        x.checked <- x.checked + 1
      end
      else blocked := true;
      decr quota
    done;
    if x.checked >= c.b.n then begin
      if Rt.cas s.epoch e (e + 1) then begin
        (* Adopt the epoch we just created while still ahead of any
           protected read of this op: re-announcing keeps our retire
           labels at the current global epoch (instead of one behind,
           which would pin their release an extra epoch), and entering
           [e+1] releases its two-epochs-back bag right away. *)
        free_bag c x.bags.((e + 2) mod 3);
        x.local_epoch <- e + 1;
        x.check_next <- 0;
        Rt.store s.announce.(c.tid) ((e + 1) lsl 1)
      end;
      x.checked <- 0
    end

  (* enterQstate *)
  let end_op c =
    note_end_op c;
    Rt.store c.b.shared.announce.(c.tid) ((c.local.local_epoch lsl 1) lor 1);
    adopt_pending c

  let op c body = bracket ~begin_op ~end_op c body
  let abandon = begin_op

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
    let s = c.b.shared in
    let e = Rt.load s.epoch in
    let ok = ref true in
    for j = 0 to c.b.n - 1 do
      if !ok then begin
        let a = Rt.load s.announce.(j) in
        if not (a land 1 = 1 || a lsr 1 >= e) then ok := false
      end
    done;
    if !ok then ignore (Rt.cas s.epoch e (e + 1));
    let e' = Rt.load s.epoch in
    if e' <> c.local.local_epoch then
      (* Never a current retire target: our own announcement keeps
         [e' <= local_epoch + 1], so the freed index [(e'+1) mod 3] is
         neither [local_epoch mod 3] nor [(local_epoch + 1) mod 3] — the
         two bags [retire_bag] can select mid-operation. *)
      free_bag c c.local.bags.((e' + 1) mod 3)

  let register = register_flushing ~flush:on_pressure

  (* Not the shared [buffer_retired]: DEBRA notes its garbage before the
     threshold test, and the crossing has no inline flush to fall back
     on — epochs, not thresholds, free its bags. *)
  let retire c slot =
    count_retire c slot;
    Limbo_bag.push (retire_bag c.b.shared c.local) slot;
    let g = buffered c.local in
    Smr_stats.note_garbage c.st g;
    (* DEBRA frees by epoch, not by threshold — but a backlog past the
       sweep threshold (a pinned epoch, or simple retire pressure) is
       worth shedding to the reclaimer, whose begin_op cadence both
       drains it and helps the epoch advance. *)
    if g >= c.b.cfg.Smr_config.bag_threshold then ignore (maybe_offload c)
end
