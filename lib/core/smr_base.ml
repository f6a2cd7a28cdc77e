(* The raw accessors are the scheme layer's substrate: [Unguarded] is the
   one read path of the schemes with no per-read protection, and
   [load_tagged]/[cas_tagged] carry the Harris list's mark-tagged links,
   which are not handles. *)
[@@@alert "-nbr_raw"]

module type SCHEME = sig
  type inst
  type thr

  val descriptor : Smr_intf.scheme
  val create_inst : capacity:int -> nthreads:int -> Smr_config.t -> inst
  val create_thr : nthreads:int -> Smr_config.t -> thr
  val size : thr -> int
  val push : inst -> thr -> int -> unit
  val drain : thr -> int list
  val exportable : thr -> int
  val export : thr -> int list
  val retract : inst -> int -> unit
end

let mem_sorted a n x =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = x then true
      else if a.(mid) < x then go (mid + 1) hi
      else go lo mid
  in
  go 0 n

module Make (Rt : Nbr_runtime.Runtime_intf.S) (X : SCHEME) = struct
  module P = Nbr_pool.Pool.Make (Rt)
  module L = Lifecycle.Make (Rt)

  type pool = P.t

  type t = {
    pool : P.t;
    n : int;
    cfg : Smr_config.t;
    lc : L.t;
    done_stats : Smr_stats.t;
    reaped : Smr_stats.t list Atomic.t;
    ctxs : ctx option array;
    mutable offload : Smr_intf.Offload.t option;
    shared : X.inst;
  }

  and ctx = {
    b : t;
    tid : int;
    st : Smr_stats.t;
    local : X.thr;
    pressure : (unit -> unit) option;
    mutable held : int array;
    mutable nheld : int;
  }

  type op = ctx
  type 's rd = ctx
  type 'a reader = { read : 's. 's rd -> 'a * int array } [@@unboxed]
  type 'a viewer = { view : 's. 's rd -> 'a } [@@unboxed]
  type 's wr = ctx
  type ('a, 'b) writer = { write : 's. 's wr -> 'a -> 'b } [@@unboxed]

  let scheme_name = X.descriptor.name
  let bounded_garbage = X.descriptor.bounded_garbage

  let create pool ~nthreads cfg =
    {
      pool;
      n = nthreads;
      cfg;
      lc = L.create ~nthreads;
      done_stats = Smr_stats.zero ();
      reaped = Nbr_sync.Padded.make [];
      ctxs = Array.make nthreads None;
      offload = None;
      shared = X.create_inst ~capacity:(P.capacity pool) ~nthreads cfg;
    }

  (* The pressure flush closure is built here, once per context, so
     [alloc] passes it to the pool without allocating.  The lock stack
     holds (slot, field) pairs and grows only past [max_reservations]
     locks, which a write phase that locks only reserved records never
     reaches. *)
  let register_with flush b ~tid =
    L.reset_slot b.lc tid;
    let local = X.create_thr ~nthreads:b.n b.cfg in
    let held = Array.make (2 * max 1 b.cfg.Smr_config.max_reservations) 0 in
    let rec c =
      {
        b;
        tid;
        st = Smr_stats.zero ();
        local;
        pressure =
          (match flush with None -> None | Some f -> Some (fun () -> f c));
        held;
        nheld = 0;
      }
    in
    b.ctxs.(tid) <- Some c;
    c

  let register b ~tid = register_with None b ~tid
  let register_flushing ~flush b ~tid = register_with (Some flush) b ~tid

  let set_offload b o = b.offload <- o
  let limbo_size c = X.size c.local
  let ctx_stats c = c.st

  let stats b =
    let acc = Smr_stats.zero () in
    L.with_stats_lock b.lc (fun () -> Smr_stats.add acc b.done_stats);
    List.iter (Smr_stats.add acc) (Atomic.get b.reaped);
    Array.iter (function None -> () | Some c -> Smr_stats.add acc c.st) b.ctxs;
    acc

  let count_retire c slot =
    P.note_retired c.b.pool slot;
    Smr_stats.add_retires c.st 1

  (* Departed/crashed threads' retires are re-buffered as the adopter's
     own, retired "now": they free through its normal sweeps, which only
     ever delays their release, and count against its garbage bound. *)
  let adopt_orphans c =
    let n = L.adopt c.b.lc ~tid:c.tid ~push:(X.push c.b.shared c.local) in
    if n > 0 then Smr_stats.note_garbage c.st (X.size c.local)

  let begin_op c =
    L.check_self c.b.lc c.tid;
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.Begin_op 0
        0

  let note_end_op c =
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.End_op 0 0

  (* One stdlib atomic load on the hot path; the active check guards a
     thread resuming after an [Expelled] verdict from adopting. *)
  let adopt_pending c =
    if L.has_orphans c.b.lc && L.is_active c.b.lc c.tid then adopt_orphans c

  let end_op c =
    note_end_op c;
    adopt_pending c

  let retract_end_op c =
    note_end_op c;
    X.retract c.b.shared c.tid;
    adopt_pending c

  let bracket ~begin_op ~end_op c body =
    begin_op c;
    match body c with
    | v ->
        end_op c;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        end_op c;
        Printexc.raise_with_backtrace e bt

  let deregister c =
    let b = c.b in
    if L.depart b.lc c.tid then begin
      (* Hand the departing thread's magazine caches back to the depot:
         an abandoned magazine would strand up to a magazine's worth of
         free slots per size class.  Safe here: we won the depart CAS, so
         no watchdog owns this tid's state. *)
      P.flush_thread b.pool ~tid:c.tid;
      X.retract b.shared c.tid;
      let slots = X.drain c.local in
      let fold () =
        Smr_stats.add b.done_stats c.st;
        b.ctxs.(c.tid) <- None
      in
      (* Watchdog schemes publish the parcel inside the stats lock, the
         others just before taking it: two orders of the same charged
         steps, each kept as the schedule its scheme has always run. *)
      if bounded_garbage then
        L.with_stats_lock b.lc (fun () ->
            L.push_parcel b.lc ~origin:c.tid slots;
            fold ())
      else begin
        L.push_parcel b.lc ~origin:c.tid slots;
        L.with_stats_lock b.lc fold
      end
    end
  (* else: a watchdog claimed us first and owns all of this state. *)

  (* Retire-path offload gate: offer the exportable part of the buffer
     to the reclaimer.  [false] means sweep inline — no offload
     installed, degraded, or the channel is backlogged (which flips the
     degrade switch as a side effect). *)
  let maybe_offload c =
    match c.b.offload with
    | None -> false
    | Some o ->
        let count = X.exportable c.local in
        count > 0
        && Smr_intf.Offload.try_accept o ~tid:c.tid ~ns:(Rt.now_ns ()) ~count
        &&
        (L.push_handoff c.b.lc ~origin:c.tid (X.export c.local);
         true)

  let buffer_retired c slot ~flush =
    X.push c.b.shared c.local slot;
    if X.size c.local >= c.b.cfg.Smr_config.bag_threshold then
      if not (maybe_offload c) then flush c;
    Smr_stats.note_garbage c.st (X.size c.local)

  let collect_published c rows scratch =
    let k = ref 0 in
    for t = 0 to c.b.n - 1 do
      if t <> c.tid then begin
        let row = rows.(t) in
        for i = 0 to Array.length row - 1 do
          let v = Rt.load row.(i) in
          if v >= 0 then begin
            scratch.(!k) <- v;
            incr k
          end
        done
      end
    done;
    let a = Array.sub scratch 0 !k in
    Array.sort compare a;
    Array.blit a 0 scratch 0 !k;
    !k

  let sweep c bag ~upto ~keep =
    let before = Limbo_bag.size bag in
    let freed =
      Limbo_bag.sweep bag ~upto ~keep ~free:(fun slot -> P.free c.b.pool slot)
    in
    Smr_stats.add_freed c.st freed;
    if !Nbr_obs.Trace.on then begin
      let ns = Rt.now_ns () in
      Nbr_obs.Trace.emit ~tid:c.tid ~ns Nbr_obs.Trace.Bag_sweep before
        (before - freed);
      Nbr_obs.Trace.emit ~tid:c.tid ~ns Nbr_obs.Trace.Reclaim freed
        (Limbo_bag.size bag)
    end

  let collect_handoffs c =
    let n = L.take_handoffs c.b.lc ~push:(X.push c.b.shared c.local) in
    if n > 0 then begin
      Smr_stats.note_garbage c.st (X.size c.local);
      match c.b.offload with
      | Some o ->
          Smr_intf.Offload.note_collected o ~tid:c.tid ~ns:(Rt.now_ns ())
            ~count:n
      | None ->
          (* End-of-trial drain with the switchboard already gone: still
             emit the collection so the sanitizer's foreign-sweep credit
             and the trace timeline stay complete. *)
          if !Nbr_obs.Trace.on then
            Nbr_obs.Trace.emit ~tid:c.tid ~ns:(Rt.now_ns ())
              Nbr_obs.Trace.Handoff_collect n 0
    end;
    n

  module Watchdog (W : sig
    val bag : X.thr -> Limbo_bag.t
  end) =
  struct
    (* Reap a peer the watchdog claimed: its magazines go back to the
       depot, its published protection is retracted, its bag becomes an
       orphan parcel, and its statistics are parked where [stats] sums
       them.  Not in the reaper's own record: readers take per-operation
       deltas of [ctx_stats].  A stdlib atomic, not the charged stats
       lock, so the reap costs no virtual time. *)
    let rec park_stats b st =
      let old = Atomic.get b.reaped in
      if not (Atomic.compare_and_set b.reaped old (st :: old)) then
        park_stats b st

    let reap c victim =
      P.flush_thread c.b.pool ~tid:victim;
      X.retract c.b.shared victim;
      match c.b.ctxs.(victim) with
      | None -> ()
      | Some vc ->
          L.push_parcel c.b.lc ~origin:victim
            (L.seize_bag c.b.lc ~origin:victim (W.bag vc.local));
          park_stats c.b vc.st;
          c.b.ctxs.(victim) <- None

    let watchdog c ~on_round =
      L.scan c.b.lc ~self:c.tid ~timeout_ns:c.b.cfg.Smr_config.wd_timeout_ns
        ~rounds:c.b.cfg.Smr_config.wd_rounds ~on_round ~reap:(fun v ->
          reap c v)
  end

  (* ---------------------------------------------------------------- *)
  (* The write phase.                                                    *)

  let alloc ?cls c = P.alloc ?on_pressure:c.pressure ?cls c.b.pool
  let free c slot = P.free c.b.pool slot
  let get_data c s f = P.get_data c.b.pool s f
  let set_data c s f v = P.set_data c.b.pool s f v
  let get_ptr c s f = P.get_ptr c.b.pool s f
  let set_ptr c s f v = P.set_ptr c.b.pool s f v
  let load_tagged c s f = P.raw_load_ptr c.b.pool s f
  let cas_tagged c s f old v = P.raw_cas_ptr c.b.pool s f old v

  (* Locks taken through the token go on the context's stack once held,
     and leave it before they are released, so the stack never names a
     lock this thread does not hold. *)
  let lock c s f =
    P.lock c.b.pool s f;
    let n = c.nheld in
    if 2 * n = Array.length c.held then begin
      let a = Array.make (4 * n) 0 in
      Array.blit c.held 0 a 0 (2 * n);
      c.held <- a
    end;
    c.held.(2 * n) <- s;
    c.held.((2 * n) + 1) <- f;
    c.nheld <- n + 1

  (* Take (s, f) off the stack, searching from the top, where the
     structures' last-taken-first unlocks find it at once. *)
  let rec forget c s f i =
    if i >= 0 then
      if c.held.(2 * i) = s && c.held.((2 * i) + 1) = f then begin
        let n = c.nheld - 1 in
        if i < n then
          Array.blit c.held (2 * (i + 1)) c.held (2 * i) (2 * (n - i));
        c.nheld <- n
      end
      else forget c s f (i - 1)

  let unlock c s f =
    forget c s f (c.nheld - 1);
    P.unlock c.b.pool s f

  (* Release, last taken first, the locks taken since the stack stood at
     [base]. *)
  let release_from c base =
    while c.nheld > base do
      let n = c.nheld - 1 in
      c.nheld <- n;
      P.unlock c.b.pool c.held.(2 * n) c.held.((2 * n) + 1)
    done

  (* The write phase of every [phase]: a lock the phase still holds when
     it returns or raises is released here. *)
  let run_write c w payload =
    let base = c.nheld in
    match w.write c payload with
    | v ->
        release_from c base;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        release_from c base;
        Printexc.raise_with_backtrace e bt

  (* A dereference of [src] reported to the pool's use-after-free
     instrumentation, for reads that cannot validate. *)
  let note_read c src =
    if src >= 0 && P.record_read c.b.pool src then Smr_stats.note_uaf c.st

  module Unguarded = struct
    let read_only c v =
      let r = v.view c in
      Smr_stats.uaf_commit c.st;
      r

    let phase c ~read ~write =
      run_write c write (fst (read_only c { view = read.read }))

    let read_ptr c ~src ~field =
      let v = P.raw_load_ptr c.b.pool src field in
      note_read c v;
      v

    let read_raw c ~src ~field =
      note_read c src;
      P.raw_load_ptr c.b.pool src field

    (* A stale read's payload is consumed, and the read counted. *)
    let consume c src v =
      note_read c src;
      v

    let read_data c ~src ~field =
      match P.read_data c.b.pool src field with
      | v -> v
      | exception P.Stale v -> consume c src v

    let peek_ptr c ~src ~field =
      match P.read_ptr c.b.pool src field with
      | v -> v
      | exception P.Stale v -> consume c src v
  end

  (* A validated read that found its record recycled inside a
     restartable read phase: protection was lost, so abort the phase like
     a failed validation rather than consume recycled memory.  The reads
     let [P.Stale] through and the phase body catches it, so the read
     path sets up no exception handler per read. *)
  let restart_stale c =
    Smr_stats.note_uaf c.st;
    raise Rt.Neutralized

  (* The restart wrapper of the validating schemes (HP, HE, IBR): a read
     phase aborted through the checkpoint is replayed, and the UAF reads
     of the aborted attempt are classified benign. *)
  let view_attempt c v attempts =
    incr attempts;
    if !attempts > 1 then Smr_stats.uaf_abort c.st;
    let r =
      match v.view c with r -> r | exception P.Stale _ -> restart_stale c
    in
    Smr_stats.uaf_commit c.st;
    r

  let read_only c v =
    let attempts = ref 0 in
    let out = Rt.checkpoint (fun () -> view_attempt c v attempts) in
    Smr_stats.add_restarts c.st (!attempts - 1);
    out

  let phase c ~read ~write =
    run_write c write (fst (read_only c { view = read.read }))

  (* Their data reads target records the traversal just protected, so a
     [Stale] refusal restarts the phase ([restart_stale]).  (IBR, whose
     intervals cover the records, takes {!Unguarded}'s.) *)
  let read_data c ~src ~field = P.read_data c.b.pool src field
  let peek_ptr c ~src ~field = P.read_ptr c.b.pool src field
end
