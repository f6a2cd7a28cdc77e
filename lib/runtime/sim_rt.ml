(** Deterministic simulated-multicore runtime.

    This module implements {!Runtime_intf.S} as a discrete-event simulation:
    worker "threads" are cooperative fibers (OCaml 5 effects) scheduled by
    virtual time, and every shared-memory access is charged cycles under a
    small cost model (cache-coherence misses on ownership transfer, dearer
    read-modify-writes, kernel-crossing costs for signals, context-switch
    and time-slice modelling for oversubscription).

    Why it exists: the paper evaluates on a 4-socket, 192-hardware-thread
    Xeon; this container has one core.  The simulator reproduces the
    {e mechanisms} the paper's results hinge on — per-read fence costs (HP),
    reclamation bursts caused by delayed threads (EBR variants), O(n) vs
    O(n²) signal counts (NBR vs NBR+), stalled threads pinning garbage —
    at any thread count, deterministically.

    Signal semantics: a victim fiber checks its pending-signal counter
    inline at {e every} shared-memory access, before performing the access,
    and (when restartable) aborts to the innermost {!checkpoint} by raising
    {!Neutralized}.  Because the simulation runs on a single domain, the
    deliver-then-access sequence is atomic, giving the paper's Assumption 4
    exactly: a signal is always delivered before the victim's next
    dereference of a shared record.

    Scheduling granularity: fibers yield to the scheduler after accumulating
    [granularity] cycles of charged work (default: every access).  Larger
    granularity coarsens interleaving (several accesses execute atomically)
    but does not weaken signal delivery, which is checked per access
    regardless.  Tests run at granularity 1; large benchmark sweeps may use a
    coarser setting for speed.

    The simulator is single-domain and not reentrant: one {!run} at a time. *)

type config = {
  cores : int;  (** simulated hardware threads *)
  ghz : float;  (** cycles per nanosecond, for {!now_ns} *)
  granularity : int;  (** cycles of work between scheduler yields *)
  quantum : int;  (** cycles per time slice when oversubscribed *)
  ctx_switch : int;  (** cycles charged per involuntary context switch *)
  c_plain_load : int;  (** cache-hit plain load *)
  c_load : int;  (** cache-hit synchronising load *)
  c_store : int;  (** store to an owned line *)
  c_atomic : int;  (** CAS/FAA/XCHG on an owned line (incl. fence) *)
  c_miss : int;  (** extra cycles when the line is owned elsewhere *)
  c_signal_send : int;  (** pthread_kill: kernel crossing on the sender *)
  c_signal_handle : int;  (** handler entry on the victim *)
  c_setjmp : int;  (** sigsetjmp checkpoint cost *)
  c_longjmp : int;  (** siglongjmp + restart cost *)
  jitter : int;  (** max extra cycles added per access, from a seeded prng *)
  seed : int;  (** jitter prng seed *)
}

let default_config =
  {
    cores = 16;
    ghz = 2.1;
    granularity = 1;
    quantum = 200_000;
    ctx_switch = 3_000;
    c_plain_load = 2;
    c_load = 4;
    c_store = 8;
    c_atomic = 20;
    c_miss = 90;
    c_signal_send = 2_500;
    c_signal_handle = 1_200;
    c_setjmp = 30;
    c_longjmp = 120;
    jitter = 8;
    seed = 0x5eed;
  }

let cfg = ref default_config
let set_config c = cfg := c
let get_config () = !cfg

exception Stuck of string
(** Raised by {!run} when the event budget is exhausted — a watchdog against
    livelocked workloads (default: unlimited). *)

let max_events = ref 0
let set_max_events n = max_events := n

(* Pluggable schedule controller (the lib/check explorer).  When
   installed, every scheduling decision — which runnable fiber resumes
   next — is delegated to the controller instead of the virtual-clock
   min-heap: it is shown the ids of all unfinished fibers (sorted by id)
   plus the id of the fiber that ran last ([-1] initially) and returns an
   {e index} into that array.  Because the runnable set at step [k] is a
   deterministic function of the first [k] decisions, a schedule is fully
   described by its decision-index sequence, which is what makes
   certificates replayable across search strategies.  Out-of-range
   returns are clamped to 0.  Virtual clocks still advance (timestamps,
   deadlines and watchdogs stay meaningful) but no longer drive
   scheduling. *)
let sched_ctl : (last:int -> runnable:int array -> int) option ref = ref None
let set_schedule_controller f = sched_ctl := f

let name = "sim"

(* ------------------------------------------------------------------ *)
(* Shared cells with an ownership tag for the coherence approximation: *)
(* [owner] is the tid of the last writer, [owner_shared] once a remote *)
(* thread has read the line, [owner_fresh] before any access.          *)
(*                                                                     *)
(* A block of [n] cells is an unboxed int array of [n] values and,     *)
(* beside it, [2n] bytes of owner tags: cell [i]'s tag is the 16-bit   *)
(* word at byte [2i], stored as [owner + owner_bias] so that the       *)
(* negative tags fit.  A standalone [aint] is a block of one, so both  *)
(* share every line of the cost model.                                 *)

let owner_shared = -2
let owner_fresh = -3
let owner_bias = 3

(* Tids run from 0 to [nthreads - 1]; the largest must fit the tag. *)
let max_threads = 0x10000 - owner_bias

type cells = { v : int array; tags : Bytes.t }
type aint = cells

(* ------------------------------------------------------------------ *)
(* Fibers.                                                             *)

exception Neutralized

type _ Effect.t += Yield : unit Effect.t

type fiber = {
  id : int;
  mutable clock : int;  (** virtual cycles consumed *)
  mutable acc : int;  (** cycles since last yield *)
  mutable qacc : int;  (** cycles in current time slice *)
  mutable pending : int;  (** signals sent to this fiber *)
  mutable delivered : int;  (** signals already handled *)
  mutable hb : int;  (** progress heartbeat: bumped per delivery point *)
  mutable seen : int;  (** signal observations (deliveries + consumes) *)
  mutable delayed : int list;
      (** fault-injected in-flight signals: the clock values at which each
          matures into [pending].  Written by senders, promoted by the
          victim — single-domain, so unsynchronized access is safe. *)
  mutable restartable : bool;
  mutable finished : bool;
  mutable kont : (unit, unit) Effect.Deep.continuation option;
}

let mk_fiber id =
  {
    id;
    clock = 0;
    acc = 0;
    qacc = 0;
    pending = 0;
    delivered = 0;
    hb = 0;
    seen = 0;
    delayed = [];
    restartable = false;
    finished = id < 0;
    kont = None;
  }

(* The current fiber outside any resumption: one shared sentinel, so the
   run loop allocates nothing per event.  Only its [restartable] flag is
   ever written (by set-up code through [set_restartable_t]); the run loop
   clears it after each resumption. *)
let sentinel = mk_fiber (-1)
let cur = ref sentinel
let fibers : fiber array ref = ref [||]
let live = ref 0
let n_threads = ref 1
let sigs_sent = ref 0
let events = ref 0

let in_fiber () = (!cur).id >= 0
let self () = if in_fiber () then (!cur).id else 0
let nthreads () = !n_threads
let signals_sent () = !sigs_sent
let total_events () = !events

(* Fault injection (lib/fault): decides the fate of each signal sent. *)
let fault_fn :
    (sender:int -> target:int -> Runtime_intf.signal_fate) option ref =
  ref None

let sigs_dropped = ref 0
let set_signal_fault f = fault_fn := f
let signals_dropped () = !sigs_dropped

(* SplitMix-style jitter: cheap enough for the per-access hot path. *)
let jit_state = ref 0x1e3779b97f4a7c15

let jitter_cycles () =
  let c = !cfg in
  if c.jitter = 0 then 0
  else begin
    let z = !jit_state + 0x1e3779b97f4a7c15 in
    jit_state := z;
    let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
    let z = z lxor (z lsr 27) in
    (z land max_int) mod c.jitter
  end

(* ------------------------------------------------------------------ *)
(* The charge / yield / deliver prologue executed before every access. *)

(* Promote fault-delayed signals whose maturity clock has passed into the
   ordinary pending count.  Cheap when no fault is active (list empty). *)
let promote_matured f =
  match f.delayed with
  | [] -> ()
  | ds ->
      let matured, inflight = List.partition (fun at -> at <= f.clock) ds in
      if matured <> [] then begin
        f.delayed <- inflight;
        f.pending <- f.pending + List.length matured
      end

(* Virtual-clock timestamp of a fiber, in ns (what [now_ns] returns for
   the current fiber). *)
let fiber_ns f = int_of_float (float_of_int f.clock /. !cfg.ghz)

let deliver_pending f =
  promote_matured f;
  if f.pending > f.delivered then begin
    f.seen <- f.seen + (f.pending - f.delivered);
    f.delivered <- f.pending;
    f.clock <- f.clock + !cfg.c_signal_handle;
    if !Nbr_obs.Trace.on then
      Nbr_obs.Trace.emit ~tid:f.id ~ns:(fiber_ns f)
        Nbr_obs.Trace.Signal_delivered f.pending 0;
    if f.restartable then begin
      f.clock <- f.clock + !cfg.c_longjmp;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid:f.id ~ns:(fiber_ns f)
          Nbr_obs.Trace.Neutralized f.pending 0;
      raise Neutralized
    end
  end

let maybe_slice_end f =
  let c = !cfg in
  if f.qacc >= c.quantum then begin
    f.qacc <- 0;
    let l = !live in
    if l > c.cores then
      (* Round-robin: after a quantum, wait for the other runnable threads
         to take their slices, plus a context-switch cost.  This is where
         oversubscription hurts, and where a descheduled thread delays
         epoch advancement for the EBR family. *)
      f.clock <- f.clock + c.ctx_switch + (c.quantum * (l - c.cores) / c.cores)
  end

(* Yield first when the slice is up (so lower-clock fibers run), then
   deliver pending signals; the caller performs the access immediately
   after, with nothing in between. *)
let prologue cost =
  let f = !cur in
  if f.id >= 0 then begin
    let cost = cost + jitter_cycles () in
    f.hb <- f.hb + 1;
    f.clock <- f.clock + cost;
    f.acc <- f.acc + cost;
    f.qacc <- f.qacc + cost;
    maybe_slice_end f;
    if f.acc >= !cfg.granularity then begin
      f.acc <- 0;
      Effect.perform Yield
    end;
    deliver_pending f
  end

(* ------------------------------------------------------------------ *)
(* Atomic cells.                                                       *)

let make_cells n v =
  if n < 0 then invalid_arg "Sim_rt.make_cells: negative length";
  (* Tag 0 is [owner_fresh]. *)
  { v = Array.make n v; tags = Bytes.make (2 * n) '\000' }

let make v = make_cells 1 v

(* Padding is a real-hardware concern; the sim's cost model is per-cell
   (ownership tags), so contended and uncontended cells are already
   distinct and padding would change nothing. *)
let make_padded = make

(* Cost of an access to cell [i]'s line.  Computed (and the tag updated)
   before the prologue, exactly as for every access since the seed.
   Out-of-range indices (negative included) raise from the
   bounds-checked tag access. *)
let load_cost a i base =
  let f = !cur in
  let b = 2 * i in
  let owner = Bytes.get_uint16_ne a.tags b - owner_bias in
  if owner = f.id || owner = owner_shared || owner = owner_fresh then base
  else begin
    Bytes.set_uint16_ne a.tags b (owner_shared + owner_bias);
    base + !cfg.c_miss
  end

let write_cost a i base =
  let f = !cur in
  let b = 2 * i in
  let owner = Bytes.get_uint16_ne a.tags b - owner_bias in
  let c =
    if owner = f.id || owner = owner_fresh then base else base + !cfg.c_miss
  in
  Bytes.set_uint16_ne a.tags b (f.id + owner_bias);
  c

let load_at a i =
  if in_fiber () then prologue (load_cost a i !cfg.c_load);
  a.v.(i)

let plain_load_at a i =
  if in_fiber () then prologue (load_cost a i !cfg.c_plain_load);
  a.v.(i)

let store_at a i v =
  if in_fiber () then prologue (write_cost a i !cfg.c_store);
  a.v.(i) <- v

let cas_at a i expected desired =
  if in_fiber () then prologue (write_cost a i !cfg.c_atomic);
  if a.v.(i) = expected then begin
    a.v.(i) <- desired;
    true
  end
  else false

let faa_at a i d =
  if in_fiber () then prologue (write_cost a i !cfg.c_atomic);
  let old = a.v.(i) in
  a.v.(i) <- old + d;
  old

let xchg_at a i v =
  if in_fiber () then prologue (write_cost a i !cfg.c_atomic);
  let old = a.v.(i) in
  a.v.(i) <- v;
  old

let load a = load_at a 0
let plain_load a = plain_load_at a 0
let store a v = store_at a 0 v
let cas a expected desired = cas_at a 0 expected desired
let faa a d = faa_at a 0 d
let xchg a v = xchg_at a 0 v

(* ------------------------------------------------------------------ *)
(* Neutralization.                                                     *)

let set_restartable_t _ b =
  (* Charged like an atomic RMW: the paper uses CAS/XCHG here purely for
     its fence (Algorithm 1, lines 8 and 12). *)
  if in_fiber () then prologue !cfg.c_atomic;
  (!cur).restartable <- b

let is_restartable () = (!cur).restartable

let send_signal t =
  if in_fiber () then prologue !cfg.c_signal_send;
  incr sigs_sent;
  if !Nbr_obs.Trace.on then
    Nbr_obs.Trace.emit ~tid:(self ())
      ~ns:(if in_fiber () then fiber_ns !cur else 0)
      Nbr_obs.Trace.Signal_sent t 0;
  let fs = !fibers in
  if t >= 0 && t < Array.length fs then begin
    let v = fs.(t) in
    match !fault_fn with
    | None -> v.pending <- v.pending + 1
    | Some decide -> (
        match decide ~sender:(self ()) ~target:t with
        | Runtime_intf.Sig_deliver -> v.pending <- v.pending + 1
        | Runtime_intf.Sig_drop -> incr sigs_dropped
        | Runtime_intf.Sig_delay ns ->
            (* Maturity is measured on the victim's clock: per-fiber clocks
               are loosely synchronized by the min-heap scheduler, and the
               victim is the one that must not see the handler early. *)
            let at = v.clock + int_of_float (float_of_int ns *. !cfg.ghz) in
            v.delayed <- at :: v.delayed)
  end

(* The delivery points take the caller's tid to keep the signature aligned
   with the native runtime, where the argument saves a DLS lookup; the sim
   has no DLS (the current fiber is a ref), so the tid is ignored and
   charged nothing. *)

let poll_t _ =
  (* Every access is already a delivery point; polling is free here. *)
  ()

let consume_pending_t _ =
  (* Deliveries happen inline at every access; by the time a fiber runs
     straight-line code after an access, nothing can be pending — unless a
     fault delayed delivery.  An in-flight delayed signal was {e sent}
     before this point, so [end_read] must treat it exactly like the
     polling runtimes treat an undelivered pending signal: report it (the
     caller restarts), or the reservation-publication race re-opens. *)
  let f = !cur in
  if f.id < 0 then false
  else begin
    let had = f.delayed <> [] || f.pending > f.delivered in
    f.delayed <- [];
    f.delivered <- f.pending;
    if had then f.seen <- f.seen + 1;
    if had && !Nbr_obs.Trace.on then
      Nbr_obs.Trace.emit ~tid:f.id ~ns:(fiber_ns f)
        Nbr_obs.Trace.Signal_consumed f.pending 0;
    had
  end

let drain_signals_t _ =
  let f = !cur in
  if f.id >= 0 then begin
    let had = f.delayed <> [] || f.pending > f.delivered in
    if had && !Nbr_obs.Trace.on then
      Nbr_obs.Trace.emit ~tid:f.id ~ns:(fiber_ns f)
        Nbr_obs.Trace.Signal_consumed f.pending 1;
    f.delayed <- [];
    f.delivered <- f.pending;
    if had then f.seen <- f.seen + 1
  end

(* Cross-thread progress readouts for the crash-recovery watchdog.  The
   reads are charged like plain loads of a remote line; values are exact
   here (single domain), which is what makes watchdog verdicts — and the
   chaos trials built on them — deterministic in sim. *)

let heartbeat t =
  if in_fiber () then prologue (!cfg).c_plain_load;
  let fs = !fibers in
  if t >= 0 && t < Array.length fs then fs.(t).hb else 0

let signals_seen t =
  if in_fiber () then prologue (!cfg).c_plain_load;
  let fs = !fibers in
  if t >= 0 && t < Array.length fs then fs.(t).seen else 0

let fault_injection_active () = !fault_fn <> None

(* Top-level, so that a checkpoint allocates no replay closure. *)
let rec replay f = try f () with Neutralized -> replay f

let checkpoint f =
  if in_fiber () then prologue !cfg.c_setjmp;
  replay f

(* ------------------------------------------------------------------ *)
(* Time.                                                               *)

let now_ns () =
  let f = !cur in
  if f.id >= 0 then int_of_float (float_of_int f.clock /. !cfg.ghz) else 0

let stall_ns ns =
  let f = !cur in
  if f.id >= 0 then begin
    f.clock <- f.clock + int_of_float (float_of_int ns *. !cfg.ghz);
    f.acc <- 0;
    f.qacc <- 0;
    Effect.perform Yield;
    deliver_pending f
  end

let cpu_relax () = if in_fiber () then prologue 6
let work cycles = if in_fiber () then prologue cycles

(* ------------------------------------------------------------------ *)
(* Scheduler: a binary min-heap of runnable fibers keyed by clock.     *)

module Heap = struct
  type t = { mutable a : fiber array; mutable n : int }

  let create cap = { a = Array.make (max cap 1) sentinel; n = 0 }
  let lt x y = x.clock < y.clock || (x.clock = y.clock && x.id < y.id)

  let swap h i j =
    let tmp = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- tmp

  let push h f =
    if h.n = Array.length h.a then begin
      let a' = Array.make (2 * h.n) h.a.(0) in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    h.a.(h.n) <- f;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    let up = ref true in
    while !up && !i > 0 do
      let p = (!i - 1) / 2 in
      if lt h.a.(!i) h.a.(p) then begin
        swap h !i p;
        i := p
      end
      else up := false
    done

  (* Restore the order below the top after its key grew. *)
  let sift_down h =
    let i = ref 0 in
    let down = ref true in
    while !down do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.n && lt h.a.(l) h.a.(!m) then m := l;
      if r < h.n && lt h.a.(r) h.a.(!m) then m := r;
      if !m <> !i then begin
        swap h !i !m;
        i := !m
      end
      else down := false
    done

  let pop h =
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    sift_down h
end

let run ~nthreads:n body =
  if n < 1 then invalid_arg "Sim_rt.run: nthreads must be >= 1";
  if n > max_threads then
    invalid_arg
      (Printf.sprintf "Sim_rt.run: nthreads must be <= %d" max_threads);
  let c = !cfg in
  jit_state := 0x1e3779b97f4a7c15 lxor c.seed;
  sigs_sent := 0;
  sigs_dropped := 0;
  events := 0;
  n_threads := n;
  let fs = Array.init n mk_fiber in
  (* Oversubscribed: only [cores] threads can really start at once; the
     rest begin after earlier waves have had a slice (round-robin).
     Without this, every thread would run its first quantum
     "simultaneously", overcommitting the machine at start-up. *)
  if n > c.cores then
    Array.iter
      (fun f -> f.clock <- f.id / c.cores * (c.quantum + c.ctx_switch))
      fs;
  fibers := fs;
  live := n;
  let heap = Heap.create (2 * n) in
  let failure : exn option ref = ref None in
  let resume_one f =
    let open Effect.Deep in
    cur := f;
    (match f.kont with
    | Some k ->
        f.kont <- None;
        continue k ()
    | None ->
        (* First activation of this fiber.  The handler's answer to a
           yield is built here, once: [effc] hands back the same value on
           every event instead of a fresh closure and option. *)
        let on_yield = Some (fun k -> f.kont <- Some k) in
        match_with
          (fun () -> body f.id)
          ()
          {
            retc =
              (fun () ->
                f.finished <- true;
                decr live);
            exnc =
              (fun e ->
                f.finished <- true;
                decr live;
                if !failure = None then failure := Some e);
            effc =
              (fun (type a) (eff : a Effect.t) :
                   ((a, unit) continuation -> unit) option ->
                match eff with Yield -> on_yield | _ -> None);
          });
    sentinel.restartable <- false;
    cur := sentinel
  in
  let stuck_msg () =
    String.concat "; "
      (Array.to_list
         (Array.map
            (fun g ->
              Printf.sprintf "t%d clock=%d fin=%b restartable=%b" g.id g.clock
                g.finished g.restartable)
            fs))
  in
  let budget_blown () =
    incr events;
    if !max_events > 0 && !events > !max_events then begin
      failure := Some (Stuck (stuck_msg ()));
      true
    end
    else false
  in
  (match !sched_ctl with
  | None ->
      Array.iter (fun f -> Heap.push heap f) fs;
      (* The top fiber runs in place.  A resume moves only that fiber's
         clock, and only forward, so one sift-down restores the heap;
         (clock, id) is a strict total order, so the run order does not
         depend on the heap's shape. *)
      while heap.Heap.n > 0 && !failure = None do
        let f = heap.Heap.a.(0) in
        if f.finished then Heap.pop heap
        else if not (budget_blown ()) then begin
          resume_one f;
          if f.finished then Heap.pop heap else Heap.sift_down heap
        end
      done
  | Some pick ->
      (* Controlled mode: gather the unfinished fibers in id order and ask
         the controller which one runs.  Single-domain and effect-driven,
         so the execution is a pure function of the decision sequence. *)
      let buf = Array.make n (-1) in
      let last = ref (-1) in
      let running = ref true in
      while !running && !failure = None do
        let k = ref 0 in
        Array.iter
          (fun f ->
            if not f.finished then begin
              buf.(!k) <- f.id;
              incr k
            end)
          fs;
        if !k = 0 then running := false
        else if not (budget_blown ()) then begin
          let runnable = Array.sub buf 0 !k in
          let idx = pick ~last:!last ~runnable in
          let idx = if idx < 0 || idx >= !k then 0 else idx in
          let f = fs.(runnable.(idx)) in
          last := f.id;
          resume_one f
        end
      done);
  fibers := [||];
  n_threads := 1;
  match !failure with None -> () | Some e -> raise e
