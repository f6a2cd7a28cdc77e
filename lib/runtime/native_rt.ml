(** Native runtime: real OCaml domains, polling-based neutralization.

    This is the "runs on actual parallel hardware" implementation of
    {!Runtime_intf.S}.  POSIX signals cannot be used for neutralization in
    OCaml (long-jumping out of an asynchronous handler would corrupt the
    runtime), so signals become per-thread monotone counters that the SMR
    layer consumes at {!poll_t} points — the top of every guarded dereference
    and the tail of [end_read].  When a pending signal is observed by a
    restartable thread, {!Neutralized} unwinds to the innermost
    {!checkpoint}, which replays the read phase: the [siglongjmp] of the
    paper, minus the asynchrony.

    Safety under asynchrony-minus: between a victim's last poll and its next
    access there is a window in which a reclaimer may free a record the
    victim is about to read.  This is harmless here because records live in
    a GC-backed {!Pool} whose memory is never unmapped (exactly the
    jemalloc situation the paper relies on), pointer fields always hold
    in-bounds slot indices, and no value read in the window can be
    committed: every subsequent dereference polls and the phase-closing
    [end_read] polls after its fence, so the operation restarts before it
    returns a result or performs any shared write.  See DESIGN.md §3.

    Hot-path layout: each thread's signal state lives in one
    cache-line-padded {!tstate} record so a reclaimer bombing thread [i]
    never invalidates the line thread [j] polls ([Atomic.t] blocks allocated
    back to back otherwise pack ~8 per 64-byte line).  [poll] on the
    fault-free path is a single plain flag load, one [Atomic.get] and a
    compare — the [delayed]-list drain hides behind [faults_active], set
    only while a fault decider is installed, and trace emission behind
    [Nbr_obs.Trace.on], checked only on the rare signal-observed branch.
    The delivery points take the caller's tid as an argument so the SMR
    layer (which already knows its tid from the operation context) skips
    the [Domain.DLS] lookup that otherwise costs more than the poll
    itself. *)

let name = "native"

(* ------------------------------------------------------------------ *)

type aint = int Atomic.t

let make v = Atomic.make v
let make_padded v = Nbr_sync.Padded.copy_as_padded (Atomic.make v)
let load = Atomic.get
let plain_load = Atomic.get
let store = Atomic.set

let cas a expected desired = Atomic.compare_and_set a expected desired
let faa a d = Atomic.fetch_and_add a d
let xchg a v = Atomic.exchange a v

(* OCaml 5.1/5.2 has no atomic arrays, so a block is an array of boxed
   atomics: the same per-cell layout as a standalone [aint]. *)
type cells = int Atomic.t array

let make_cells n v = Array.init n (fun _ -> Atomic.make v)
let load_at c i = Atomic.get c.(i)
let plain_load_at = load_at
let store_at c i v = Atomic.set c.(i) v
let cas_at c i expected desired = Atomic.compare_and_set c.(i) expected desired
let faa_at c i d = Atomic.fetch_and_add c.(i) d
let xchg_at c i v = Atomic.exchange c.(i) v

(* ------------------------------------------------------------------ *)
(* Thread identity. *)

let tid_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let self () = Domain.DLS.get tid_key

let n_threads = ref 1
let nthreads () = !n_threads

(* ------------------------------------------------------------------ *)
(* Signals. *)

exception Neutralized

(* All mutable signal state of one thread, one padded block per thread so
   threads never share a cache line through this structure.  The atomics
   inside are padded too: the record fields are just pointers, and without
   padding the pointed-to [Atomic.t] blocks (allocated together) would
   still false-share.

   [last_seen] is only touched by the owning thread.  [restartable] is
   per-thread too, but written with a fenced exchange to match the paper's
   Algorithm 1 (lines 8/12): the RMW orders reservation publication before
   the flag flip. *)
type tstate = {
  pending : int Atomic.t;
  restartable : bool Atomic.t;
  delayed : int list Atomic.t;
      (** fault-injected in-flight signals: maturity timestamps (ns) *)
  mutable last_seen : int;
  mutable hb : int;
      (** progress heartbeat, bumped per poll.  Plain field on the
          thread's own padded line: the owner's increment is one store
          with no fence, and the watchdog's cross-domain read tolerates
          staleness (a monotone counter read late only delays
          detection). *)
}

let mk_tstate () =
  Nbr_sync.Padded.copy_as_padded
    {
      pending = Nbr_sync.Padded.make_atomic 0;
      restartable = Nbr_sync.Padded.make false;
      delayed = Nbr_sync.Padded.make [];
      last_seen = 0;
      hb = 0;
    }

(* Sized at [run]; index = tid. *)
let tstates : tstate array ref = ref [||]
let sigs_sent = Atomic.make 0

let signals_sent () = Atomic.get sigs_sent

(* ------------------------------------------------------------------ *)
(* Fault injection: delayed signals are parked per victim as a list of
   maturity timestamps (ns); the victim promotes matured entries into its
   pending counter at each poll.  A Treiber-style CAS list keeps senders
   lock-free; the victim drains with exchange.

   [faults_active] gates the whole machinery out of the hot path: it is a
   plain ref read first in [poll_t], so fault-free runs (every benchmark,
   most tests) pay one predictable not-taken branch instead of an atomic
   list inspection per poll.  The flag is raised {e before} the decider is
   installed and stays raised after the decider is removed (already-parked
   delayed signals must still mature and drain); [run] resets it. *)

let fault_fn :
    (sender:int -> target:int -> Runtime_intf.signal_fate) option ref =
  ref None

let faults_active = ref false
let sigs_dropped = Atomic.make 0

let set_signal_fault f =
  (match f with Some _ -> faults_active := true | None -> ());
  fault_fn := f

let signals_dropped () = Atomic.get sigs_dropped

let rec push_delayed cell at =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (at :: old)) then push_delayed cell at

external monotonic_now_ns : unit -> int = "nbr_monotonic_now_ns" [@@noalloc]

let now_ns = monotonic_now_ns

(* Move delayed entries into [pending]: all of them when [all], otherwise
   only those whose maturity has passed (unmatured ones are re-parked). *)
let promote_delayed ~all s =
  if Atomic.get s.delayed <> [] then begin
    let entries = Atomic.exchange s.delayed [] in
    let now = now_ns () in
    let promoted = ref 0 in
    List.iter
      (fun at ->
        if all || at <= now then incr promoted else push_delayed s.delayed at)
      entries;
    if !promoted > 0 then ignore (Atomic.fetch_and_add s.pending !promoted)
  end

let send_signal t =
  let ts = !tstates in
  if t >= 0 && t < Array.length ts then begin
    Atomic.incr sigs_sent;
    if !Nbr_obs.Trace.on then
      Nbr_obs.Trace.emit
        ~tid:(Domain.DLS.get tid_key)
        ~ns:(now_ns ()) Nbr_obs.Trace.Signal_sent t 0;
    let s = Array.unsafe_get ts t in
    match !fault_fn with
    | None -> Atomic.incr s.pending
    | Some decide -> (
        match decide ~sender:(Domain.DLS.get tid_key) ~target:t with
        | Runtime_intf.Sig_deliver -> Atomic.incr s.pending
        | Runtime_intf.Sig_drop -> Atomic.incr sigs_dropped
        | Runtime_intf.Sig_delay ns -> push_delayed s.delayed (now_ns () + ns))
  end

(* ------------------------------------------------------------------ *)
(* tid-threaded fast paths.  The bounds check keeps calls from outside
   [run] (setup code, single-threaded benches) safe no-ops; inside [run]
   it is one predictable compare against an in-register length. *)

let set_restartable_t t b =
  let ts = !tstates in
  if t < Array.length ts then
    ignore (Atomic.exchange (Array.unsafe_get ts t).restartable b)

let poll_t t =
  let ts = !tstates in
  if t < Array.length ts then begin
    let s = Array.unsafe_get ts t in
    s.hb <- s.hb + 1;
    (* Matured fault-delayed signals become pending now; unmatured ones
       stay parked (the handler must not run before the delay elapses). *)
    if !faults_active then promote_delayed ~all:false s;
    let v = Atomic.get s.pending in
    if v > s.last_seen then begin
      s.last_seen <- v;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid:t ~ns:(now_ns ())
          Nbr_obs.Trace.Signal_delivered v 0;
      if Atomic.get s.restartable then begin
        if !Nbr_obs.Trace.on then
          Nbr_obs.Trace.emit ~tid:t ~ns:(now_ns ()) Nbr_obs.Trace.Neutralized
            v 0;
        raise Neutralized
      end
    end
  end

let consume_pending_t t =
  let ts = !tstates in
  if t < Array.length ts then begin
    let s = Array.unsafe_get ts t in
    (* In-flight delayed signals were sent before this check: [end_read]
       must observe them (and restart) or the publication race re-opens —
       late delivery must not look like no signal. *)
    if !faults_active then promote_delayed ~all:true s;
    let v = Atomic.get s.pending in
    if v > s.last_seen then begin
      s.last_seen <- v;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid:t ~ns:(now_ns ())
          Nbr_obs.Trace.Signal_consumed v 0;
      true
    end
    else false
  end
  else false

let drain_signals_t t =
  let ts = !tstates in
  if t < Array.length ts then begin
    let s = Array.unsafe_get ts t in
    if !faults_active then promote_delayed ~all:true s;
    let v = Atomic.get s.pending in
    if v > s.last_seen && !Nbr_obs.Trace.on then
      Nbr_obs.Trace.emit ~tid:t ~ns:(now_ns ()) Nbr_obs.Trace.Signal_consumed
        v 1;
    s.last_seen <- v
  end

(* Cross-thread progress readouts for the crash-recovery watchdog: plain
   reads of another thread's padded counters.  Both are monotone and
   stale-tolerant — a value the hardware has not propagated yet reads
   like a slow peer and only delays the watchdog's verdict. *)

let heartbeat t =
  let ts = !tstates in
  if t >= 0 && t < Array.length ts then (Array.unsafe_get ts t).hb else 0

let signals_seen t =
  let ts = !tstates in
  if t >= 0 && t < Array.length ts then (Array.unsafe_get ts t).last_seen
  else 0

let fault_injection_active () = !fault_fn <> None

let is_restartable () =
  let t = self () in
  let ts = !tstates in
  t < Array.length ts && Atomic.get (Array.unsafe_get ts t).restartable

(* Top-level, so that a checkpoint allocates no replay closure. *)
let rec replay f = try f () with Neutralized -> replay f

let checkpoint f = replay f

(* ------------------------------------------------------------------ *)
(* Time ([now_ns] is defined above, with the fault machinery). *)

let stall_ns ns = Unix.sleepf (float_of_int ns /. 1e9)
let cpu_relax () = Domain.cpu_relax ()
let work _ = ()

(* ------------------------------------------------------------------ *)

let running = ref false

let run ~nthreads:n body =
  if n < 1 then invalid_arg "Native_rt.run: nthreads must be >= 1";
  if !running then invalid_arg "Native_rt.run: not reentrant";
  running := true;
  n_threads := n;
  tstates := Array.init n (fun _ -> mk_tstate ());
  faults_active := !fault_fn <> None;
  Atomic.set sigs_sent 0;
  Atomic.set sigs_dropped 0;
  let failure : exn option Atomic.t = Atomic.make None in
  let wrap tid () =
    Domain.DLS.set tid_key tid;
    try body tid
    with e -> ignore (Atomic.compare_and_set failure None (Some e))
  in
  let domains = Array.init (n - 1) (fun i -> Domain.spawn (wrap (i + 1))) in
  wrap 0 ();
  Array.iter Domain.join domains;
  Domain.DLS.set tid_key 0;
  n_threads := 1;
  tstates := [||];
  running := false;
  match Atomic.get failure with None -> () | Some e -> raise e
