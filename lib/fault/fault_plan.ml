(** Deterministic fault schedules for chaos trials.

    A plan is data, not behaviour: per-thread lists of faults anchored to
    operation indices, plus an optional signal-fate policy.  The trial
    runner ({!Nbr_workload.Runner}) and the KV service interpret thread
    faults between operations through {!pop_due}, and install {!decider}
    into the runtime via [Rt.set_signal_fault]; the SMR schemes under
    test run unmodified.  Everything is derived from one seed through
    {!Nbr_sync.Rng}, so a chaos trial is as replayable as a clean one.

    The fault vocabulary matches the adversities the paper's robustness
    argument (E2, §7) is about:

    - {e stalls} — a thread stops mid-operation for a long time, as if
      descheduled: the scenario where epoch schemes pin unbounded garbage
      and bounded schemes (NBR/HP/IBR) keep reclaiming;
    - {e crashes} — a thread dies inside an operation, never calling
      [end_op]: its reservations/announcements stay published forever,
      turning the stall scenario permanent;
    - {e allocation hogs} — a thread grabs a burst of slots and sits on
      them, manufacturing pool pressure to drive the graceful-exhaustion
      path;
    - {e signal faults} — neutralization signals are delivered late or
      (optionally) lost, probing NBR's dependence on the paper's
      Assumption 4 and POSIX delivery guarantees;
    - {e reclaimer faults} — the background reclaimer role (see
      {!Nbr_reclaim.Reclaimer}) stalls or crashes mid-trial, probing the
      degrade-to-inline fallback and the restore path (DESIGN.md §12). *)

type thread_fault =
  | Stall of { at_op : int; ns : int }
      (** stop for [ns] simulated/wall nanoseconds after completing
          operation [at_op], while {e inside} the next operation's read
          phase (the paper's delayed-thread scenario) *)
  | Crash of { at_op : int }
      (** after [at_op] operations, enter an operation and never return:
          no [end_op], reservations and limbo bag orphaned *)
  | Hog of { at_op : int; slots : int; ns : int }
      (** after [at_op] operations, allocate [slots] pool slots directly,
          hold them for [ns], then free them — induced pool pressure *)
  | Shard_hog of { at_op : int; shard : int; slots : int; ns : int }
      (** like [Hog], but aimed at one shard of a sharded store: the
          slots come from that shard's pool, so the pressure (and any
          breaker trip) lands on a known shard.  Interpreters without
          shards (the single-pool trial runner) treat it as [Hog]. *)

type reclaimer_fault =
  | R_stall of { at_iter : int; ns : int }
      (** after [at_iter] reclaimer loop iterations, sleep [ns] without
          draining — handoffs pile up until workers degrade to inline *)
  | R_crash of { at_iter : int; restart_ns : int }
      (** after [at_iter] iterations, deregister and go dark; come back
          after [restart_ns] (negative = never restart) *)

type signal_fault = {
  delay_pct : int;  (** % of signals whose handler runs late *)
  delay_ns : int;  (** how late *)
  drop_pct : int;
      (** % of signals lost outright.  POSIX forbids this for
          [pthread_kill]; non-zero values are for demonstrating what the
          guarantee buys (expect UAF reads), like the mutants of NBR's
          handshake in test/mutants — keep 0 in safety-asserting
          tests. *)
}

type t = {
  seed : int;
  threads : thread_fault list array;  (** per tid, sorted by trigger op *)
  signals : signal_fault option;
  reclaimer : reclaimer_fault list;  (** sorted by trigger iteration *)
}

let none ~nthreads =
  {
    seed = 0;
    threads = Array.make nthreads [];
    signals = None;
    reclaimer = [];
  }

let fault_op = function
  | Stall { at_op; _ } | Crash { at_op } | Hog { at_op; _ }
  | Shard_hog { at_op; _ } ->
      at_op

(* Orders a thread's fault list for the runner: by trigger op, and for a
   tie a Crash fires after anything else at the same index — a thread that
   both stalls and crashes at op [k] should suffer the stall first, since
   the crash is terminal (faults after it are unreachable). *)
let fault_rank = function
  | Stall _ -> 0
  | Hog _ | Shard_hog _ -> 1
  | Crash _ -> 2

let sort_faults l =
  List.sort
    (fun a b ->
      match compare (fault_op a) (fault_op b) with
      | 0 -> compare (fault_rank a) (fault_rank b)
      | c -> c)
    l

(** Seeded chaos: [stalls] stalled threads and [crashes] crashed threads,
    each triggered at a random operation index in [\[1, ops_window\]].
    Victims are drawn without replacement {e within} each fault kind but
    the pool resets between kinds, so one thread can draw both a stall and
    a crash — the paper's worst case of a delayed thread that then dies.
    Thread 0 is never a victim, so every plan leaves at least one thread
    running to completion.  Stall durations are uniform in
    [\[stall_ns, 2*stall_ns)].  Per-thread fault lists are ordered by
    trigger op with crashes last on ties (a crash is terminal).  [signal]
    installs a signal-fate policy (delays stress Assumption 4 but remain
    safe; drops are opt-in and unsafe by design). *)
let chaos ~seed ~nthreads ?(stalls = 2) ?(crashes = 1) ?(stall_ns = 50_000)
    ?(ops_window = 100) ?signal () =
  if nthreads < 2 then invalid_arg "Fault_plan.chaos: nthreads must be >= 2";
  let rng = Nbr_sync.Rng.create (seed lxor 0x5eed_fa17) in
  let threads = Array.make nthreads [] in
  let victims () = List.init (nthreads - 1) (fun i -> i + 1) in
  let avail = ref (victims ()) in
  let draw_victim () =
    match !avail with
    | [] -> None
    | l ->
        let tid = List.nth l (Nbr_sync.Rng.below rng (List.length l)) in
        avail := List.filter (fun x -> x <> tid) l;
        Some tid
  in
  let at () = 1 + Nbr_sync.Rng.below rng (max 1 ops_window) in
  for _ = 1 to stalls do
    match draw_victim () with
    | None -> ()
    | Some tid ->
        let ns = stall_ns + Nbr_sync.Rng.below rng (max 1 stall_ns) in
        threads.(tid) <- Stall { at_op = at (); ns } :: threads.(tid)
  done;
  (* Fresh victim pool: a stalled thread may also crash. *)
  avail := victims ();
  for _ = 1 to crashes do
    match draw_victim () with
    | None -> ()
    | Some tid -> threads.(tid) <- Crash { at_op = at () } :: threads.(tid)
  done;
  Array.iteri (fun i l -> threads.(i) <- sort_faults l) threads;
  { seed; threads; signals = signal; reclaimer = [] }

let reclaimer_fault_iter = function
  | R_stall { at_iter; _ } | R_crash { at_iter; _ } -> at_iter

(** Pressure chaos: the reclaim experiment's adversary.  A [chaos] base
    (stalled + crashed workers), plus [hogs] allocation-hog bursts to
    manufacture pool pressure, plus a reclaimer schedule: one stall long
    enough to trip the backlog detector, then a crash with a restart
    after [restart_ns] ([restart_ns < 0] keeps it dead, the permanent
    degradation case).  Everything is seed-derived except the reclaimer
    schedule, which is fixed so the degrade → restore sequence the CI
    smoke asserts on is present in every plan. *)
let pressure_chaos ~seed ~nthreads ?(stalls = 1) ?(crashes = 1) ?(hogs = 1)
    ?(hog_slots = 32) ?(stall_ns = 50_000) ?(ops_window = 100)
    ?(reclaimer_stall_ns = 200_000) ?(restart_ns = 400_000) ?signal () =
  let base = chaos ~seed ~nthreads ~stalls ~crashes ~stall_ns ~ops_window ?signal () in
  let rng = Nbr_sync.Rng.create (seed lxor 0x9e55_0e5a) in
  let threads = Array.copy base.threads in
  for _ = 1 to hogs do
    if nthreads > 1 then begin
      let tid = 1 + Nbr_sync.Rng.below rng (nthreads - 1) in
      let at_op = 1 + Nbr_sync.Rng.below rng (max 1 ops_window) in
      threads.(tid) <-
        sort_faults (Hog { at_op; slots = hog_slots; ns = stall_ns } :: threads.(tid))
    end
  done;
  let reclaimer =
    [
      R_stall { at_iter = 50; ns = reclaimer_stall_ns };
      R_crash { at_iter = 150; restart_ns };
    ]
  in
  { base with threads; reclaimer }

(** Shard pressure: the slo-chaos adversary.  A fixed (not seed-drawn)
    schedule of overlapping [Shard_hog] bursts, all aimed at one shard:
    hog [i] fires from thread [1 + i mod (nthreads-1)] at op
    [start_op + i*stagger_ops] and holds [hold_ns], so the target
    shard's pool occupancy stays above its watermark across several
    consecutive service health polls (tripping its breaker up the
    brownout ladder and open), then drains completely (letting the
    half-open probes succeed and the breaker close).  The schedule is
    fixed so the open → half-open → close round-trip the CI smoke
    asserts on is present in every plan; [seed] is recorded for replay
    bookkeeping only.  Thread 0 never hogs, so requests keep flowing. *)
let shard_pressure ~seed ~nthreads ~shard ?(hogs = 3) ?(hog_slots = 48)
    ?(start_op = 20) ?(stagger_ops = 15) ?(hold_ns = 300_000) () =
  if nthreads < 2 then
    invalid_arg "Fault_plan.shard_pressure: nthreads must be >= 2";
  if shard < 0 then invalid_arg "Fault_plan.shard_pressure: shard";
  let threads = Array.make nthreads [] in
  for i = 0 to hogs - 1 do
    let tid = 1 + (i mod (nthreads - 1)) in
    let at_op = start_op + (i * stagger_ops) in
    threads.(tid) <-
      Shard_hog { at_op; shard; slots = hog_slots; ns = hold_ns }
      :: threads.(tid)
  done;
  Array.iteri (fun i l -> threads.(i) <- sort_faults l) threads;
  { seed; threads; signals = None; reclaimer = [] }

(* Reclaimer faults count: a stalled reclaimer must be reapable by the
   workers' watchdogs. *)
let faults_threads t =
  t.reclaimer <> [] || Array.exists (fun l -> l <> []) t.threads

let faults_for t tid =
  if tid >= 0 && tid < Array.length t.threads then t.threads.(tid) else []

let tids_with pred t =
  List.filter
    (fun tid -> List.exists pred t.threads.(tid))
    (List.init (Array.length t.threads) Fun.id)

let crashed_tids = tids_with (function Crash _ -> true | _ -> false)
let stalled_tids = tids_with (function Stall _ -> true | _ -> false)

(* SplitMix-style avalanche, so the fate of signal [k] from [sender] to
   [target] is a pure function of (plan seed, k, sender, target) — stable
   across runs in the deterministic simulator. *)
let mix a b =
  let z = (a lxor (b * 0x9e3779b9)) + 0x1e3779b97f4a7c15 in
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14c2ca6afdf2dcef in
  (z lxor (z lsr 31)) land max_int

(** The decider to install with [Rt.set_signal_fault], or [None] if the
    plan leaves signals alone.  Call once per trial: the returned closure
    numbers sends with a private counter. *)
let fate_fn t =
  match t.signals with
  | None -> None
  | Some sf ->
      let count = Atomic.make 0 in
      Some
        (fun ~sender ~target ->
          let k = Atomic.fetch_and_add count 1 in
          let r = mix t.seed (mix k (mix sender target)) mod 100 in
          if r < sf.drop_pct then Nbr_runtime.Runtime_intf.Sig_drop
          else if r < sf.drop_pct + sf.delay_pct then
            Nbr_runtime.Runtime_intf.Sig_delay sf.delay_ns
          else Nbr_runtime.Runtime_intf.Sig_deliver)

let decider t =
  match fate_fn t with
  | Some _ as f -> f
  | None when faults_threads t ->
      Some (fun ~sender:_ ~target:_ -> Nbr_runtime.Runtime_intf.Sig_deliver)
  | None -> None

(* Pops a thread's next fault once its trigger index is reached, and
   traces the action. *)
let pop_due faults ~tid ~now ops =
  match !faults with
  | f :: rest when fault_op f <= ops ->
      faults := rest;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid ~ns:(now ()) Nbr_obs.Trace.Fault_action
          (match f with
          | Stall _ -> 0
          | Crash _ -> 1
          | Hog _ -> 2
          | Shard_hog _ -> 3)
          ops;
      Some f
  | _ -> None

let pp_thread_fault ppf = function
  | Stall { at_op; ns } -> Format.fprintf ppf "stall@%d(%dns)" at_op ns
  | Crash { at_op } -> Format.fprintf ppf "crash@%d" at_op
  | Hog { at_op; slots; ns } ->
      Format.fprintf ppf "hog@%d(%d slots,%dns)" at_op slots ns
  | Shard_hog { at_op; shard; slots; ns } ->
      Format.fprintf ppf "shard%d-hog@%d(%d slots,%dns)" shard at_op slots ns

let pp_reclaimer_fault ppf = function
  | R_stall { at_iter; ns } -> Format.fprintf ppf "r-stall@%d(%dns)" at_iter ns
  | R_crash { at_iter; restart_ns } ->
      if restart_ns < 0 then Format.fprintf ppf "r-crash@%d(final)" at_iter
      else Format.fprintf ppf "r-crash@%d(back in %dns)" at_iter restart_ns

let pp ppf t =
  let comma ppf () = Format.fprintf ppf "," in
  Format.fprintf ppf "plan{seed=%d" t.seed;
  Array.iteri
    (fun tid l ->
      if l <> [] then
        Format.fprintf ppf "; t%d:%a" tid
          (Format.pp_print_list ~pp_sep:comma pp_thread_fault)
          l)
    t.threads;
  (match t.signals with
  | None -> ()
  | Some { delay_pct; delay_ns; drop_pct } ->
      Format.fprintf ppf "; signals: delay %d%%(%dns) drop %d%%" delay_pct
        delay_ns drop_pct);
  if t.reclaimer <> [] then
    Format.fprintf ppf "; reclaimer:%a"
      (Format.pp_print_list ~pp_sep:comma pp_reclaimer_fault)
      t.reclaimer;
  Format.fprintf ppf "}"
