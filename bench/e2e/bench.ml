(* One benchmark run: set the store up, drive it from pre-generated
   requests, check its answers, and measure.

   A run has four steps.  The store runs on the simulated machine, so
   steps 2–4 are timed in its virtual clock (wall time is measured
   beside it); set-up is timed in wall-clock time:
   1. set-up, several times (see [setup_reps]): Store.create plus the
      prefill puts; the median is [setup_s] and the last store is the one
      measured;
   2. one closed-loop warm-up slice, discarded;
   3. closed-loop capacity slices over each worker's request ring;
   4. the open-loop phase: every request is sent at its due time and
      timed from it, so a stall that delays later requests shows in their
      latency.

   With [traced] the capacity slices alternate untraced and traced (the
   ratio of their medians is the tracing overhead) and the open-loop
   phase records spans; the end-to-end numbers of a traced run are only
   diagnostics. *)

module Traffic = Nbr_workload.Traffic
module Guard = Nbr_kv.Guard
module Histogram = Nbr_obs.Histogram
module Trace = Nbr_obs.Trace

type group = End_to_end | Per_layer | Diagnostic
type metric = { group : group; name : string; value : float; unit : string }

type report = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  noisy : bool;
  metrics : metric list;
  failures : string list;  (** output checks that did not hold *)
  digest : string;  (** of every pre-generated request *)
}

(* Aggregates of a traced phase, fed by every completed request.  Spans
   are timed in virtual time; the guard's calls and the client's own code
   are also timed in wall-clock ns, because they make no shared access
   the simulator's cost model charges, so they take no virtual time at
   all.  No other simulated thread runs inside them, so their wall time
   is their own CPU time. *)
module Agg = struct
  type t = {
    hist : Histogram.t array;  (** per span kind, virtual time *)
    wall : int array;  (** per span kind: Σ wall-clock ns *)
    mutable self_wall : int;  (** Σ wall-clock self time of requests *)
    self_hist : Histogram.t;
    mutable n : int;
    buf : Span.Buf.t;
    mutable reclaims : int;
    mutable freed : int;
    mutable swept : int;
  }

  let create ~spans =
    let k = Array.length Span.kinds in
    {
      hist = Array.init k (fun _ -> Histogram.create ());
      wall = Array.make k 0;
      self_wall = 0;
      self_hist = Histogram.create ();
      n = 0;
      buf = Span.Buf.create spans;
      reclaims = 0;
      freed = 0;
      swept = 0;
    }
end

let span_file_requests = 50_000

(* Per open-loop request: latency from due time, wait from due time to
   start, and (traced) the store.exec_on span; lat = -1 marks a failure. *)
type results = { lat : Schedule.ints; wait : Schedule.ints; exec : Schedule.ints }

let secs ns = float_of_int ns /. 1e9

(* Set-ups per run, whose median is [setup_s]: at least five, and more
   while they have taken less than a second, so that a short set-up is
   repeated often enough for its median to settle. *)
let setup_reps ~elapsed n = n < 5 || (elapsed < 1.0 && n < 25)

module Rt = Nbr_runtime.Sim_rt
module St = Nbr_kv.Store.Make (Rt)

(* One request worker: its pre-generated requests, where their results
   go, and its scratch state. *)
type wk = {
  tid : int;
  ring : Schedule.ints;
  lane : Schedule.lane;
  res : results;
  mutable cursor : int;
  mutable puts_ok : int;
  mutable dels_ok : int;
  mutable sent : int;
  mutable failed : int;
  mutable checked : int;  (** answers compared with the exact key set *)
  mutable mismatch : int;
  hs_seen : int array;
  ts : int array;  (** Span's slots, virtual time *)
  wall : int array;  (** the same slots, wall clock (traced only) *)
  starts : int array;  (** scratch: one request's call spans *)
  stops : int array;
}

type env = {
  w : Workloads.t;
  st : St.t;
  g : Guard.t;
  nthreads : int;
  by_tid : wk option array;  (** [None]: the stalled thread *)
  shadow : (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t option;
      (** the expected key set, when one worker makes every answer exact *)
  mutable agg : Agg.t;
      (** traced slices feed a throwaway one, so that the open-loop
          phase's aggregates and span file hold open-loop requests only *)
}

let op_of w code : Traffic.op =
  let k = Schedule.key code in
  match Schedule.kind code with
  | 0 -> Get k
  | 1 -> Put k
  | 2 -> Delete k
  | _ -> Scan (k, Workloads.scan_len w)

let exec e ~tid ~shard op =
  match St.exec_on e.st ~tid ~shard op with
  | r -> r
  | exception St.P.Exhausted _ -> -1

let mark wk ~traced i =
  wk.ts.(i) <- Rt.now_ns ();
  if traced then wk.wall.(i) <- Host.now_ns ()

let copy wk ~from i =
  wk.ts.(i) <- wk.ts.(from);
  wk.wall.(i) <- wk.wall.(from)

(* One request.  Fills [wk.ts] (and, traced, [wk.wall]) and returns
   the store's answer, or -1 when the request failed: shed or timed out
   by the guard, or its shard's pool exhausted.  Untraced, only the
   clock reads the request itself needs are taken. *)
let serve e wk ~traced ~due code =
  let ts = wk.ts in
  ts.(Span.t_due) <- due;
  mark wk ~traced Span.t_start;
  let op = op_of e.w code in
  let shard = St.shard_of_op e.st op in
  let tid = wk.tid in
  if traced then mark wk ~traced Span.t_p0 else copy wk ~from:Span.t_start Span.t_p0;
  if not e.w.guard then begin
    copy wk ~from:Span.t_p0 Span.t_p1;
    copy wk ~from:Span.t_p0 Span.t_a1;
    let r = exec e ~tid ~shard op in
    mark wk ~traced Span.t_e1;
    copy wk ~from:Span.t_e1 Span.t_fin;
    r
  end
  else begin
    (* Kv.Service's sequence for one request: health poll, admission,
       deadline recheck, execution, completion. *)
    let cur = St.hs_timeouts e.st ~tid ~shard in
    let fresh = cur > wk.hs_seen.(shard) in
    wk.hs_seen.(shard) <- cur;
    let h = St.health e.st ~shard in
    Guard.poll e.g ~now:(Rt.now_ns ()) ~tid ~shard
      ~healthy:
        (Guard.healthy_of ~occupancy:h.Nbr_kv.Store.h_occupancy
           ~capacity:h.Nbr_kv.Store.h_capacity
           ~pressured:h.Nbr_kv.Store.h_pressured
           ~degraded:h.Nbr_kv.Store.h_degraded ~hs_timed_out:fresh);
    mark wk ~traced Span.t_p1;
    copy wk ~from:Span.t_p1 Span.t_a1;
    copy wk ~from:Span.t_p1 Span.t_e1;
    let p1 = ts.(Span.t_p1) in
    let cls = Guard.cls_of_op op in
    let r =
      match Guard.admit e.g ~now:p1 ~tid ~shard ~cls ~arrival:due with
      | Guard.Rejected -> -1
      | Guard.Admitted { probe } ->
          if not (Guard.pre_exec e.g ~now:p1 ~tid ~shard ~arrival:due ~probe)
          then -1
          else begin
            if traced then mark wk ~traced Span.t_a1;
            let r = exec e ~tid ~shard op in
            mark wk ~traced Span.t_e1;
            let e1 = ts.(Span.t_e1) in
            if r >= 0 then Guard.complete e.g ~now:e1 ~tid ~shard ~probe
            else begin
              Guard.note_exhausted e.g ~now:e1 ~tid ~shard;
              Guard.fail e.g ~now:e1 ~tid ~shard ~cls ~arrival:due ~probe
            end;
            r
          end
    in
    mark wk ~traced Span.t_fin;
    r
  end

(* Bookkeeping after the request's clock stopped: the size invariant's
   counts and, with one worker, the exact expected answer. *)
let account e wk code r =
  wk.sent <- wk.sent + 1;
  if r < 0 then wk.failed <- wk.failed + 1
  else begin
    let k = Schedule.key code and kind = Schedule.kind code in
    if kind = Schedule.k_put && r > 0 then wk.puts_ok <- wk.puts_ok + 1;
    if kind = Schedule.k_del && r > 0 then wk.dels_ok <- wk.dels_ok + 1;
    match e.shadow with
    | None -> ()
    | Some sh ->
        let expect =
          if kind = Schedule.k_get then sh.{k}
          else if kind = Schedule.k_put then begin
            let was = sh.{k} in
            sh.{k} <- 1;
            1 - was
          end
          else if kind = Schedule.k_del then begin
            let was = sh.{k} in
            sh.{k} <- 0;
            was
          end
          else begin
            (* A scan probes its keys on the start key's shard only
               (Store.scan), so keys routed elsewhere miss. *)
            let home = St.shard_of e.st k in
            let hits = ref 0 in
            for i = 0 to Workloads.scan_len e.w - 1 do
              let k' = (k + i) mod e.w.keyspace in
              if sh.{k'} = 1 && St.shard_of e.st k' = home then incr hits
            done;
            !hits
          end
        in
        wk.checked <- wk.checked + 1;
        if expect <> r then wk.mismatch <- wk.mismatch + 1
  end

(* Feed one completed traced request into the span aggregates.  Its
   wall-clock self time is the service interval (start → fin) minus what
   the calls into the guard and the store cover. *)
let record e wk =
  let a = e.agg and ts = wk.ts and wall = wk.wall in
  let n = ref 0 in
  Array.iter
    (fun k ->
      if e.w.guard || not (Span.is_guard k) then begin
        let i = Span.index k in
        Histogram.record a.Agg.hist.(i) (Span.hi ts k - Span.lo ts k);
        if k <> Span.Queue && k <> Span.Request then begin
          let lo = Span.lo wall k and hi = Span.hi wall k in
          a.Agg.wall.(i) <- a.Agg.wall.(i) + (hi - lo);
          wk.starts.(!n) <- lo;
          wk.stops.(!n) <- hi;
          incr n
        end
      end)
    Span.kinds;
  let self =
    Span.self_time ~lo:wall.(Span.t_start) ~hi:wall.(Span.t_fin) wk.starts
      wk.stops !n
  in
  a.Agg.self_wall <- a.Agg.self_wall + self;
  Histogram.record a.Agg.self_hist self;
  Span.Buf.add a.Agg.buf ~rid:a.Agg.n ~tid:wk.tid ts;
  a.Agg.n <- a.Agg.n + 1

(* Layer events inside the program, counted while a phase is traced. *)
let with_obs e ~traced f =
  if not traced then f ()
  else begin
    Trace.enable ~nthreads:e.nthreads ();
    let a = e.agg in
    Trace.subscribe
      (Some
         (fun ev ->
           match ev.Trace.e_kind with
           | Trace.Reclaim ->
               a.Agg.reclaims <- a.Agg.reclaims + 1;
               a.Agg.freed <- a.Agg.freed + ev.Trace.e_a
           | Trace.Bag_sweep -> a.Agg.swept <- a.Agg.swept + ev.Trace.e_a
           | _ -> ()));
    Fun.protect
      ~finally:(fun () ->
        Trace.subscribe None;
        Trace.clear ())
      f
  end

(* A worker sleeps, in virtual time, to its next arrival. *)
let wait_until due =
  let now = Rt.now_ns () in
  if now < due then Rt.stall_ns (due - now)

(* Counters the runtime resets at every [Rt.run]. *)
let signals = ref 0
let events = ref 0

let run_threads e body =
  Rt.run ~nthreads:e.nthreads body;
  signals := !signals + Rt.signals_sent ();
  events := !events + Rt.total_events ()

(* One closed-loop slice: requests completed and its wall time. *)
let slice e ~traced =
  let ns = e.w.slice_ns in
  let completed = Array.make e.nthreads 0 in
  let t0 = Host.now_ns () in
  with_obs e ~traced (fun () ->
      run_threads e (fun tid ->
          match e.by_tid.(tid) with
          | None -> St.stall e.st ~tid ns
          | Some wk ->
              let stop = Rt.now_ns () + ns in
              let len = Bigarray.Array1.dim wk.ring in
              let c = ref 0 in
              while Rt.now_ns () < stop do
                let code = wk.ring.{wk.cursor} in
                wk.cursor <- (if wk.cursor + 1 = len then 0 else wk.cursor + 1);
                let r = serve e wk ~traced ~due:(Rt.now_ns ()) code in
                if r >= 0 then begin
                  incr c;
                  if traced then record e wk
                end;
                account e wk code r
              done;
              completed.(tid) <- !c));
  (Array.fold_left ( + ) 0 completed, Host.now_ns () - t0)

let open_phase e ~traced ~ns =
  with_obs e ~traced (fun () ->
      run_threads e (fun tid ->
          match e.by_tid.(tid) with
          | None -> St.stall e.st ~tid ns
          | Some wk ->
              let lane = wk.lane and res = wk.res and ts = wk.ts in
              let t0 = Rt.now_ns () in
              for i = 0 to lane.Schedule.n - 1 do
                let due = t0 + lane.Schedule.due.{i} in
                wait_until due;
                let code = lane.Schedule.ops.{i} in
                let r = serve e wk ~traced ~due code in
                if r >= 0 then begin
                  res.lat.{i} <- ts.(Span.t_fin) - due;
                  res.wait.{i} <- ts.(Span.t_start) - due;
                  if traced then begin
                    res.exec.{i} <- ts.(Span.t_e1) - ts.(Span.t_a1);
                    record e wk
                  end
                end
                else res.lat.{i} <- -1;
                account e wk code r
              done))

(* Everything the requests depend on, from the seed alone. *)
let build_env (w : Workloads.t) ~seed ~open_ns ~traced =
  let nthreads = w.workers + if w.stalled then 1 else 0 in
  let tr =
    Traffic.make ~theta:w.theta ~mx:w.mix ~rate_rps:w.rate_rps
      ~keyspace:w.keyspace ()
  in
  let prefill = Schedule.prefill ~seed ~keyspace:w.keyspace w.prefill in
  let by_tid =
    Array.init nthreads (fun tid ->
        if w.stalled && tid = 1 then None
        else
          let lane = Schedule.open_loop tr ~seed ~worker:tid ~duration_ns:open_ns in
          let n = lane.Schedule.n in
          Some
            {
              tid;
              ring = Schedule.ring tr ~seed ~worker:tid w.ring;
              lane;
              res =
                {
                  lat = Schedule.ints n;
                  wait = Schedule.ints n;
                  exec = Schedule.ints (if traced then n else 0);
                };
              cursor = 0;
              puts_ok = 0;
              dels_ok = 0;
              sent = 0;
              failed = 0;
              checked = 0;
              mismatch = 0;
              hs_seen = Array.make w.nshards 0;
              ts = Array.make Span.nts 0;
              wall = Array.make Span.nts 0;
              starts = Array.make (Array.length Span.kinds) 0;
              stops = Array.make (Array.length Span.kinds) 0;
            })
  in
  (prefill, nthreads, by_tid)

let run (w : Workloads.t) ~seed ~seconds ~traced ~spans_path ~chase =
  Rt.set_config { Nbr_workload.Experiments.base_sim_config with seed };
  let nwin = Workloads.open_windows ~seconds in
  let nslices = Workloads.capacity_slices ~seconds in
  let open_ns = nwin * w.window_ns in
  let prefill, nthreads, by_tid = build_env w ~seed ~open_ns ~traced in
  let wks = Array.of_list (List.filter_map Fun.id (Array.to_list by_tid)) in
  let digest =
    Schedule.digest
      (prefill
      :: List.concat_map
           (fun wk -> [ wk.ring; wk.lane.Schedule.ops; wk.lane.Schedule.due ])
           (Array.to_list wks))
  in
  let cfg =
    St.Cfg.make ~structure:w.structure ~nshards:w.nshards ~keyspace:w.keyspace
      ?shard_capacity:w.shard_capacity
      ~smr:
        (Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default
           w.bag_threshold)
      ~scheme:"nbr+" ~nthreads ()
  in
  (* Each set-up starts from a collected heap; the last store is the one
     measured. *)
  let built = ref None and setup_times = ref [] in
  while
    setup_reps
      ~elapsed:(List.fold_left ( +. ) 0.0 !setup_times)
      (List.length !setup_times)
  do
    built := None;
    Gc.full_major ();
    let t0 = Host.now_ns () in
    let st = St.create cfg in
    let ok = ref 0 in
    for i = 0 to w.prefill - 1 do
      if St.put st ~tid:0 prefill.{i} then incr ok
    done;
    let dt = Host.now_ns () - t0 in
    built := Some (st, !ok);
    setup_times := secs dt :: !setup_times
  done;
  let st, prefilled = Option.get !built in
  let shadow =
    if Array.length wks = 1 then begin
      let b = Bigarray.(Array1.create int8_unsigned c_layout w.keyspace) in
      Bigarray.Array1.fill b 0;
      for i = 0 to w.prefill - 1 do
        b.{prefill.{i}} <- 1
      done;
      Some b
    end
    else None
  in
  let g =
    if w.guard then
      Guard.create
        ~cfg:(Guard.Cfg.make ~deadline_ns:1_000_000_000 ())
        ~nshards:w.nshards ()
    else Guard.create ~nshards:w.nshards ()
  in
  let e =
    {
      w;
      st;
      g;
      nthreads;
      by_tid;
      shadow;
      agg = Agg.create ~spans:(if traced then span_file_requests else 0);
    }
  in
  let before = Host.calibrate chase in
  ignore (slice e ~traced:false);
  let cpu0 = Host.read_cpu () in
  (* Capacity is counted in virtual time; the wall-clock rate of
     untraced against traced slices gives the tracing overhead. *)
  let caps = ref [] and walls_plain = ref [] and walls_traced = ref [] in
  let cap_requests = ref 0 in
  let gc_words = ref 0.0 and gc_promoted = ref 0.0 in
  let gc_minor = ref 0 and gc_major = ref 0 in
  for i = 0 to nslices - 1 do
    let traced_slice = traced && i land 1 = 1 in
    let g0 = Gc.quick_stat () in
    let n, wall = slice e ~traced:traced_slice in
    let g1 = Gc.quick_stat () in
    let kops ns = float_of_int n *. 1e6 /. float_of_int (max 1 ns) in
    if traced_slice then walls_traced := kops wall :: !walls_traced
    else begin
      walls_plain := kops wall :: !walls_plain;
      caps := kops w.slice_ns :: !caps;
      cap_requests := !cap_requests + n;
      gc_words := !gc_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      gc_promoted := !gc_promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
      gc_minor := !gc_minor + (g1.Gc.minor_collections - g0.Gc.minor_collections);
      gc_major := !gc_major + (g1.Gc.major_collections - g0.Gc.major_collections);
    end
  done;
  let cpu1 = Host.read_cpu () in
  St.reset_peaks st;
  let s0 = St.stats st in
  signals := 0;
  events := 0;
  e.agg <- Agg.create ~spans:(if traced then span_file_requests else 0);
  let t_open = Host.now_ns () in
  open_phase e ~traced ~ns:open_ns;
  let open_wall = Host.now_ns () - t_open in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let cpu2 = Host.read_cpu () in
  let s1 = St.stats st in
  let after = Host.calibrate chase in
  (* Output checks. *)
  let sum f = Array.fold_left (fun acc wk -> acc + f wk) 0 wks in
  let expected = prefilled + sum (fun wk -> wk.puts_ok) - sum (fun wk -> wk.dels_ok) in
  let size = St.size st in
  let slo = Guard.snapshot g in
  let mismatches = sum (fun wk -> wk.mismatch) in
  let module S = Nbr_kv.Store in
  let failures =
    List.filter_map
      (fun (ok, msg) -> if ok then None else Some (Lazy.force msg))
      [
        ( size = expected,
          lazy
            (Printf.sprintf "size %d <> prefilled %d + puts - deletes = %d" size
               prefilled expected) );
        ( s1.S.st_committed_uaf = 0,
          lazy (Printf.sprintf "%d committed use-after-free reads" s1.S.st_committed_uaf) );
        ( s1.S.st_uaf_reads = 0,
          lazy
            (Printf.sprintf "%d use-after-free reads under exact signal delivery"
               s1.S.st_uaf_reads) );
        ( (not (St.bounded_claim st)) || s1.S.st_max_garbage <= St.garbage_bound st,
          lazy
            (Printf.sprintf "garbage %d exceeds the bound %d" s1.S.st_max_garbage
               (St.garbage_bound st)) );
        ( mismatches = 0,
          lazy
            (Printf.sprintf "%d answers differ from the expected key set" mismatches)
        );
        (Guard.slo_ok slo, lazy "guard ledger: admitted <> completed + shed + timed out");
      ]
  in
  (* Metrics: exact percentiles per window of due time. *)
  let metrics = ref [] in
  let add group name unit value = metrics := { group; name; value; unit } :: !metrics in
  let windows keep value =
    let wd = Stats.Windows.create nwin in
    Array.iter
      (fun wk ->
        let l = wk.lane in
        for i = 0 to l.Schedule.n - 1 do
          if wk.res.lat.{i} >= 0 && keep l.Schedule.ops.{i} then
            Stats.Windows.add wd (l.Schedule.due.{i} / w.window_ns) (value wk.res i)
        done)
      wks;
    Stats.Windows.sorted wd
  in
  let is_read c = not (Schedule.is_write c) in
  let lat res i = res.lat.{i} in
  let us v = v /. 1000.0 in
  let reads = windows is_read lat and writes = windows Schedule.is_write lat in
  let p50r = Stats.windowed reads 0.5 and p99r = Stats.windowed reads 0.99 in
  let p50w = Stats.windowed writes 0.5 and p99w = Stats.windowed writes 0.99 in
  let median l = Stats.median (Array.of_list l) in
  let e2e = if traced then Diagnostic else End_to_end in
  add e2e "setup_s" "s" (median !setup_times);
  add e2e "capacity_kops" "kops/s" (median !caps);
  add e2e "read_p50_us" "us" (us p50r.Stats.value);
  add e2e "read_p99_us" "us" (us p99r.Stats.value);
  add e2e "write_p50_us" "us" (us p50w.Stats.value);
  add e2e "write_p99_us" "us" (us p99w.Stats.value);
  add e2e "peak_records" "records" (float_of_int s1.S.st_peak_in_use);
  add e2e "heap_peak_mb" "MiB"
    (float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0);
  (* The per-class split, whole-phase tails and sample counts. *)
  List.iter
    (fun (cls, k) ->
      let g = windows (fun c -> Schedule.kind c = k) lat in
      let p99 = Stats.windowed g 0.99 in
      if p99.Stats.total > 0 then begin
        add Diagnostic (cls ^ "_p50_us") "us" (us (Stats.windowed g 0.5).Stats.value);
        add Diagnostic (cls ^ "_p99_us") "us" (us p99.Stats.value);
        add Diagnostic (cls ^ "_samples") "count" (float_of_int p99.Stats.total)
      end)
    [
      ("get", Schedule.k_get);
      ("put", Schedule.k_put);
      ("delete", Schedule.k_del);
      ("scan", Schedule.k_scan);
    ];
  let every = windows (fun _ -> true) lat in
  add Diagnostic "windows" "count" (float_of_int p50r.Stats.windows);
  add Diagnostic "read_min_window" "count" (float_of_int p99r.Stats.min_count);
  add Diagnostic "write_min_window" "count" (float_of_int p99w.Stats.min_count);
  add Diagnostic "all_p999_us" "us" (us (Stats.pooled every 0.999));
  add Diagnostic "all_max_us" "us" (us (Stats.pooled every 1.0));
  add Diagnostic "setup_reps" "count" (float_of_int (List.length !setup_times));
  add Diagnostic "answers_checked" "count" (float_of_int (sum (fun wk -> wk.checked)));
  add Diagnostic "prefilled" "keys" (float_of_int prefilled);
  add Diagnostic "final_size" "keys" (float_of_int size);
  add Diagnostic "offered_kops" "kops/s"
    (float_of_int (sum (fun wk -> wk.lane.Schedule.n)) *. 1e6 /. float_of_int open_ns);
  add Diagnostic "wall_kops" "kops/s" (median !walls_plain);
  if traced then begin
    let a = e.agg in
    let completed = ref 0 and exec_sum = [| 0; 0 |] and exec_n = [| 0; 0 |] in
    Array.iter
      (fun wk ->
        for i = 0 to wk.lane.Schedule.n - 1 do
          if wk.res.lat.{i} >= 0 then begin
            incr completed;
            let c = Bool.to_int (Schedule.is_write wk.lane.Schedule.ops.{i}) in
            exec_sum.(c) <- exec_sum.(c) + wk.res.exec.{i};
            exec_n.(c) <- exec_n.(c) + 1
          end
        done)
      wks;
    let exe res i = res.exec.{i} in
    let mean c = float_of_int exec_sum.(c) /. float_of_int (max 1 exec_n.(c)) in
    let per_kreq n = float_of_int n *. 1000.0 /. float_of_int (max 1 !completed) in
    (* Shares of the open phase's wall time. *)
    let share x = 100.0 *. float_of_int x /. float_of_int (max 1 open_wall) in
    let span k = a.Agg.wall.(Span.index k) in
    let d f = f s1 - f s0 in
    let per_req x = x /. float_of_int (max 1 !cap_requests) in
    let layer = add Per_layer in
    layer "store.read_ns" "ns" (mean 0);
    layer "store.read_p99_ns" "ns" (Stats.windowed (windows is_read exe) 0.99).Stats.value;
    layer "store.write_ns" "ns" (mean 1);
    layer "store.write_p99_ns" "ns"
      (Stats.windowed (windows Schedule.is_write exe) 0.99).Stats.value;
    (* The phase lasts until its last request completes. *)
    let phase_ns = ref open_ns in
    Array.iter
      (fun wk ->
        for i = 0 to wk.lane.Schedule.n - 1 do
          phase_ns := max !phase_ns (wk.lane.Schedule.due.{i} + wk.res.lat.{i})
        done)
      wks;
    layer "store.busy_pct" "%"
      (100.0 *. float_of_int (exec_sum.(0) + exec_sum.(1))
      /. float_of_int (!phase_ns * Array.length wks));
    layer "guard.poll_pct" "%" (share (span Span.Guard_poll));
    layer "guard.admit_pct" "%" (share (span Span.Guard_admit));
    layer "guard.complete_pct" "%" (share (span Span.Guard_complete));
    layer "guard.shed" "count" (float_of_int slo.Guard.slo_shed);
    layer "guard.timed_out" "count" (float_of_int slo.Guard.slo_timed_out);
    layer "core.restarts_per_kreq" "count" (per_kreq (d (fun s -> s.S.st_restarts)));
    layer "core.max_garbage" "records" (float_of_int s1.S.st_max_garbage);
    layer "core.signals_per_kreq" "count" (per_kreq !signals);
    layer "core.reclaim_events" "count" (float_of_int a.Agg.reclaims);
    layer "core.freed_per_swept" "ratio"
      (float_of_int a.Agg.freed /. float_of_int (max 1 a.Agg.swept));
    layer "pool.peak_garbage" "records" (float_of_int s1.S.st_peak_garbage);
    layer "pool.pressure_events" "count"
      (float_of_int (d (fun s -> s.S.st_pressure_events)));
    layer "pool.alloc_retries" "count" (float_of_int (d (fun s -> s.S.st_alloc_retries)));
    layer "gc.minor_words_per_req" "words" (per_req !gc_words);
    layer "gc.promoted_words_per_req" "words" (per_req !gc_promoted);
    layer "gc.minor_gcs_per_kreq" "count" (1000.0 *. per_req (float_of_int !gc_minor));
    layer "gc.major_gcs" "count" (float_of_int !gc_major);
    layer "sim.events" "count" (float_of_int !events);
    layer "sim.events_per_s" "1/s" (float_of_int !events /. secs (max 1 open_wall));
    layer "client.queue_wait_p99_us" "us"
      (us (Stats.windowed (windows (fun _ -> true) (fun res i -> res.wait.{i})) 0.99)
           .Stats.value);
    layer "client.self_pct" "%" (share a.Agg.self_wall);
    layer "trace.overhead_pct" "%"
      (100.0 *. (1.0 -. (median !walls_traced /. median !walls_plain)));
    Array.iter
      (fun k ->
        if w.guard || not (Span.is_guard k) then begin
          let s = Histogram.summary a.Agg.hist.(Span.index k) in
          add Diagnostic ("span." ^ Span.name k ^ ".p50_ns") "ns" s.Histogram.s_p50;
          add Diagnostic ("span." ^ Span.name k ^ ".p99_ns") "ns" s.Histogram.s_p99
        end)
      Span.kinds;
    add Diagnostic "span.request.self_wall_p50_ns" "ns"
      (Histogram.summary a.Agg.self_hist).Histogram.s_p50;
    add Diagnostic "span.requests" "count" (float_of_int a.Agg.n)
  end;
  (* Host noise. *)
  let steal = Float.max (Host.steal_pct cpu0 cpu1) (Host.steal_pct cpu1 cpu2) in
  add Diagnostic "host.steal_pct" "%" steal;
  add Diagnostic "host.alu_ns" "ns" before.Host.alu;
  add Diagnostic "host.alu_after_ns" "ns" after.Host.alu;
  add Diagnostic "host.mem_ns" "ns" before.Host.mem;
  add Diagnostic "host.mem_after_ns" "ns" after.Host.mem;
  (match spans_path with
  | Some path when traced && failures = [] ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Span.write_chrome oc ~guard:w.guard e.agg.Agg.buf)
  | _ -> ());
  {
    workload = w.name;
    seed;
    traced;
    attempted = sum (fun wk -> wk.sent);
    failed = sum (fun wk -> wk.failed);
    noisy = Host.noisy ~before ~after ~steal;
    metrics = List.rev !metrics;
    failures;
    digest;
  }
