(* Hot-path microbenchmark driver: the perf-tracking substrate.

   Where `nbr_bench figure` reproduces the paper's figures, this executable
   tracks the *repository's own* hot paths over time, so regressions are
   visible in CI and improvements land as numbers, not adjectives.  It
   measures, per runtime (native wall-clock ns / sim virtual ns):

   - read_path_1t/<scheme>   guarded-dereference cost: ns per [contains]
                             on a 200-key lazy list, single thread
   - read_path_mt/<scheme>   the same at several threads (E1-style
                             contention on the read path)
   - signal_all/n<k>         one signalAll broadcast to k-1 polling victims
   - alloc_free              pool alloc+free fast path, single thread
   - trial_mops/...          runner-level wall-clock trials (native only):
                             the full harness, real domains, real time
   - latency_*               per-operation latency quantiles (p50/p99) from
                             one harness trial with [record_latency] on, plus
                             restarts-per-op quantiles
   - kv_*                    serving-layer service times: get/put p50/p99 and
                             mean ns/request from one closed-loop KV run
                             (nbr+ over hash-set shards); regression-gated

   Output: BENCH_<runtime>.json in --out-dir (default ".").

   Modes:
     micro.exe [--quick] [--runtime native|sim|both] [--out-dir D] [--no-wall]
     micro.exe --check BASELINE --against CURRENT [--max-ratio R]
       pure file comparison, no benchmarking: exits 1 if any read_path_* or
       alloc_free entry of CURRENT is more than R times its BASELINE value
       (default R = 2.0).  This is the CI bench-smoke gate. *)

module T = Nbr_workload.Trial

(* ------------------------------------------------------------------ *)
(* Benchmarks, generic in the runtime.                                 *)

module RtBench (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)

  let smr_cfg =
    Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 256

  module Read_path
      (Smr : Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t) =
  struct
    module L = Nbr_ds.Lazy_list.Make (Rt) (Smr)

    (* ns (runtime clock) per [contains] on a 200-key half-full lazy list:
       every probe walks ~50 guarded dereferences, so this is dominated by
       the per-access cost the paper's P1 discussion is about. *)
    let measure ~nthreads ~iters =
      let pool =
        P.create ~capacity:(1024 + (nthreads * 256))
          ~data_fields:L.data_fields ~ptr_fields:L.ptr_fields ~nthreads ()
      in
      let smr = Smr.create pool ~nthreads smr_cfg in
      let ds = L.create pool in
      let ctxs = Array.init nthreads (fun tid -> Smr.register smr ~tid) in
      for k = 0 to 199 do
        if k mod 2 = 0 then ignore (L.insert ds ctxs.(0) k)
      done;
      let elapsed = Array.make nthreads 0 in
      Rt.run ~nthreads (fun tid ->
          let ctx = ctxs.(tid) in
          let t0 = Rt.now_ns () in
          for i = 1 to iters do
            ignore (L.contains ds ctx (i * 7 mod 200))
          done;
          elapsed.(tid) <- Rt.now_ns () - t0);
      float_of_int (Array.fold_left ( + ) 0 elapsed)
      /. float_of_int (nthreads * iters)
  end

  (* One measurement closure per sound scheme, driven off the registry so
     the scheme set lives in exactly one place (lib/workload/registry). *)
  let read_paths =
    List.filter_map
      (fun (e : Nbr_workload.Registry.entry) ->
        if e.r_foil then None
        else
          let module S = (val e.r_scheme : Nbr_workload.Registry.SCHEME) in
          let module RP = Read_path (S.Make (Rt)) in
          Some (e.r_desc.name, RP.measure))
      Nbr_workload.Registry.all

  (* ns per signalAll broadcast (n-1 sends) while the victims poll: the
     sender-side cost of one NBR reclamation event. *)
  let signal_all_ns ~nthreads ~iters =
    let stop = Rt.make 0 in
    let out = ref 0.0 in
    Rt.run ~nthreads (fun tid ->
        if tid = 0 then begin
          let t0 = Rt.now_ns () in
          for _ = 1 to iters do
            for t = 1 to nthreads - 1 do
              Rt.send_signal t
            done
          done;
          out :=
            float_of_int (Rt.now_ns () - t0) /. float_of_int iters;
          Rt.store stop 1
        end
        else
          while Rt.load stop = 0 do
            Rt.poll_t tid;
            Rt.cpu_relax ()
          done);
    !out

  (* Pool fast path: alloc pops the caller's own cache, free pushes it
     back — no contention, no pressure. *)
  let alloc_free_ns ~iters =
    let pool =
      P.create ~capacity:64 ~data_fields:1 ~ptr_fields:1 ~nthreads:1 ()
    in
    let out = ref 0.0 in
    Rt.run ~nthreads:1 (fun _ ->
        let s0 = P.alloc pool in
        P.free pool s0;
        let t0 = Rt.now_ns () in
        for _ = 1 to iters do
          let s = P.alloc pool in
          P.free pool s
        done;
        out := float_of_int (Rt.now_ns () - t0) /. float_of_int iters);
    !out

  (* Contended pool path: every thread runs alloc/free pairs against one
     shared pool.  What this measures is the allocator's shared state —
     occupancy accounting, free-space hand-off — since each thread's
     working set is its own.  The serialization-point number ROADMAP
     item 3 is about. *)
  let alloc_free_mt_ns ~nthreads ~iters =
    let pool =
      P.create
        ~capacity:(nthreads * 64)
        ~data_fields:1 ~ptr_fields:1 ~nthreads ()
    in
    let elapsed = Array.make nthreads 0 in
    Rt.run ~nthreads (fun tid ->
        let s0 = P.alloc pool in
        P.free pool s0;
        let t0 = Rt.now_ns () in
        for _ = 1 to iters do
          let s = P.alloc pool in
          P.free pool s
        done;
        elapsed.(tid) <- Rt.now_ns () - t0);
    float_of_int (Array.fold_left ( + ) 0 elapsed)
    /. float_of_int (nthreads * iters)

  (* Per-size-class fast path: the same owner-magazine alloc/free pair on
     a classed pool, so the handle codec and per-class magazine routing
     are on the measured path.  The two classes differ in field shape
     (narrow list node vs wide tree node) — the per-pair cost should not,
     since neither the codec nor the magazines touch the fields. *)
  let alloc_free_cls_ns ~cls ~iters =
    let pool =
      P.create_classed
        ~classes:
          [|
            {
              Nbr_pool.Pool.cc_capacity = 64;
              cc_data_fields = 1;
              cc_ptr_fields = 1;
            };
            {
              Nbr_pool.Pool.cc_capacity = 64;
              cc_data_fields = 2;
              cc_ptr_fields = 8;
            };
          |]
        ~nthreads:1 ()
    in
    let out = ref 0.0 in
    Rt.run ~nthreads:1 (fun _ ->
        let s0 = P.alloc ~cls pool in
        P.free pool s0;
        let t0 = Rt.now_ns () in
        for _ = 1 to iters do
          let s = P.alloc ~cls pool in
          P.free pool s
        done;
        out := float_of_int (Rt.now_ns () - t0) /. float_of_int iters);
    !out
end

(* Serving-layer tracking run: closed-loop read-heavy traffic against a
   small sharded store, so the recorded quantiles are service times (no
   queueing model) — stable enough to regression-gate. *)
module KvBench (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module K = Nbr_kv.Service.Make (Rt)

  let run ~duration_ns =
    let keyspace = 65_536 in
    let st =
      K.St.create
        (K.St.Cfg.make ~nshards:4 ~keyspace ~scheme:"nbr+" ~nthreads:4 ())
    in
    let traffic = Nbr_workload.Traffic.make ~keyspace () in
    K.run st (K.Cfg.make ~duration_ns ~seed:7 ~prefill:8192 ~traffic ())

  (* Guarded flash-crowd run for the kv_slo/* keys: open-loop arrivals
     with deadlines, admission control and breakers on, so the recorded
     percentages exercise the whole overload-protection path.  Rate and
     deadline are per-runtime — virtual time is exact, wall time needs
     headroom against OS scheduling. *)
  let run_slo ~duration_ns ~rate_rps ~deadline_ns =
    let keyspace = 65_536 in
    let st =
      K.St.create
        (K.St.Cfg.make ~nshards:4 ~keyspace ~scheme:"nbr+" ~nthreads:4 ())
    in
    let traffic =
      Nbr_workload.Traffic.make
        ~shape:
          (Nbr_workload.Traffic.Flash_crowd
             { fc_at_pct = 40; fc_len_pct = 20; fc_mult = 8 })
        ~rate_rps ~keyspace ()
    in
    K.run st
      (K.Cfg.make ~duration_ns ~seed:7 ~prefill:8192
         ~guard:(Nbr_kv.Guard.Cfg.make ~deadline_ns ())
         ~traffic ())
end

module N = RtBench (Nbr_runtime.Native_rt)
module S = RtBench (Nbr_runtime.Sim_rt)
module KV_nat = KvBench (Nbr_runtime.Native_rt)
module KV_sim = KvBench (Nbr_runtime.Sim_rt)
module H_nat = Nbr_workload.Harness.Make (Nbr_runtime.Native_rt)
module H_sim = Nbr_workload.Harness.Make (Nbr_runtime.Sim_rt)

(* ------------------------------------------------------------------ *)
(* Result accumulation and JSON.                                       *)

let results : (string * float) list ref = ref []
let record k v = results := (k, v) :: !results

(* latency_<op>_{p50,p99}_ns entries (restart counts are unitless) from a
   [record_latency] trial, plus console lines so the numbers are visible
   in CI logs without opening the JSON. *)
let record_latency_entries (r : T.result) =
  match r.T.latency with
  | None -> ()
  | Some l ->
      let put name unit_sfx (s : Nbr_obs.Histogram.summary) =
        record
          (Printf.sprintf "latency_%s_p50%s" name unit_sfx)
          s.Nbr_obs.Histogram.s_p50;
        record (Printf.sprintf "latency_%s_p99%s" name unit_sfx) s.s_p99;
        Printf.printf "  latency_%-9s p50 %10.1f  p99 %10.1f  max %d\n%!"
          name s.s_p50 s.s_p99 s.s_max
      in
      put "insert" "_ns" l.T.lat_insert;
      put "delete" "_ns" l.T.lat_delete;
      put "contains" "_ns" l.T.lat_contains;
      put "restarts" "" l.T.lat_restarts

(* Inline vs background-reclaimer tail latency on an update-heavy trial
   (DESIGN.md §12): threshold sweeps leave the hot path, so the update
   p99/p99.9 should drop.  Published as
   reclaim_tail/<mode>/<op>_{p99,p999}_ns; new keys, not
   regression-gated. *)
let record_reclaim_tail run_trial =
  List.iter
    (fun (mode, reclaim) ->
      let r = run_trial reclaim in
      match r.T.latency with
      | None -> ()
      | Some l ->
          let put op (s : Nbr_obs.Histogram.summary) =
            record
              (Printf.sprintf "reclaim_tail/%s/%s_p99_ns" mode op)
              s.Nbr_obs.Histogram.s_p99;
            record
              (Printf.sprintf "reclaim_tail/%s/%s_p999_ns" mode op)
              s.s_p999;
            Printf.printf
              "  reclaim_tail/%s/%-7s p99 %10.1f  p99.9 %10.1f\n%!" mode op
              s.Nbr_obs.Histogram.s_p99 s.s_p999
          in
          put "insert" l.T.lat_insert;
          put "delete" l.T.lat_delete)
    [ ("inline", None); ("reclaim", Some Nbr_reclaim.Reclaimer.On_pressure) ]

(* kv_* entries from one serving-layer run; all ns, lower is better, so
   the ratio gate applies directly (throughput is published inverted as
   mean ns per request).  The p99s ride along under the ungated "kv/"
   prefix: on the native runtime they are dominated by OS scheduling
   noise, far too volatile for a 2x gate on shared CI runners. *)
let record_kv (rep : Nbr_kv.Service.report) =
  let g = rep.Nbr_kv.Service.rep_latency.Nbr_kv.Service.l_get
  and p = rep.Nbr_kv.Service.rep_latency.Nbr_kv.Service.l_put in
  record "kv_get_p50_ns" g.Nbr_obs.Histogram.s_p50;
  record "kv_put_p50_ns" p.Nbr_obs.Histogram.s_p50;
  record "kv_req_ns" (1e6 /. rep.Nbr_kv.Service.rep_throughput_kops);
  record "kv/get_p99_ns" g.s_p99;
  record "kv/put_p99_ns" p.s_p99;
  Printf.printf
    "  kv_get     p50 %10.1f  p99 %10.1f\n  kv_put     p50 %10.1f  p99 \
     %10.1f\n  kv_req_ns      %10.1f\n%!"
    g.Nbr_obs.Histogram.s_p50 g.s_p99 p.Nbr_obs.Histogram.s_p50 p.s_p99
    (1e6 /. rep.Nbr_kv.Service.rep_throughput_kops)

(* kv_slo/* entries from one guarded flash-crowd run.  Only bounded
   percentages sit under the gated prefix: accounted_pct is pinned at
   100 by the ledger invariant and goodput_pct cannot exceed 100, so
   the 2x ratio gate trips only if the guard itself regresses.  The
   latencies and raw counts of an open-loop run are too noisy on shared
   native runners; they ride along ungated under kv/slo_*. *)
let record_kv_slo (rep : Nbr_kv.Service.report) =
  let module G = Nbr_kv.Guard in
  let s = rep.Nbr_kv.Service.rep_slo in
  let accounted =
    if s.G.slo_admitted = 0 then 100.0
    else
      100.0
      *. float_of_int (s.G.slo_completed + s.G.slo_shed + s.G.slo_timed_out)
      /. float_of_int s.G.slo_admitted
  in
  record "kv_slo/accounted_pct" accounted;
  record "kv_slo/goodput_pct" (G.goodput_pct s);
  let g = rep.Nbr_kv.Service.rep_latency.Nbr_kv.Service.l_get in
  record "kv/slo_get_p999_ns" g.Nbr_obs.Histogram.s_p999;
  record "kv/slo_shed" (float_of_int s.G.slo_shed);
  record "kv/slo_timed_out" (float_of_int s.G.slo_timed_out);
  record "kv/slo_retries" (float_of_int s.G.slo_retries);
  Printf.printf
    "  kv_slo     accounted %5.1f%%  goodput %5.1f%%  shed %d  t/o %d  \
     retries %d\n%!"
    accounted (G.goodput_pct s) s.G.slo_shed s.G.slo_timed_out
    s.G.slo_retries

let write_json ~runtime ~mode ~path =
  let oc = open_out path in
  output_string oc "{\n";
  Printf.fprintf oc "  \"schema\": 1,\n";
  Printf.fprintf oc "  \"runtime\": %S,\n" runtime;
  Printf.fprintf oc "  \"mode\": %S,\n" mode;
  output_string oc "  \"results\": {\n";
  let rows = List.rev !results in
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "    %S: %.3f%s\n" k v
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  }\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d entries)\n%!" path (List.length rows)

(* Minimal parser for the JSON we emit: every ["key": number] pair.  Not a
   general JSON reader — it only has to read its own output. *)
let read_entries path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  let out = ref [] in
  let i = ref 0 in
  let len = String.length s in
  while !i < len do
    if s.[!i] = '"' then begin
      let j = String.index_from s (!i + 1) '"' in
      let key = String.sub s (!i + 1) (j - !i - 1) in
      let k = ref (j + 1) in
      while !k < len && (s.[!k] = ':' || s.[!k] = ' ') do incr k done;
      if
        !k < len && s.[!k - 1] <> '"'
        && (s.[!k] = '-' || (s.[!k] >= '0' && s.[!k] <= '9'))
      then begin
        let e = ref !k in
        while
          !e < len
          && (s.[!e] = '-' || s.[!e] = '.' || s.[!e] = 'e' || s.[!e] = '+'
             || (s.[!e] >= '0' && s.[!e] <= '9'))
        do
          incr e
        done;
        (match float_of_string_opt (String.sub s !k (!e - !k)) with
        | Some v -> out := (key, v) :: !out
        | None -> ());
        i := !e
      end
      else i := j + 1
    end
    else incr i
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Regression gate (CI): compare two result files.                     *)

(* "kv_" already covers "kv_slo/"; it is listed anyway so the gate's
   coverage of the overload-protection keys survives a future narrowing
   of the serving-layer prefix. *)
let guarded_prefixes =
  [ "read_path_1t/"; "read_path_mt/"; "alloc_free"; "kv_"; "kv_slo/" ]

let check ~baseline ~against ~max_ratio =
  let base = read_entries baseline and cur = read_entries against in
  let guarded k =
    List.exists
      (fun p -> String.length k >= String.length p
                && String.sub k 0 (String.length p) = p)
      guarded_prefixes
  in
  let failures = ref 0 and compared = ref 0 in
  List.iter
    (fun (k, b) ->
      if guarded k && b > 0.0 then
        match List.assoc_opt k cur with
        | None -> ()
        | Some c ->
            incr compared;
            let ratio = c /. b in
            let flag = ratio > max_ratio in
            if flag then incr failures;
            Printf.printf "  %-28s base %10.1f  now %10.1f  x%.2f %s\n" k b c
              ratio
              (if flag then "REGRESSION" else ""))
    base;
  Printf.printf "%d metrics compared against %s, %d regressions (> x%.1f)\n%!"
    !compared baseline !failures max_ratio;
  if !compared = 0 then begin
    print_endline "error: no comparable metrics found";
    exit 2
  end;
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let has f = List.mem f args in
  let value flag default =
    let rec go = function
      | f :: v :: _ when f = flag -> v
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  (match (value "--check" "", value "--against" "") with
  | "", _ -> ()
  | baseline, against ->
      if against = "" then begin
        print_endline "error: --check requires --against CURRENT";
        exit 2
      end;
      check ~baseline ~against
        ~max_ratio:(float_of_string (value "--max-ratio" "2.0"));
      exit 0);
  let quick = has "--quick" in
  let runtime = value "--runtime" "both" in
  let out_dir = value "--out-dir" "." in
  let mode = if quick then "quick" else "standard" in
  let mt_native = 4 in
  let mt_sim = 8 in

  let bench_native () =
    results := [];
    let it_1t = if quick then 20_000 else 200_000 in
    let it_mt = if quick then 4_000 else 40_000 in
    let it_sig = if quick then 2_000 else 20_000 in
    let it_af = if quick then 50_000 else 500_000 in
    Printf.printf "# native runtime (wall-clock ns, %s)\n%!" mode;
    List.iter
      (fun (name, m) ->
        let v = m ~nthreads:1 ~iters:it_1t in
        record (Printf.sprintf "read_path_1t/%s" name) v;
        Printf.printf "  read_path_1t/%-6s %8.1f ns/op\n%!" name v)
      N.read_paths;
    List.iter
      (fun (name, m) ->
        let v = m ~nthreads:mt_native ~iters:it_mt in
        record (Printf.sprintf "read_path_mt/%s" name) v;
        Printf.printf "  read_path_mt/%-6s %8.1f ns/op (t%d)\n%!" name v
          mt_native)
      N.read_paths;
    let v = N.signal_all_ns ~nthreads:mt_native ~iters:it_sig in
    record (Printf.sprintf "signal_all/n%d" mt_native) v;
    Printf.printf "  signal_all/n%d      %8.1f ns/broadcast\n%!" mt_native v;
    let v = N.alloc_free_ns ~iters:it_af in
    record "alloc_free" v;
    Printf.printf "  alloc_free          %8.1f ns/pair\n%!" v;
    let v = N.alloc_free_mt_ns ~nthreads:mt_native ~iters:it_af in
    record (Printf.sprintf "alloc_free_mt/t%d" mt_native) v;
    Printf.printf "  alloc_free_mt/t%d    %8.1f ns/pair\n%!" mt_native v;
    List.iter
      (fun cls ->
        let v = N.alloc_free_cls_ns ~cls ~iters:it_af in
        record (Printf.sprintf "alloc_free/cls%d" cls) v;
        Printf.printf "  alloc_free/cls%d     %8.1f ns/pair\n%!" cls v)
      [ 0; 1 ];
    if not (has "--no-wall") then begin
      (* Runner-level wall-clock trials: the whole harness on real domains.
         Mops/s (higher is better) — reported, not regression-gated. *)
      let dur = if quick then 100_000_000 else 500_000_000 in
      List.iter
        (fun (scheme, structure) ->
          let cfg =
            T.Cfg.make ~nthreads:mt_native ~duration_ns:dur ~key_range:256 ~seed:7
              ~smr:N.smr_cfg ()
          in
          let r = H_nat.run ~scheme ~structure cfg in
          let k =
            Printf.sprintf "trial_mops/%s/%s/t%d" structure scheme mt_native
          in
          record k r.T.throughput_mops;
          record
            (Printf.sprintf "trial_uaf/%s/%s/t%d" structure scheme mt_native)
            (float_of_int r.T.uaf_reads);
          Printf.printf "  %-28s %8.3f Mops/s (uaf=%d)\n%!" k
            r.T.throughput_mops r.T.uaf_reads)
        [ ("nbr", "lazy-list"); ("nbr+", "dgt-tree"); ("ibr", "lazy-list") ]
    end;
    (* Latency quantiles: one short harness trial with per-operation
       histograms on.  Cheap enough to run even in --quick/--no-wall. *)
    let lat_cfg =
      T.Cfg.make ~nthreads:mt_native
        ~duration_ns:(if quick then 50_000_000 else 200_000_000)
        ~key_range:256 ~seed:7 ~smr:N.smr_cfg ~record_latency:true ()
    in
    let r = H_nat.run ~scheme:"nbr" ~structure:"lazy-list" lat_cfg in
    record_latency_entries r;
    (* Retire-heavy tail pair: inline vs background reclaimer. *)
    record_reclaim_tail (fun reclaim ->
        let cfg =
          T.Cfg.make ~nthreads:mt_native
            ~duration_ns:(if quick then 50_000_000 else 200_000_000)
            ~key_range:128 ~ins_pct:50 ~del_pct:50 ~seed:7
            ~smr:(Nbr_core.Smr_config.with_threshold N.smr_cfg 64)
            ?reclaim ~record_latency:true ()
        in
        H_nat.run ~scheme:"nbr+" ~structure:"harris-list" cfg);
    (* Same duration in quick mode: the run is 100ms of wall time, and a
       shorter one over-weights warmup, skewing quick CI runs against
       the committed standard-mode baseline. *)
    record_kv (KV_nat.run ~duration_ns:100_000_000);
    record_kv_slo
      (KV_nat.run_slo ~duration_ns:100_000_000 ~rate_rps:10_000
         ~deadline_ns:50_000_000);
    write_json ~runtime:"native" ~mode
      ~path:(Filename.concat out_dir "BENCH_native.json")
  in

  let bench_sim () =
    results := [];
    (* Virtual-time results are deterministic; iteration counts only bound
       the wall cost of running the simulation itself. *)
    let it_1t = if quick then 300 else 2_000 in
    let it_mt = if quick then 100 else 500 in
    let it_sig = if quick then 100 else 500 in
    let it_af = if quick then 2_000 else 20_000 in
    Printf.printf "# sim runtime (virtual ns, deterministic, %s)\n%!" mode;
    List.iter
      (fun (name, m) ->
        let v = m ~nthreads:1 ~iters:it_1t in
        record (Printf.sprintf "read_path_1t/%s" name) v;
        Printf.printf "  read_path_1t/%-6s %8.1f ns/op\n%!" name v)
      S.read_paths;
    List.iter
      (fun (name, m) ->
        let v = m ~nthreads:mt_sim ~iters:it_mt in
        record (Printf.sprintf "read_path_mt/%s" name) v;
        Printf.printf "  read_path_mt/%-6s %8.1f ns/op (t%d)\n%!" name v
          mt_sim)
      S.read_paths;
    let v = S.signal_all_ns ~nthreads:mt_sim ~iters:it_sig in
    record (Printf.sprintf "signal_all/n%d" mt_sim) v;
    Printf.printf "  signal_all/n%d      %8.1f ns/broadcast\n%!" mt_sim v;
    let v = S.alloc_free_ns ~iters:it_af in
    record "alloc_free" v;
    Printf.printf "  alloc_free          %8.1f ns/pair\n%!" v;
    let v = S.alloc_free_mt_ns ~nthreads:mt_sim ~iters:(it_af / 4) in
    record (Printf.sprintf "alloc_free_mt/t%d" mt_sim) v;
    Printf.printf "  alloc_free_mt/t%d    %8.1f ns/pair\n%!" mt_sim v;
    List.iter
      (fun cls ->
        let v = S.alloc_free_cls_ns ~cls ~iters:it_af in
        record (Printf.sprintf "alloc_free/cls%d" cls) v;
        Printf.printf "  alloc_free/cls%d     %8.1f ns/pair\n%!" cls v)
      [ 0; 1 ];
    (* Deterministic virtual-time latency quantiles. *)
    let lat_cfg =
      T.Cfg.make ~nthreads:mt_sim ~duration_ns:2_000_000 ~key_range:256 ~seed:7
        ~smr:S.smr_cfg ~record_latency:true ()
    in
    let r = H_sim.run ~scheme:"nbr" ~structure:"lazy-list" lat_cfg in
    record_latency_entries r;
    (* Retire-heavy tail pair: inline vs background reclaimer
       (deterministic in virtual time). *)
    record_reclaim_tail (fun reclaim ->
        let cfg =
          T.Cfg.make ~nthreads:mt_sim ~duration_ns:3_000_000 ~key_range:128
            ~ins_pct:50 ~del_pct:50 ~seed:7
            ~smr:(Nbr_core.Smr_config.with_threshold S.smr_cfg 64)
            ?reclaim ~record_latency:true ()
        in
        H_sim.run ~scheme:"nbr+" ~structure:"harris-list" cfg);
    record_kv (KV_sim.run ~duration_ns:1_000_000);
    record_kv_slo
      (KV_sim.run_slo ~duration_ns:1_000_000 ~rate_rps:4_000_000
         ~deadline_ns:100_000);
    write_json ~runtime:"sim" ~mode
      ~path:(Filename.concat out_dir "BENCH_sim.json")
  in

  match runtime with
  | "native" -> bench_native ()
  | "sim" -> bench_sim ()
  | "both" ->
      bench_native ();
      bench_sim ()
  | r ->
      Printf.printf "error: unknown --runtime %s\n" r;
      exit 2
