(* KV serving-layer tests on the deterministic simulator.

   The oracle trick: each worker owns the keys congruent to its tid, so
   every key's operation sequence is single-threaded and replaying the
   per-thread logs sequentially gives the exact expected final
   membership — while the shards themselves still see full concurrency
   (threads collide on buckets, SMR phases, and the pool, just never on
   the same key).  Runs over every registered scheme, asserting zero
   committed UAF for the sound ones. *)

module Sim = Nbr_runtime.Sim_rt
module St = Nbr_kv.Store.Make (Sim)
module Svc = Nbr_kv.Service.Make (Sim)
module Registry = Nbr_workload.Registry
module Traffic = Nbr_workload.Traffic
module Rng = Nbr_sync.Rng

let nthreads = 4
let nshards = 2
let keyspace = 2048
let ops_per_thread = 1500

(* Pre-drawn per-thread op logs (deterministic), shared by the
   concurrent run and the sequential oracle. *)
let op_logs seed =
  Array.init nthreads (fun tid ->
      let rng = Rng.for_thread ~seed ~tid in
      Array.init ops_per_thread (fun _ ->
          (* Key owned by this tid; ~45% insert / 35% delete / 20% get. *)
          let k = (Rng.below rng (keyspace / nthreads) * nthreads) + tid in
          match Rng.below rng 100 with
          | r when r < 45 -> Traffic.Put k
          | r when r < 80 -> Traffic.Delete k
          | _ -> Traffic.Get k))

let oracle logs =
  let present = Hashtbl.create 256 in
  Array.iter
    (fun (ops : Traffic.op array) ->
      Array.iter
        (function
          | Traffic.Put k -> Hashtbl.replace present k ()
          | Traffic.Delete k -> Hashtbl.remove present k
          | Traffic.Get _ | Traffic.Scan _ -> ())
        ops)
    logs;
  present

let run_store ~scheme ~seed =
  Sim.set_config
    { Sim.default_config with cores = 3; granularity = 1; seed };
  let structure =
    if Registry.supported ~scheme ~structure:"hash-set" then "hash-set"
    else "ab-tree"
  in
  let st =
    St.create
      (St.Cfg.make ~structure ~nshards ~keyspace ~shard_capacity:8192
         ~scheme ~nthreads ())
  in
  let logs = op_logs seed in
  Sim.run ~nthreads (fun tid ->
      Array.iter
        (fun op ->
          match op with
          | Traffic.Put k -> ignore (St.put st ~tid k)
          | Traffic.Delete k -> ignore (St.delete st ~tid k)
          | Traffic.Get k -> ignore (St.get st ~tid k)
          | Traffic.Scan _ -> ())
        logs.(tid);
      St.drain st ~tid);
  (st, logs)

let test_scheme_oracle scheme () =
  List.iter
    (fun seed ->
      let st, logs = run_store ~scheme ~seed in
      let expected = oracle logs in
      Alcotest.(check int)
        (Printf.sprintf "%s/seed%d: size matches oracle" scheme seed)
        (Hashtbl.length expected) (St.size st);
      (* Spot-check membership key by key through the read path. *)
      for k = 0 to keyspace - 1 do
        let want = Hashtbl.mem expected k in
        let got = St.get st ~tid:0 k in
        if want <> got then
          Alcotest.failf "%s/seed%d: key %d expected %b got %b" scheme seed
            k want got
      done;
      let s = St.stats st in
      Alcotest.(check int)
        (Printf.sprintf "%s/seed%d: zero committed UAF" scheme seed)
        0 s.Nbr_kv.Store.st_committed_uaf;
      (* Exact signal delivery and no fault injection: even transient
         UAF reads must be absent. *)
      Alcotest.(check int)
        (Printf.sprintf "%s/seed%d: zero UAF reads" scheme seed)
        0 s.Nbr_kv.Store.st_uaf_reads)
    [ 3; 17 ]

(* The unsound foil frees retired slots immediately; the run must still
   terminate, but no state assertion is meaningful once slots recycle
   under live readers. *)
let test_foil_runs () =
  let st, _ = run_store ~scheme:"unsafe-free" ~seed:3 in
  Alcotest.(check bool) "foil store survives" true (St.size st >= 0)

(* Service pipeline: flash-crowd open-loop traffic with per-shard
   background reclaimers; the report must validate (set semantics, no
   UAF) and respect the bounded-garbage claim, and the crowd's queueing
   has to surface in the tail (p99.9 >= p50 with real traffic). *)
let test_service_flash_crowd () =
  Sim.set_config { Sim.default_config with cores = 8; seed = 21 };
  let keyspace = 1 lsl 16 in
  let st =
    Svc.St.create
      (Svc.St.Cfg.make ~nshards:4 ~keyspace ~scheme:"nbr+" ~nthreads:8
         ~reclaim:Nbr_reclaim.Reclaimer.On_pressure ())
  in
  let traffic =
    Traffic.make
      ~shape:(Traffic.Flash_crowd { fc_at_pct = 40; fc_len_pct = 20; fc_mult = 8 })
      ~rate_rps:1_000_000 ~keyspace ()
  in
  let rep =
    Svc.run st
      (Svc.Cfg.make ~duration_ns:1_000_000 ~seed:21 ~prefill:4_000 ~traffic ())
  in
  Alcotest.(check bool) "requests flowed" true
    (rep.Nbr_kv.Service.rep_requests > 1_000);
  Alcotest.(check bool) "report validates" true (Nbr_kv.Service.valid rep);
  Alcotest.(check bool) "garbage bounded" true (Nbr_kv.Service.bounded_ok rep);
  let g = rep.Nbr_kv.Service.rep_latency.Nbr_kv.Service.l_get in
  Alcotest.(check bool) "tail at or above median" true
    (g.Nbr_obs.Histogram.s_p999 >= g.Nbr_obs.Histogram.s_p50)

(* Same service config, same seed: the sim must reproduce the report
   bit for bit. *)
let test_service_deterministic () =
  let go () =
    Sim.set_config { Sim.default_config with cores = 4; seed = 9 };
    let st =
      Svc.St.create
        (Svc.St.Cfg.make ~nshards:2 ~keyspace:4096 ~shard_capacity:8192
           ~scheme:"nbr" ~nthreads:4 ())
    in
    let traffic = Traffic.make ~rate_rps:2_000_000 ~keyspace:4096 () in
    Svc.run st
      (Svc.Cfg.make ~duration_ns:300_000 ~seed:9 ~prefill:500 ~traffic ())
  in
  let a = go () and b = go () in
  Alcotest.(check int) "same requests" a.Nbr_kv.Service.rep_requests
    b.Nbr_kv.Service.rep_requests;
  Alcotest.(check int) "same size" a.Nbr_kv.Service.rep_stats.Nbr_kv.Store.st_size
    b.Nbr_kv.Service.rep_stats.Nbr_kv.Store.st_size;
  Alcotest.(check (float 0.0)) "same p99"
    a.Nbr_kv.Service.rep_latency.Nbr_kv.Service.l_get.Nbr_obs.Histogram.s_p99
    b.Nbr_kv.Service.rep_latency.Nbr_kv.Service.l_get.Nbr_obs.Histogram.s_p99

let test_cfg_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown scheme rejected" true
    (raises (fun () -> St.Cfg.make ~scheme:"epoch9000" ~nthreads:2 ()));
  Alcotest.(check bool) "P5-unsafe pairing rejected" true
    (raises (fun () ->
         St.Cfg.make ~structure:"hash-set" ~scheme:"hp" ~nthreads:2 ()));
  Alcotest.(check bool) "hp on ab-tree accepted" true
    (match St.Cfg.make ~structure:"ab-tree" ~scheme:"hp" ~nthreads:2 () with
    | _ -> true
    | exception Invalid_argument _ -> false)

(* ------------------------------------------------------------------ *)
(* Scans.  An (a,b)-tree shard answers a scan with one descent per leaf
   the range reaches; a hash-set shard probes key by key.  Both must
   give the answer of the old per-key probes: the keys of
   [k, k+len) (mod keyspace) that are present in [k]'s shard.          *)

let scan_structures scheme =
  List.filter
    (fun structure -> Registry.supported ~scheme ~structure)
    [ "ab-tree"; "hash-set" ]

(* One worker, so every answer is exact.  Keyspaces this small (and half
   the keys drawn near the keyspace end) make scans cross leaf
   boundaries and wrap past the end. *)
let test_scan_exact () =
  List.iter
    (fun scheme ->
      List.iter
        (fun structure ->
          List.iter
            (fun keyspace ->
              let seed = keyspace + String.length scheme in
              Sim.set_config { Sim.default_config with cores = 1; seed };
              let st =
                St.create
                  (St.Cfg.make ~structure ~nshards:3 ~keyspace
                     ~shard_capacity:8192 ~scheme ~nthreads:1 ())
              in
              let present = Array.make keyspace false in
              let expect k len =
                let home = St.shard_of st k and hits = ref 0 in
                for i = 0 to len - 1 do
                  let k' = (k + i) mod keyspace in
                  if present.(k') && St.shard_of st k' = home then incr hits
                done;
                !hits
              in
              let rng = Rng.for_thread ~seed ~tid:0 in
              let key () =
                if Rng.below rng 2 = 0 then Rng.below rng keyspace
                else (keyspace - 300 + Rng.below rng 600) mod keyspace
              in
              let scans = ref 0 and wrong = ref [] in
              Sim.run ~nthreads:1 (fun tid ->
                  for _ = 1 to 3000 do
                    let k = key () in
                    match Rng.below rng 10 with
                    | 0 | 1 | 2 | 3 ->
                        ignore (St.put st ~tid k);
                        present.(k) <- true
                    | 4 | 5 ->
                        ignore (St.delete st ~tid k);
                        present.(k) <- false
                    | _ ->
                        let len = 1 + Rng.below rng 40 in
                        let op = Traffic.Scan (k, len) in
                        let got =
                          St.exec_on st ~tid ~shard:(St.shard_of_op st op) op
                        in
                        incr scans;
                        if got <> expect k len && List.length !wrong < 3 then
                          wrong :=
                            Printf.sprintf "scan %d+%d = %d, want %d" k len
                              got (expect k len)
                            :: !wrong
                  done);
              Alcotest.(check (list string))
                (Printf.sprintf "%s/%s/%d: %d scans exact" scheme structure
                   keyspace !scans)
                [] (List.rev !wrong))
            [ 1024; 2048; 65536 ])
        (scan_structures scheme))
    Registry.all_scheme_names;
  Sim.set_config Sim.default_config

(* Scans race inserts and deletes on one (a,b)-tree shard: 4 workers
   scan while 4 update a small key range, with the sanitizer attached
   (one shard, so slot ids name one pool).  A leaf is read atomically
   and each key of the range is counted at most once, so no answer can
   exceed its length. *)
let test_scan_concurrent scheme () =
  Fun.protect
    ~finally:(fun () ->
      Nbr_obs.Trace.subscribe None;
      Nbr_obs.Trace.set_verbose false;
      if Nbr_obs.Trace.enabled () then Nbr_obs.Trace.disable ();
      Sim.set_config Sim.default_config)
  @@ fun () ->
  Sim.set_config { Sim.default_config with cores = 8; seed = 11 };
  let nthreads = 8 and keyspace = 512 in
  let st =
    St.create
      (St.Cfg.make ~structure:"ab-tree" ~nshards:1 ~keyspace
         ~shard_capacity:8192 ~scheme ~nthreads ())
  in
  let san =
    Nbr_check.Sanitizer.attach
      {
        Nbr_check.Sanitizer.protection =
          (Registry.find_exn scheme).r_desc.protection;
        nthreads;
        garbage_bound = None;
      }
  in
  let scans = ref 0 and over = ref 0 in
  Sim.run ~nthreads (fun tid ->
      let rng = Rng.for_thread ~seed:11 ~tid in
      for _ = 1 to 400 do
        let k = Rng.below rng keyspace in
        if tid < 4 then begin
          let len = 1 + Rng.below rng 40 in
          if St.scan st ~tid k len > len then incr over;
          incr scans
        end
        else if Rng.below rng 2 = 0 then ignore (St.put st ~tid k)
        else ignore (St.delete st ~tid k)
      done;
      St.drain st ~tid);
  Nbr_check.Sanitizer.detach san;
  Alcotest.(check (list string))
    (scheme ^ ": sanitizer silent") []
    (List.map Nbr_check.Sanitizer.violation_to_string
       (Nbr_check.Sanitizer.violations san));
  Alcotest.(check int) (scheme ^ ": scans ran") 1600 !scans;
  Alcotest.(check int) (scheme ^ ": no answer above its length") 0 !over;
  Alcotest.(check int)
    (scheme ^ ": zero committed UAF")
    0 (St.stats st).Nbr_kv.Store.st_committed_uaf

(* On a quiescent tree a 16-key scan that stays inside one leaf is one
   descent, so it costs about what one get costs; sixteen per-key
   probes would cost sixteen.  Keys are multiples of 64, so router keys
   are too, and [k, k+16) for a present [k] meets no leaf boundary. *)
let test_scan_cost () =
  Sim.set_config { Sim.default_config with cores = 1; jitter = 0; seed = 1 };
  let st =
    St.create
      (St.Cfg.make ~structure:"ab-tree" ~nshards:1 ~keyspace:65536
         ~shard_capacity:8192 ~scheme:"nbr+" ~nthreads:1 ())
  in
  let k = 64 * 300 in
  let get_ns = ref 0 and scan_ns = ref 0 and hits = ref 0 in
  Sim.run ~nthreads:1 (fun tid ->
      for i = 0 to 1023 do
        ignore (St.put st ~tid (64 * i))
      done;
      let t0 = Sim.now_ns () in
      ignore (St.get st ~tid k);
      let t1 = Sim.now_ns () in
      hits := St.scan st ~tid k 16;
      let t2 = Sim.now_ns () in
      get_ns := t1 - t0;
      scan_ns := t2 - t1);
  Sim.set_config Sim.default_config;
  Alcotest.(check int) "the scan finds its one key" 1 !hits;
  if !scan_ns > 2 * !get_ns then
    Alcotest.failf "a one-leaf scan took %d ns, a get %d ns" !scan_ns !get_ns

(* Shared accesses of single operations on a quiescent one-shard nbr+
   store, counted by the simulator's heartbeat (one tick per shared
   access), against an exact budget.  [ops] run in order after
   [prefill]: (name, expected answer, operation). *)
let access_budget ~structure ~prefill ops =
  Sim.set_config { Sim.default_config with cores = 1; jitter = 0; seed = 1 };
  let st =
    St.create
      (St.Cfg.make ~structure ~nshards:1 ~keyspace:65536 ~shard_capacity:8192
         ~scheme:"nbr+" ~nthreads:1 ())
  in
  let costs = ref [] in
  Sim.run ~nthreads:1 (fun tid ->
      List.iter (fun k -> ignore (St.put st ~tid k)) prefill;
      List.iter
        (fun (name, want, f, _) ->
          let h = Sim.heartbeat tid in
          let got = f st tid in
          costs := (name, Sim.heartbeat tid - h) :: !costs;
          Alcotest.(check bool) (name ^ " answer") want got)
        ops);
  Sim.set_config Sim.default_config;
  if List.exists (fun (name, _, _, b) -> List.assoc name !costs > b) ops then
    Alcotest.failf "shared accesses (budget): %s"
      (String.concat ", "
         (List.map
            (fun (name, _, _, b) ->
              Printf.sprintf "%s %d (%d)" name (List.assoc name !costs) b)
            ops))

(* The quiescent tree of [scan-cost]: a get, a put of a new key into a
   leaf that is not full, the delete of that key, and a put of a key
   already present.  A write phase stores only the fields a new node
   uses and reads the leaf's keys once, and a search stops at the first
   key past its target.  One stray store per node copy, or one extra
   scan of the leaf, breaks the budget. *)
let test_ab_access_budget () =
  let k = 64 * 300 in
  access_budget ~structure:"ab-tree"
    ~prefill:(List.init 1024 (fun i -> 64 * i))
    [
      ("get", true, (fun st tid -> St.get st ~tid k), 96);
      ("put new", true, (fun st tid -> St.put st ~tid (k + 1)), 120);
      ("delete", true, (fun st tid -> St.delete st ~tid (k + 1)), 122);
      ("put present", false, (fun st tid -> St.put st ~tid k), 104);
    ]

(* With 64 buckets, multiples of 64 share one bucket (a bucket is the
   low six bits of the key's Fibonacci product, which only the key's
   low six bits decide), so the keys 128, 256, ..., 1024 make one
   sorted chain of eight, and 576 falls in its middle.  A phase reads
   the key of the node where it stops once, and a write phase decides
   from its traversal without reading [curr]'s key again.  One extra
   key read breaks the budget. *)
let test_hash_access_budget () =
  let hit = 512 and miss = 576 in
  access_budget ~structure:"hash-set"
    ~prefill:(List.init 8 (fun i -> 128 * (i + 1)))
    [
      ("get hit", true, (fun st tid -> St.get st ~tid hit), 15);
      ("get miss", false, (fun st tid -> St.get st ~tid miss), 14);
      ("put new", true, (fun st tid -> St.put st ~tid miss), 21);
      ("put present", false, (fun st tid -> St.put st ~tid hit), 17);
      ("delete present", true, (fun st tid -> St.delete st ~tid miss), 22);
      ("delete absent", false, (fun st tid -> St.delete st ~tid miss), 19);
    ]

let suite =
  List.map
    (fun scheme ->
      Alcotest.test_case
        (Printf.sprintf "oracle-%s" scheme)
        `Quick (test_scheme_oracle scheme))
    Registry.scheme_names
  @ [
      Alcotest.test_case "foil-runs" `Quick test_foil_runs;
      Alcotest.test_case "service-flash-crowd" `Quick test_service_flash_crowd;
      Alcotest.test_case "service-deterministic" `Quick
        test_service_deterministic;
      Alcotest.test_case "cfg-validation" `Quick test_cfg_validation;
      Alcotest.test_case "scan-exact" `Quick test_scan_exact;
    ]
  @ List.map
      (fun scheme ->
        Alcotest.test_case
          (Printf.sprintf "scan-concurrent-%s" scheme)
          `Quick (test_scan_concurrent scheme))
      [ "nbr+"; "hp"; "debra" ]
  @ [
      Alcotest.test_case "scan-cost" `Quick test_scan_cost;
      Alcotest.test_case "ab-tree access budget" `Quick test_ab_access_budget;
      Alcotest.test_case "hash-set access budget" `Quick
        test_hash_access_budget;
    ]
