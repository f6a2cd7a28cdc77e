(* Tests of the benchmark itself: its statistics, its schedule, its span
   arithmetic, its verdicts, a smoke run of every workload whose printed
   metric names must be exactly those BENCHMARK.json declares, and a
   single-worker run of every workload whose every answer is checked. *)

let check_float msg expected got = Alcotest.(check (float 1e-9)) msg expected got

let windowed () =
  (* Window w holds 100w+1 .. 100w+100, shuffled: exact per-window
     quantiles are known, and the reported value is their median. *)
  let wd = Stats.Windows.create 3 in
  for w = 2 downto 0 do
    for i = 100 downto 1 do
      Stats.Windows.add wd w ((100 * w) + ((i * 37) mod 100) + 1)
    done
  done;
  Stats.Windows.add wd 3 7;
  Stats.Windows.add wd (-1) 7;
  let g = Stats.Windows.sorted wd in
  let p50 = Stats.windowed g 0.5 and p99 = Stats.windowed g 0.99 in
  check_float "p50: median of 50, 150, 250" 150.0 p50.Stats.value;
  check_float "p99: median of 99, 199, 299" 199.0 p99.Stats.value;
  Alcotest.(check int) "windows" 3 p99.Stats.windows;
  Alcotest.(check int) "fewest samples" 100 p99.Stats.min_count;
  Alcotest.(check int) "out-of-range windows dropped" 300 p99.Stats.total;
  check_float "max" 300.0 (Stats.pooled g 1.0);
  check_float "pooled p99.9" 300.0 (Stats.pooled g 0.999);
  Alcotest.(check int) "nearest rank" 3 (Stats.rank_sorted [| 1; 2; 3; 4 |] 0.51);
  let empty = Stats.windowed [| [||]; [||] |] 0.5 in
  Alcotest.(check int) "no samples" 0 empty.Stats.windows;
  (* statistics.quantiles(range(1, 11), n=4) *)
  let q1, m, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  check_float "q1" 2.75 q1;
  check_float "median" 5.5 m;
  check_float "q3" 8.25 q3

let digest () =
  let tr =
    Nbr_workload.Traffic.make ~mx:Nbr_workload.Traffic.scan_heavy ~rate_rps:50_000
      ~keyspace:4096 ()
  in
  let schedule seed =
    let lane = Schedule.open_loop tr ~seed ~worker:0 ~duration_ns:20_000_000 in
    Schedule.digest
      [
        Schedule.prefill ~seed ~keyspace:4096 500;
        Schedule.ring tr ~seed ~worker:0 1000;
        lane.Schedule.ops;
        lane.Schedule.due;
      ]
  in
  Alcotest.(check string) "same seed, same schedule" (schedule 1) (schedule 1);
  Alcotest.(check bool) "another seed, another schedule" false (schedule 1 = schedule 2);
  let lane = Schedule.open_loop tr ~seed:1 ~worker:0 ~duration_ns:20_000_000 in
  Alcotest.(check bool) "about rate × duration arrivals" true
    (lane.Schedule.n > 800 && lane.Schedule.n < 1200);
  for i = 1 to lane.Schedule.n - 1 do
    if lane.Schedule.due.{i} < lane.Schedule.due.{i - 1} then Alcotest.fail "due times decrease"
  done;
  let c = Schedule.encode (Nbr_workload.Traffic.Scan (4095, 16)) in
  Alcotest.(check (pair int int)) "op round trip" (4095, Schedule.k_scan)
    (Schedule.key c, Schedule.kind c)

let self_time () =
  (* Parent [0, 100); children sorted by start, two overlapping, one
     nested, one sticking out: they cover [10,40) ∪ [50,60) ∪ [90,100). *)
  let starts = [| 10; 20; 50; 55; 90 |] and stops = [| 30; 40; 60; 58; 120 |] in
  Alcotest.(check int) "covered" 50 (Span.covered ~lo:0 ~hi:100 starts stops 5);
  Alcotest.(check int) "self" 50 (Span.self_time ~lo:0 ~hi:100 starts stops 5);
  Alcotest.(check int) "no children" 100 (Span.self_time ~lo:0 ~hi:100 [||] [||] 0);
  (* One guarded request served over [5, 22): poll [7,9) admit [9,12)
     exec [12,20) complete [20,22) — the client's own time is 5 → 7. *)
  let ts = [| 0; 5; 7; 9; 12; 20; 22 |] in
  let calls = [| Span.Guard_poll; Span.Guard_admit; Span.Exec; Span.Guard_complete |] in
  let starts = Array.map (Span.lo ts) calls and stops = Array.map (Span.hi ts) calls in
  Alcotest.(check int) "client self" 2
    (Span.self_time ~lo:ts.(Span.t_start) ~hi:ts.(Span.t_fin) starts stops 4);
  Alcotest.(check int) "request" 22 (Span.hi ts Span.Request - Span.lo ts Span.Request)

let verdicts () =
  let spec = { Compare.name = "x"; unit = "us"; lower = true; bound = Some 0.10; floor = 0.0 } in
  let a = [| 100.; 101.; 99.; 100.; 102.; 98. |] in
  let shift k = Array.map (fun x -> x *. k) a in
  let v =
    Alcotest.testable
      (fun ppf x -> Format.pp_print_string ppf (Compare.verdict_name x))
      ( = )
  in
  Alcotest.check v "same" Compare.Unchanged (Compare.judge spec a a);
  Alcotest.check v "20% slower" Compare.Regressed (Compare.judge spec a (shift 1.2));
  Alcotest.check v "20% faster" Compare.Improved (Compare.judge spec a (shift 0.8));
  Alcotest.check v "too noisy" Compare.Unresolved
    (Compare.judge spec a [| 50.; 100.; 150.; 200. |]);
  Alcotest.check v "no bound" Compare.No_bound
    (Compare.judge { spec with bound = None } a (shift 2.0));
  (* 35 ms → 45 ms is 29% slower, but within a 50 ms floor. *)
  let setup = { spec with floor = 0.05 } and ms = Array.map (fun x -> x /. 1000.0) in
  let short = ms [| 35.; 34.; 36.; 35. |] in
  Alcotest.check v "within the floor" Compare.Unchanged
    (Compare.judge setup short (ms [| 45.; 44.; 46.; 45. |]));
  Alcotest.check v "beyond the floor" Compare.Regressed
    (Compare.judge setup short (ms [| 95.; 94.; 96.; 95. |]))

(* Traced and untraced runs of one workload are separate groups. *)
let grouping () =
  let file lines =
    let f = Filename.temp_file "nbr_e2e" ".jsonl" in
    let oc = open_out f in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    f
  in
  let record trace x =
    Printf.sprintf
      "{\"workload\": \"w\", \"trace\": %d, \"metrics\": {\"x\": {\"value\": %g, \"unit\": \"us\"}}}"
      trace x
  in
  let bench =
    file
      [ "{\"end_to_end\": [{\"name\": \"x\", \"unit\": \"us\", \"better\": \"lower\", \"bound\": 0.1}]}" ]
  in
  let a = file (List.init 3 (fun _ -> record 0 100.0)) in
  let b = file (List.init 3 (fun _ -> record 0 100.0) @ List.init 3 (fun _ -> record 1 300.0)) in
  Alcotest.(check int) "traced runs judged apart" 0 (Compare.run ~bench ~a ~b);
  let c = file (List.init 3 (fun _ -> record 0 300.0)) in
  Alcotest.(check int) "untraced regression found" 1 (Compare.run ~bench ~a ~b:c);
  List.iter Sys.remove [ bench; a; b; c ]

(* The benchmark as the command line runs it. *)
let run_exe args =
  let ic = Unix.open_process_args_in "./nbr_e2e.exe" (Array.of_list ("./nbr_e2e.exe" :: args)) in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc
  in
  let out = lines [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> List.rev out
  | _ -> Alcotest.failf "nbr_e2e %s failed" (String.concat " " args)

let declared key =
  let bench = Json.read_file "../../BENCHMARK.json" in
  List.sort compare
    (List.filter_map
       (fun m -> Json.to_string_opt (Json.member "name" m))
       (Json.to_list (Json.member key bench)))

let smoke name () =
  List.iter
    (fun trace ->
      let spans = Filename.temp_file "nbr_e2e" ".json" in
      let out =
        run_exe
          [ "run"; "--workload"; name; "--smoke"; "--seconds"; "1"; "--seed"; "3";
            "--trace"; string_of_int trace; "--spans"; spans ]
      in
      let last = Json.parse (List.nth out (List.length out - 1)) in
      Alcotest.(check bool) "correct" true (Json.member "correct" last = Json.Bool true);
      (match Json.member "attempted" last with
      | Json.Num n when n >= 1.0 -> ()
      | _ -> Alcotest.fail "attempted");
      let names =
        match Json.member "metrics" last with
        | Json.Obj kvs ->
            List.iter
              (fun (k, m) ->
                match Json.member "value" m with
                | Json.Num f when Float.is_finite f -> ()
                | _ -> Alcotest.failf "%s is not a finite number" k)
              kvs;
            List.sort compare (List.map fst kvs)
        | _ -> []
      in
      let key = if trace = 0 then "end_to_end" else "per_layer" in
      Alcotest.(check (list string)) (key ^ " names") (declared key) names;
      (* Every printed metric line names a metric, a value and a unit. *)
      List.iter
        (fun n ->
          if not (List.exists (fun l -> String.starts_with ~prefix:(n ^ " ") l) out) then
            Alcotest.failf "%s has no text line" n)
        names;
      if trace = 1 then begin
        let events = Json.to_list (Json.member "traceEvents" (Json.read_file spans)) in
        Alcotest.(check bool) "span file has events" true (events <> [])
      end;
      Sys.remove spans)
    [ 0; 1 ]

(* With one worker every answer is exact: each get, put, delete and scan
   hit count is compared with a model of the key set. *)
let exact (w : Workloads.t) () =
  let w = { (Workloads.smoke w) with workers = 1 } in
  let r =
    Bench.run w ~seed:5 ~seconds:1 ~traced:false ~spans_path:None
      ~chase:(Host.make_chase ~mib:1)
  in
  Alcotest.(check (list string)) "every check holds" [] r.Bench.failures;
  let checked =
    List.find (fun (m : Bench.metric) -> m.name = "answers_checked") r.Bench.metrics
  in
  Alcotest.(check bool) "answers were checked" true (checked.value > 1000.0)

let () =
  Alcotest.run "e2e"
    [
      ( "bench",
        [
          Alcotest.test_case "windowed percentiles" `Quick windowed;
          Alcotest.test_case "schedule digest" `Quick digest;
          Alcotest.test_case "span self time" `Quick self_time;
          Alcotest.test_case "compare verdicts" `Quick verdicts;
          Alcotest.test_case "compare grouping" `Quick grouping;
        ] );
      ( "smoke",
        List.map
          (fun w -> Alcotest.test_case w.Workloads.name `Quick (smoke w.Workloads.name))
          Workloads.all );
      ( "exact",
        List.map
          (fun w -> Alcotest.test_case w.Workloads.name `Quick (exact w))
          Workloads.all );
    ]
