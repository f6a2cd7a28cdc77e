(* Unit tests for the simulated-multicore runtime: scheduling,
   determinism, virtual time, signal delivery and checkpoint semantics. *)

module Sim = Nbr_runtime.Sim_rt

let with_config ?(cores = 4) ?(granularity = 1) ?(jitter = 8) ?(seed = 1) f =
  let saved = Sim.get_config () in
  Sim.set_config { Sim.default_config with cores; granularity; jitter; seed };
  Fun.protect ~finally:(fun () -> Sim.set_config saved) f

let test_runs_all_threads () =
  with_config (fun () ->
      let hits = Array.make 8 0 in
      Sim.run ~nthreads:8 (fun tid -> hits.(tid) <- hits.(tid) + 1);
      Alcotest.(check (list int))
        "each thread ran once" (List.init 8 (fun _ -> 1))
        (Array.to_list hits))

let test_atomics_interleave () =
  with_config (fun () ->
      (* n threads × k increments via CAS loop = exactly n*k. *)
      let c = Sim.make 0 in
      Sim.run ~nthreads:6 (fun _ ->
          for _ = 1 to 500 do
            let rec incr () =
              let v = Sim.load c in
              if not (Sim.cas c v (v + 1)) then incr ()
            in
            incr ()
          done);
      Alcotest.(check int) "cas total" 3000 (Sim.load c))

let test_faa_xchg () =
  with_config (fun () ->
      let c = Sim.make 0 in
      Sim.run ~nthreads:4 (fun _ ->
          for _ = 1 to 1000 do
            ignore (Sim.faa c 2)
          done);
      Alcotest.(check int) "faa total" 8000 (Sim.load c);
      let d = Sim.make 5 in
      Sim.run ~nthreads:1 (fun _ ->
          Alcotest.(check int) "xchg returns old" 5 (Sim.xchg d 9));
      Alcotest.(check int) "xchg stored" 9 (Sim.load d))

let test_determinism () =
  let trace () =
    with_config ~seed:42 (fun () ->
        let c = Sim.make 0 in
        let order = ref [] in
        Sim.run ~nthreads:5 (fun tid ->
            for _ = 1 to 50 do
              ignore (Sim.faa c 1);
              order := tid :: !order
            done);
        (!order, Sim.load c))
  in
  let a = trace () and b = trace () in
  Alcotest.(check bool) "identical schedules" true (a = b)

let test_virtual_time_advances () =
  with_config (fun () ->
      let final = ref 0 in
      Sim.run ~nthreads:1 (fun _ ->
          let t0 = Sim.now_ns () in
          let c = Sim.make 0 in
          for _ = 1 to 1000 do
            ignore (Sim.load c)
          done;
          final := Sim.now_ns () - t0);
      Alcotest.(check bool)
        (Printf.sprintf "1000 loads cost >0 virtual ns (got %d)" !final)
        true (!final > 0))

let test_stall_advances_clock () =
  with_config (fun () ->
      let elapsed = ref 0 in
      Sim.run ~nthreads:1 (fun _ ->
          let t0 = Sim.now_ns () in
          Sim.stall_ns 5_000_000;
          elapsed := Sim.now_ns () - t0);
      Alcotest.(check bool)
        (Printf.sprintf "stall >= 5ms (got %d)" !elapsed)
        true
        (!elapsed >= 5_000_000))

let test_signal_restarts_restartable () =
  with_config (fun () ->
      (* Thread 1 loops in a checkpointed restartable section; thread 0
         signals it; thread 1 must observe a restart. *)
      let restarts = ref 0 in
      let flag = Sim.make 0 in
      Sim.run ~nthreads:2 (fun tid ->
          if tid = 0 then begin
            while Sim.load flag = 0 do
              Sim.cpu_relax ()
            done;
            Sim.send_signal 1;
            Sim.store flag 2
          end
          else begin
            let attempts = ref 0 in
            Sim.checkpoint (fun () ->
                incr attempts;
                Sim.set_restartable_t tid true;
                if Sim.load flag = 0 then Sim.store flag 1;
                (* Wait in restartable mode until the signal arrives;
                   the replay sees flag = 2 and falls straight through. *)
                while Sim.load flag <> 2 do
                  Sim.cpu_relax ()
                done;
                Sim.set_restartable_t tid false);
            restarts := !attempts - 1
          end);
      Alcotest.(check bool)
        (Printf.sprintf "restarted at least once (%d)" !restarts)
        true (!restarts >= 1))

let test_signal_ignored_when_non_restartable () =
  with_config (fun () ->
      let finished = ref false in
      Sim.run ~nthreads:2 (fun tid ->
          if tid = 0 then Sim.send_signal 1
          else begin
            Sim.set_restartable_t tid false;
            let c = Sim.make 0 in
            for _ = 1 to 200 do
              ignore (Sim.load c)
            done;
            finished := true
          end);
      Alcotest.(check bool) "non-restartable thread unharmed" true !finished)

let test_signals_counted () =
  with_config (fun () ->
      Sim.run ~nthreads:4 (fun tid ->
          if tid = 0 then
            for t = 1 to 3 do
              Sim.send_signal t
            done);
      Alcotest.(check int) "3 signals" 3 (Sim.signals_sent ()))

let test_checkpoint_nesting () =
  with_config (fun () ->
      (* An inner checkpoint absorbs the neutralization; the outer one
         never replays (k-NBR: restart innermost read phase only). *)
      let outer = ref 0 and inner = ref 0 in
      let ready = Sim.make 0 and finished = Sim.make 0 in
      Sim.run ~nthreads:2 (fun tid ->
          if tid = 0 then begin
            while Sim.load ready = 0 do
              Sim.cpu_relax ()
            done;
            Sim.send_signal 1;
            Sim.store finished 1
          end
          else
            Sim.checkpoint (fun () ->
                incr outer;
                Sim.set_restartable_t tid false;
                Sim.checkpoint (fun () ->
                    incr inner;
                    Sim.set_restartable_t tid true;
                    if Sim.load finished = 0 then begin
                      Sim.store ready 1;
                      while Sim.load finished = 0 do
                        Sim.cpu_relax ()
                      done
                    end;
                    Sim.set_restartable_t tid false)));
      Alcotest.(check int) "outer ran once" 1 !outer;
      Alcotest.(check bool)
        (Printf.sprintf "inner restarted (%d)" !inner)
        true (!inner >= 2))

let test_exception_propagates () =
  with_config (fun () ->
      Alcotest.check_raises "worker exception surfaces" (Failure "boom")
        (fun () -> Sim.run ~nthreads:3 (fun tid ->
             if tid = 2 then failwith "boom")))

let test_oversubscription_slows_wall_clock () =
  (* With 2 cores and 8 threads, per-thread wall time for the same work
     should exceed the 2-thread case (time-slice waiting). *)
  let run_threads n =
    let worst = ref 0 in
    with_config ~cores:2 ~jitter:0 (fun () ->
        Sim.run ~nthreads:n (fun _ ->
            let c = Sim.make 0 in
            (* Enough work to cross several scheduling quanta. *)
            for _ = 1 to 300_000 do
              ignore (Sim.load c)
            done;
            worst := max !worst (Sim.now_ns ())));
    !worst
  in
  let t2 = run_threads 2 and t8 = run_threads 8 in
  Alcotest.(check bool)
    (Printf.sprintf "8 threads on 2 cores slower per-thread (t2=%d t8=%d)" t2
       t8)
    true (t8 > t2)

let test_stuck_watchdog () =
  with_config (fun () ->
      Sim.set_max_events 1_000;
      Fun.protect
        ~finally:(fun () -> Sim.set_max_events 0)
        (fun () ->
          match
            Sim.run ~nthreads:1 (fun _ ->
                let c = Sim.make 0 in
                while true do
                  ignore (Sim.load c)
                done)
          with
          | () -> Alcotest.fail "expected Stuck"
          | exception Sim.Stuck _ -> ()))

(* ------------------------------------------------------------------ *)
(* Cell blocks: cell [i] of a [make_cells] block is costed exactly like a
   standalone [aint] (DESIGN.md §9).  The same random multi-fiber program
   runs once over a block with the indexed ops and once over an array of
   standalone cells with the plain ops: every returned value, every
   fiber's [now_ns] after every op, and the final memory must agree.   *)

let width = 6

(* kind, index, two small operands *)
let gen_op =
  QCheck.Gen.(
    quad (int_bound 5) (int_bound (width - 1)) (int_bound 3) (int_bound 3))

(* One op list per fiber, 2 to 4 fibers. *)
let arb_program =
  QCheck.make
    ~print:(fun progs ->
      String.concat " | "
        (Array.to_list
           (Array.map
              (fun l ->
                String.concat ";"
                  (List.map
                     (fun (k, i, a, b) -> Printf.sprintf "%d@%d(%d,%d)" k i a b)
                     l))
              progs)))
    QCheck.Gen.(
      int_range 2 4 >>= fun n ->
      array_repeat n (list_size (int_range 1 30) gen_op))

(* Run [progs] with [exec fiber_op] standing for one access; returns the
   per-fiber (result, now_ns) logs and the final cell values. *)
let run_program ~seed progs exec final =
  with_config ~seed (fun () ->
      let logs = Array.map (fun _ -> ref []) progs in
      Sim.run ~nthreads:(Array.length progs) (fun tid ->
          List.iter
            (fun op ->
              let r = exec op in
              logs.(tid) := (r, Sim.now_ns ()) :: !(logs.(tid)))
            progs.(tid));
      (Array.map (fun l -> List.rev !l) logs, final ()))

let prop_cells_cost_like_aints =
  QCheck.Test.make ~count:200 ~name:"cells block costed like standalone aints"
    QCheck.(pair arb_program (int_bound 1000))
    (fun (progs, seed) ->
      let block = Sim.make_cells width 1 in
      let on_block (k, i, a, b) =
        match k with
        | 0 -> Sim.load_at block i
        | 1 -> Sim.plain_load_at block i
        | 2 -> Sim.store_at block i a; 0
        | 3 -> Bool.to_int (Sim.cas_at block i a b)
        | 4 -> Sim.faa_at block i a
        | _ -> Sim.xchg_at block i a
      in
      let cells = Array.init width (fun _ -> Sim.make 1) in
      let on_cells (k, i, a, b) =
        let c = cells.(i) in
        match k with
        | 0 -> Sim.load c
        | 1 -> Sim.plain_load c
        | 2 -> Sim.store c a; 0
        | 3 -> Bool.to_int (Sim.cas c a b)
        | 4 -> Sim.faa c a
        | _ -> Sim.xchg c a
      in
      let b =
        run_program ~seed progs on_block (fun () ->
            Array.init width (Sim.load_at block))
      in
      let c =
        run_program ~seed progs on_cells (fun () -> Array.map Sim.load cells)
      in
      b = c)

let test_cells_bounds () =
  let block = Sim.make_cells 3 0 in
  Alcotest.check_raises "index past the end"
    (Invalid_argument "index out of bounds") (fun () ->
      ignore (Sim.load_at block 3));
  Alcotest.check_raises "negative index"
    (Invalid_argument "index out of bounds") (fun () ->
      Sim.store_at block (-1) 0)

(* Owner tags are 16 bits wide.  Fibers 44 and 300 store to one cell in
   turn; every store after the other fiber's pays the ownership miss.  A
   tag truncated to 8 bits would read 300 as 44 and charge no miss. *)
let test_owner_tag_range () =
  let saved = Sim.get_config () in
  Sim.set_config { saved with cores = 512; ghz = 1.0; jitter = 0 };
  Fun.protect ~finally:(fun () -> Sim.set_config saved) @@ fun () ->
  let cell = Sim.make 0 and turn = Sim.make 0 in
  let rounds = 10 in
  let costs = ref [] in
  Sim.run ~nthreads:301 (fun tid ->
      if tid = 44 || tid = 300 then begin
        let me = if tid = 44 then 0 else 1 in
        for k = 0 to rounds - 1 do
          while Sim.load turn <> (2 * k) + me do
            Sim.cpu_relax ()
          done;
          let t0 = Sim.now_ns () in
          Sim.store cell tid;
          costs := (Sim.now_ns () - t0) :: !costs;
          Sim.store turn ((2 * k) + me + 1)
        done
      end);
  let c = Sim.get_config () in
  match List.rev !costs with
  | first :: rest ->
      Alcotest.(check int) "first store hits a fresh line" c.c_store first;
      Alcotest.(check (list int))
        "each later store misses"
        (List.init ((2 * rounds) - 1) (fun _ -> c.c_store + c.c_miss))
        rest
  | [] -> Alcotest.fail "no stores ran"

let test_max_threads () =
  Sim.run ~nthreads:Sim.max_threads ignore;
  Alcotest.check_raises "one thread past the tag range"
    (Invalid_argument
       (Printf.sprintf "Sim_rt.run: nthreads must be <= %d" Sim.max_threads))
    (fun () -> Sim.run ~nthreads:(Sim.max_threads + 1) ignore)

(* ------------------------------------------------------------------ *)
(* The per-access path allocates next to nothing.  Two fibers run loads
   under checkpoints at granularity 1, so every access is a yield.  The
   run costs 4 minor words per event on OCaml 5.1: the suspended
   continuation and the option that holds it.  A handler closure and
   option built per yield (6 words), or a replay closure per checkpoint
   (4 words a checkpoint, 2 an event here), break the [yield_words]
   bound; with both the run costs 12. *)

let yield_words = 5.

let test_yield_allocation () =
  with_config ~cores:2 (fun () ->
      let c = Sim.make 0 in
      let read () = ignore (Sim.load c) in
      let before = Gc.minor_words () in
      Sim.run ~nthreads:2 (fun _ ->
          for _ = 1 to 5_000 do
            Sim.checkpoint read
          done);
      let words = Gc.minor_words () -. before in
      let per_event = words /. float_of_int (Sim.total_events ()) in
      if per_event > yield_words then
        Alcotest.failf "%.2f minor words per event (bound %.1f)" per_event
          yield_words)

let suite =
  [
    Alcotest.test_case "runs all threads" `Quick test_runs_all_threads;
    Alcotest.test_case "cas interleaving" `Quick test_atomics_interleave;
    Alcotest.test_case "faa and xchg" `Quick test_faa_xchg;
    Alcotest.test_case "deterministic given seed" `Quick test_determinism;
    Alcotest.test_case "virtual time advances" `Quick test_virtual_time_advances;
    Alcotest.test_case "stall advances clock" `Quick test_stall_advances_clock;
    Alcotest.test_case "signal restarts restartable thread" `Quick
      test_signal_restarts_restartable;
    Alcotest.test_case "signal ignored when non-restartable" `Quick
      test_signal_ignored_when_non_restartable;
    Alcotest.test_case "signals counted" `Quick test_signals_counted;
    Alcotest.test_case "checkpoint nesting (k-NBR)" `Quick
      test_checkpoint_nesting;
    Alcotest.test_case "worker exception propagates" `Quick
      test_exception_propagates;
    Alcotest.test_case "oversubscription slows wall clock" `Quick
      test_oversubscription_slows_wall_clock;
    Alcotest.test_case "stuck watchdog fires" `Quick test_stuck_watchdog;
    QCheck_alcotest.to_alcotest prop_cells_cost_like_aints;
    Alcotest.test_case "cell index bounds" `Quick test_cells_bounds;
    Alcotest.test_case "owner tags hold tid 300" `Quick test_owner_tag_range;
    Alcotest.test_case "nthreads capped by the tag" `Quick test_max_threads;
    Alcotest.test_case "per-event allocation bound" `Quick
      test_yield_allocation;
  ]
