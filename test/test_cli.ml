(* The nbr_bench command line: P5-unsafe scheme x structure pairings are
   refused with a one-line error and exit status 2, before any trial
   runs; supported pairings still run, and a fractional --duration-ms
   reproduces a quick figure's cell.  [figure] runs several experiments
   in order under one summary, and refuses an unknown id before running
   any of them. *)

let nbr_bench = "../bin/nbr_bench.exe"

(* Run [nbr_bench args], returning the exit status, stdout's lines and
   stderr's lines (an empty stream gives no lines). *)
let run args =
  let out = Filename.temp_file "nbr_bench" ".out"
  and err = Filename.temp_file "nbr_bench" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" nbr_bench args (Filename.quote out)
         (Filename.quote err))
  in
  let lines f =
    let s = In_channel.with_open_text f In_channel.input_all in
    Sys.remove f;
    match String.trim s with "" -> [] | s -> String.split_on_char '\n' s
  in
  (code, lines out, lines err)

let test_rejects_unsupported () =
  List.iter
    (fun (scheme, structure) ->
      let code, _, lines =
        run (Printf.sprintf "trial --scheme %s --structure %s" scheme structure)
      in
      let pair = scheme ^ "/" ^ structure in
      Alcotest.(check int) (pair ^ " exits 2") 2 code;
      match lines with
      | [ l ] ->
          (* The registry's reason, the fact first, as the harness and
             the KV store print it. *)
          Alcotest.(check string)
            (pair ^ " names the pairing and its reason")
            (Printf.sprintf
               "nbr_bench: unsupported pairing %s x %s (paper P5), %s" scheme
               structure
               (Option.get (Nbr_workload.Registry.refusal ~scheme ~structure)))
            l
      | _ ->
          Alcotest.failf "%s: expected one line on stderr, got %d" pair
            (List.length lines))
    (Nbr_workload.Registry.unsupported ())

let test_runs_supported () =
  let code, _, _ =
    run
      "trial --scheme hp --structure lazy-list --threads 2 --cores 2 --range \
       64 --duration-ms 1"
  in
  Alcotest.(check int) "hp x lazy-list runs and validates" 0 code

(* A quick figure's trials last 0.5 ms, so [trial] takes fractional
   milliseconds; its simulator defaults are the figures', so given the
   figure's parameters it prints the golden figure's cell.  The cell is
   fig3b's first table (lazy list, 50i-50d, 512 keys, 256-record bags),
   4 threads, nbr+. *)
let test_trial_reproduces_quick_cell () =
  let csv =
    In_channel.with_open_text "golden/fig3b.expected" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (String.starts_with ~prefix:"csv,")
    |> List.map (String.split_on_char ',')
  in
  (* The first 4-thread row belongs to the first table. *)
  let row = List.find (fun r -> List.nth r 1 = "4") csv in
  let cell = List.assoc "nbr+" (List.combine (List.hd csv) row) in
  let code, out, _ =
    run
      "trial --scheme nbr+ --structure lazy-list --threads 4 --range 512 \
       --ins 50 --del 50 --bag-threshold 256 --duration-ms 0.5 --seed 1"
  in
  Alcotest.(check int) "exits 0" 0 code;
  let mops l =
    let rec go = function
      | v :: "Mops/s" :: _ -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go (List.filter (( <> ) "") (String.split_on_char ' ' l))
  in
  Alcotest.(check (option string))
    "fig3b's golden Mops/s" (Some cell) (List.find_map mops out)

let test_figure_runs_several () =
  let code, out, _ = run "figure usability ablation_signals --quick" in
  Alcotest.(check int) "exits 0" 0 code;
  let id l = List.hd (String.split_on_char ':' l) in
  Alcotest.(check (list string))
    "headers in order"
    [ "=== usability"; "=== ablation_signals" ]
    (List.map id (List.filter (String.starts_with ~prefix:"===") out));
  Alcotest.(check int)
    "one summary line" 1
    (List.length
       (List.filter (String.starts_with ~prefix:"[experiments]") out))

let test_figure_rejects_unknown () =
  let code, out, err = run "figure nope usability" in
  Alcotest.(check int) "exits 2" 2 code;
  Alcotest.(check int) "one stderr line" 1 (List.length err);
  Alcotest.(check (list string)) "nothing ran" [] out

let suite =
  [
    Alcotest.test_case "trial rejects unsupported pairings" `Quick
      test_rejects_unsupported;
    Alcotest.test_case "trial runs a supported pairing" `Quick
      test_runs_supported;
    Alcotest.test_case "figure runs several ids under one summary" `Quick
      test_figure_runs_several;
    Alcotest.test_case "figure rejects an unknown id before running" `Quick
      test_figure_rejects_unknown;
    Alcotest.test_case "trial reproduces a quick figure cell" `Quick
      test_trial_reproduces_quick_cell;
  ]
