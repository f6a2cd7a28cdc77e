(* The nbr_bench command line: P5-unsafe scheme x structure pairings are
   refused with a one-line error and exit status 2, before any trial
   runs; supported pairings still run. *)

let nbr_bench = "../bin/nbr_bench.exe"

(* Run [nbr_bench args], returning the exit status and stderr's lines. *)
let run args =
  let err = Filename.temp_file "nbr_bench" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2> %s" nbr_bench args
         (Filename.quote err))
  in
  let lines = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  (code, String.split_on_char '\n' (String.trim lines))

let test_rejects_unsupported () =
  List.iter
    (fun (scheme, structure) ->
      let code, lines =
        run (Printf.sprintf "trial --scheme %s --structure %s" scheme structure)
      in
      let pair = scheme ^ "/" ^ structure in
      Alcotest.(check int) (pair ^ " exits 2") 2 code;
      match lines with
      | [ l ] ->
          Alcotest.(check bool)
            (pair ^ " names the pairing: " ^ l)
            true
            (String.starts_with ~prefix:"nbr_bench: unsupported pairing" l)
      | _ ->
          Alcotest.failf "%s: expected one line on stderr, got %d" pair
            (List.length lines))
    Nbr_workload.Registry.unsupported

let test_runs_supported () =
  let code, _ =
    run
      "trial --scheme hp --structure lazy-list --threads 2 --cores 2 --range \
       64 --duration-ms 1"
  in
  Alcotest.(check int) "hp x lazy-list runs and validates" 0 code

let suite =
  [
    Alcotest.test_case "trial rejects unsupported pairings" `Quick
      test_rejects_unsupported;
    Alcotest.test_case "trial runs a supported pairing" `Quick
      test_runs_supported;
  ]
