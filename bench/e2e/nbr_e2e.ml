(* nbr_e2e: the end-to-end benchmark (see README.md).

     nbr_e2e run --workload W [--seed N] [--seconds S] [--trace 0|1]
                 [--spans FILE] [--record FILE] [--smoke]
     nbr_e2e compare A.jsonl B.jsonl [--bench BENCHMARK.json]

   [run] prints every metric as "name value unit", then one JSON line
   with the end-to-end metrics (--trace 0) or the per-layer ones
   (--trace 1).  It exits 1, printing no metrics, when an output check
   fails. *)

let usage =
  "usage: nbr_e2e run --workload W [--seed N] [--seconds S] [--trace 0|1] \
   [--spans FILE] [--record FILE] [--smoke]\n\
  \       nbr_e2e compare A.jsonl B.jsonl [--bench BENCHMARK.json]"

let die msg =
  prerr_endline ("nbr_e2e: " ^ msg);
  exit 2

let parse spec rest =
  let anon = ref [] in
  (try
     Arg.parse_argv ~current:(ref 0)
       (Array.of_list ("nbr_e2e" :: rest))
       spec
       (fun a -> anon := a :: !anon)
       usage
   with
  | Arg.Bad msg -> die msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  List.rev !anon

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (m : Bench.metric) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Json.quote m.name)
             (Json.num m.value) (Json.quote m.unit))
         ms)
  ^ "}"

let record_line (r : Bench.report) =
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"trace\": %d, \"noisy\": %b, \"digest\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    (Json.quote r.workload) r.seed (Bool.to_int r.traced) r.noisy
    (Json.quote r.digest) r.attempted r.failed (json_metrics r.metrics)

let run_cmd rest =
  let workload = ref "" and seed = ref 1 and seconds = ref 16 in
  let trace = ref 0 and spans = ref "" and record = ref "" and smoke = ref false in
  let anon =
    parse
      [
        ("--workload", Arg.Set_string workload, "NAME workload to run");
        ("--seed", Arg.Set_int seed, "N seed of every generated input (default 1)");
        ("--seconds", Arg.Set_int seconds, "S measured seconds (default 16)");
        ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced run with per-layer metrics");
        ("--spans", Arg.Set_string spans, "FILE span file of a traced run (default .nbr_e2e/W.trace.json)");
        ("--record", Arg.Set_string record, "FILE append the full run record as one JSON line");
        ("--smoke", Arg.Set smoke, " tiny sizes and short windows (tests)");
      ]
      rest
  in
  (match anon with [] -> () | [ w ] when !workload = "" -> workload := w | _ -> die usage);
  let w =
    match Workloads.find !workload with
    | None ->
        die
          (Printf.sprintf "unknown workload %S (one of: %s)" !workload
             (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)))
    | Some w -> w
  in
  let w = if !smoke then Workloads.smoke w else w in
  if !seconds < 1 then die "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let traced = !trace = 1 in
  let spans_path =
    if not traced then None
    else if !spans <> "" then Some !spans
    else begin
      if not (Sys.file_exists ".nbr_e2e") then Sys.mkdir ".nbr_e2e" 0o755;
      Some (Filename.concat ".nbr_e2e" (w.Workloads.name ^ ".trace.json"))
    end
  in
  let chase = Host.make_chase ~mib:(if !smoke then 1 else 64) in
  let r =
    Bench.run w ~seed:!seed ~seconds:!seconds ~traced ~spans_path ~chase
  in
  if r.failures <> [] then begin
    List.iter (fun f -> prerr_endline ("nbr_e2e: check failed: " ^ f)) r.failures;
    exit 1
  end;
  let show group =
    List.iter
      (fun (m : Bench.metric) ->
        if m.group = group then Printf.printf "%s %.6g %s\n" m.name m.value m.unit)
      r.metrics
  in
  Printf.printf "# %s seed=%d trace=%d digest=%s noisy=%b attempted=%d failed=%d\n"
    r.workload r.seed !trace r.digest r.noisy r.attempted r.failed;
  show Bench.End_to_end;
  show Bench.Per_layer;
  print_endline "# diagnostics";
  show Bench.Diagnostic;
  (match spans_path with
  | Some p -> Printf.printf "# spans: %s\n" p
  | None -> ());
  if !record <> "" then begin
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 !record in
    output_string oc (record_line r ^ "\n");
    close_out oc
  end;
  let wanted = if traced then Bench.Per_layer else Bench.End_to_end in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    r.attempted r.failed
    (json_metrics (List.filter (fun (m : Bench.metric) -> m.group = wanted) r.metrics))

let compare_cmd rest =
  let bench = ref "BENCHMARK.json" in
  match parse [ ("--bench", Arg.Set_string bench, "FILE bounds (default BENCHMARK.json)") ] rest with
  | [ a; b ] -> exit (if Compare.run ~bench:!bench ~a ~b > 0 then 1 else 0)
  | _ -> die usage

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run_cmd rest
  | _ :: "compare" :: rest -> compare_cmd rest
  | _ -> die usage
