(* [nbr_e2e compare A.jsonl B.jsonl]: each metric × workload of two sets
   of run records, with each set's median and quartiles and a verdict
   against the bounds in BENCHMARK.json.

   A metric's tolerance around a median is the bound as a share of it,
   but never less than the metric's absolute floor.  The metric is
   "unresolved" when either set's quartile spread is wider than its
   tolerance — unless every run of B reads better than every run of A.
   Otherwise it "regressed" or "improved" when B's median is worse or
   better than A's by more than A's tolerance, and is "unchanged" in
   between.  Per-layer metrics carry no bound and get no verdict. *)

type spec = {
  name : string;
  unit : string;
  lower : bool;
  bound : float option;
  floor : float;  (** in the metric's unit *)
}

(* BENCHMARK.json holds no floors.  A set-up shorter than this is timed
   too coarsely for a share of it to mean anything (README.md). *)
let floors = [ ("setup_s", 0.05) ]

let specs bench =
  let read key =
    List.filter_map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m, Json.member "better" m) with
        | Json.Str name, Json.Str unit, Json.Str better ->
            Some
              {
                name;
                unit;
                lower = better = "lower";
                bound = Json.to_float_opt (Json.member "bound" m);
                floor = Option.value ~default:0.0 (List.assoc_opt name floors);
              }
        | _ -> None)
      (Json.to_list (Json.member key bench))
  in
  read "end_to_end" @ read "per_layer"

(* Runs group by workload and trace flag: a traced run's end-to-end
   numbers are diagnostics, and its capacity phase is half traced, so
   they never mix with an untraced run's. *)
type record = { workload : string; metrics : (string * float) list }

let read_records path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line when String.trim line = "" -> go acc
        | line ->
            let j = Json.parse line in
            let metrics =
              match Json.member "metrics" j with
              | Json.Obj kvs ->
                  List.filter_map
                    (fun (k, m) ->
                      Option.map (fun f -> (k, f)) (Json.to_float_opt (Json.member "value" m)))
                    kvs
              | _ -> []
            in
            let workload =
              Option.value ~default:"?" (Json.to_string_opt (Json.member "workload" j))
              ^ if Json.to_float_opt (Json.member "trace" j) = Some 1.0 then " traced" else ""
            in
            go ({ workload; metrics } :: acc)
      in
      go [])

type verdict = Improved | Unchanged | Regressed | Unresolved | No_bound

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | No_bound -> "-"

let iqr xs =
  let q1, _, q3 = Stats.quartiles xs in
  q3 -. q1

let judge spec a b =
  match spec.bound with
  | None -> No_bound
  | Some bound ->
      let better x y = if spec.lower then x < y else x > y in
      let all_better =
        Array.for_all (fun y -> Array.for_all (fun x -> better y x) a) b
      in
      let tol m = Float.max (bound *. Float.abs m) spec.floor in
      let ma = Stats.median a and mb = Stats.median b in
      if iqr a > tol ma || iqr b > tol mb then
        if all_better then Improved else Unresolved
      else
        let worse = if spec.lower then mb -. ma else ma -. mb in
        if worse > tol ma then Regressed
        else if worse < -.tol ma then Improved
        else Unchanged

(* Prints the table; the result is the number of regressions. *)
let run ~bench ~a ~b =
  let specs = specs (Json.read_file bench) in
  let ra = read_records a and rb = read_records b in
  let workloads =
    List.fold_left
      (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
      [] (ra @ rb)
  in
  let values rs wl name =
    Array.of_list
      (List.filter_map
         (fun r -> if r.workload = wl then List.assoc_opt name r.metrics else None)
         rs)
  in
  let regressions = ref 0 in
  Printf.printf "%-22s %-28s %10s %-32s %-32s %8s  %s\n" "workload" "metric" "bound"
    "A median [q1, q3] (n)" "B median [q1, q3] (n)" "B/A-1" "verdict";
  List.iter
    (fun wl ->
      List.iter
        (fun spec ->
          let va = values ra wl spec.name and vb = values rb wl spec.name in
          if va <> [||] && vb <> [||] then begin
            let cell xs =
              let q1, m, q3 = Stats.quartiles xs in
              Printf.sprintf "%.4g [%.4g, %.4g] (%d)" m q1 q3 (Array.length xs)
            in
            let ma = Stats.median va and mb = Stats.median vb in
            let v = judge spec va vb in
            if v = Regressed then incr regressions;
            Printf.printf "%-22s %-28s %10s %-32s %-32s %+7.2f%%  %s\n" wl
              (spec.name ^ " " ^ spec.unit)
              (match spec.bound with
              | Some b when spec.floor > 0.0 -> Printf.sprintf "%.0f%%|%g" (100.0 *. b) spec.floor
              | Some b -> Printf.sprintf "%.0f%%" (100.0 *. b)
              | None -> "")
              (cell va) (cell vb)
              (if ma = 0.0 then 0.0 else 100.0 *. ((mb /. ma) -. 1.0))
              (verdict_name v)
          end)
        specs)
    workloads;
  !regressions
