(* The phase discipline and the concurrency idioms, checked before
   anything runs, end to end: the compiler's verdicts on the
   compile-must-fail fixtures that stand for what the types of
   [Smr_intf.S] enforce (the write token, the read token, and the
   operation bracket) and for the idiom alerts of lib/idiom; the list of
   library modules without an interface; and the cross-validation
   story: one seeded-violation module ([Broken_ds]) convicted both by
   the compiler, as an S-typed copy, and by a DFS-explored dynamic
   sanitizer run (DESIGN.md §16). *)

module Sim = Nbr_runtime.Sim_rt
module Trace = Nbr_obs.Trace
module Explore = Nbr_check.Explore
module San = Nbr_check.Sanitizer

(* Under `dune runtest` the cwd is the test directory; under
   `dune exec test/main.exe` it is the repo root. *)
let in_test = Sys.file_exists "fixtures"

(* The output test/dune captured when the compiler rejected
   fixtures/[dir]/[name].ml, with runs of blanks and newlines squashed
   to one space (the compiler wraps long messages). *)
let compiler_output dir name =
  let f = dir ^ "_" ^ name ^ ".out" in
  let f = if in_test then f else "_build/default/test/" ^ f in
  let s = In_channel.with_open_text f In_channel.input_all in
  String.split_on_char '\n' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (( <> ) "")
  |> String.concat " "

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* fixtures/[dir]/[name].ml was rejected at [line] with [error]. *)
let failed_at dir name ~line error =
  let out = compiler_output dir name in
  let at = Printf.sprintf "fixtures/%s/%s.ml\", line %d," dir name line in
  if not (contains out at && contains out error) then
    Alcotest.failf "%s.ml: expected %S at line %d, compiler said: %s" name
      error line out

let rejected name ~line error = failed_at "types" name ~line ("Error: " ^ error)

(* ... by [alert], made an error by lib/idiom/alerts. *)
let alerted name ~line alert =
  failed_at "alerts" name ~line (Printf.sprintf "Error (alert %s):" alert)

(* A clean twin compiled: its captured output is the inferred
   signature, with no error. *)
let compiled ?(dir = "types") name =
  let out = compiler_output dir name in
  if contains out "Error" then
    Alcotest.failf "%s.ml: expected to compile, compiler said: %s" name out

(* The write token: writes, allocations and retirements take one, only
   a running write phase hands one out, and it cannot leave that phase.
   The clean twin does all of them in its write phase. *)
let rd_not_wr =
  "This expression has type 'a S.rd but an expression was expected of \
   type 'b S.wr"

let test_read_phase_write () =
  rejected "read_write" ~line:13 rd_not_wr;
  rejected "read_alloc" ~line:11
    "This expression has type S.op but an expression was expected of type \
     'a S.wr";
  rejected "read_retire" ~line:10 rd_not_wr;
  rejected "write_escape" ~line:11
    "This field value has type 'a S.wr -> unit -> 'a S.wr which is less \
     general than 's. 's S.wr -> 'b -> 'c";
  compiled "write_clean"

(* A record lock takes the write token too: [lock] in a read phase does
   not compile, and the same lock in the write phase does. *)
let test_read_phase_lock () =
  rejected "read_lock" ~line:12 rd_not_wr;
  compiled "write_clean"

(* The read token: a validated read needs one, only a running read
   phase hands one out, it cannot leave that phase, and a phase needs
   the token of an open operation.  (The scheme side of a guarded read,
   each scheme's checkpoint, publication, validation and announcement,
   is certified by the mutant kills in test_mutants.ml.) *)
let test_read_token () =
  rejected "unguarded_read" ~line:6
    "This expression has type S.ctx but an expression was expected of \
     type 'a S.rd";
  rejected "token_escape" ~line:8
    "This field value has type 'a S.rd -> 'a S.rd * int array which is \
     less general than 's. 's S.rd -> 'b * int array";
  rejected "phase_ctx" ~line:7
    "This expression has type S.ctx but an expression was expected of \
     type S.op"

(* The operation bracket: [Smr_intf.S] has no begin_op or end_op to
   unbalance. *)
let test_hand_opened_op () =
  rejected "begin_op" ~line:5 "Unbound value S.begin_op";
  rejected "end_op" ~line:6 "Unbound value S.end_op"

(* The plain field read takes the write token as well, so a read phase
   has only the validated reads. *)
let test_read_phase_plain_read () =
  rejected "plain_read" ~line:10 rd_not_wr;
  compiled "write_clean"

(* The idiom rules are compiler alerts, errors under lib/idiom/alerts.
   The fixtures are compiled as lib/core and lib/ds are.  Every library
   opens the shadow of Obj and Domain; only lib/core and lib/ds open
   the one of Atomic, and lib/runtime the stdlib's Domain back, so
   those are the scopes of nbr_atomic_make and nbr_domain_dls.  Alert
   nbr_raw holds everywhere: each deliberate use is waived in its own
   file, as the clean twin shows. *)
let lib = if in_test then "../lib" else "lib"

let test_alerts () =
  alerted "raw" ~line:7 "nbr_raw";
  alerted "atomic_make" ~line:5 "nbr_atomic_make";
  alerted "obj_magic" ~line:3 "nbr_obj_magic";
  alerted "domain_dls" ~line:4 "nbr_domain_dls";
  let rec opened = function
    | "-open" :: m :: ws -> m :: opened ws
    | _ :: ws -> opened ws
    | [] -> []
  in
  Sys.readdir lib |> Array.to_list |> List.sort compare
  |> List.iter (fun d ->
         let dune = Filename.concat (Filename.concat lib d) "dune" in
         if d <> "idiom" && Sys.file_exists dune then
           Alcotest.(check (list string)) (d ^ " opens")
             (match d with
             | "core" | "ds" -> [ "Nbr_idiom"; "Nbr_idiom.Scheme" ]
             | "runtime" -> [ "Nbr_idiom"; "Nbr_idiom.Runtime" ]
             | _ -> [ "Nbr_idiom" ])
             (In_channel.with_open_text dune In_channel.input_all
             |> String.map (function '(' | ')' | '\n' -> ' ' | c -> c)
             |> String.split_on_char ' ' |> opened))

let test_waived () = compiled ~dir:"alerts" "raw_waived"

(* Library modules without an interface.  They predate the rule:
   namespace modules are pure re-export surfaces, and the scheme and
   structure functors share Smr_intf.S or the runner's structure
   signature, which an .mli would repeat.  A new module brings its
   .mli; a module given one leaves this list, which only shrinks. *)
let grandfathered =
  [
    "core/debra.ml"; "core/hazard_eras.ml"; "core/hp.ml"; "core/ibr.ml";
    "core/leaky.ml"; "core/nbr.ml"; "core/nbr_base.ml"; "core/nbr_core.ml";
    "core/nbr_plus.ml"; "core/qsbr.ml"; "core/rcu.ml"; "core/smr_intf.ml";
    "core/unsafe_free.ml"; "ds/ab_tree.ml"; "ds/dgt_bst.ml";
    "ds/harris_list.ml"; "ds/hash_set.ml"; "ds/lazy_list.ml";
    "ds/skip_list.ml"; "nbr/nbr.ml"; "obs/nbr_obs.ml"; "pool/nbr_pool.ml";
    "runtime/nbr_runtime.ml"; "runtime/runtime_intf.ml"; "sync/int_vec.ml";
    "sync/nbr_sync.ml"; "sync/padded.ml"; "sync/rng.ml"; "sync/treiber.ml";
    "workload/experiments.ml"; "workload/nbr_workload.ml";
  ]

let test_missing_mli () =
  let rec walk rel =
    let dir = if rel = "" then lib else Filename.concat lib rel in
    Sys.readdir dir |> Array.to_list
    |> List.concat_map (fun f ->
           let r = if rel = "" then f else Filename.concat rel f in
           if f.[0] = '.' then []
           else if Sys.is_directory (Filename.concat lib r) then walk r
           else if
             Filename.check_suffix f ".ml"
             && not (Sys.file_exists (Filename.concat lib r ^ "i"))
           then [ r ]
           else [])
  in
  Alcotest.(check (list string)) "modules without an .mli"
    (List.sort compare grandfathered)
    (List.sort compare (walk ""))

(* ------------------------------------------------------------------ *)
(* Cross-validation: the same seeded violation, convicted from both
   ends.  Statically, Broken_ds's [broken_lookup] written against
   [Smr_intf.S] does not compile: the hand-opened operation is the
   first of its faults the compiler meets.  Dynamically, a DFS-explored
   simulator run of [Broken_ds.run] (on the concrete NBR+ module, which
   still exposes its begin_op) with the sanitizer attached convicts
   unguarded_access and unbalanced_op. *)

let test_broken_ds_static () =
  rejected "broken_lookup" ~line:16 "Unbound value S.begin_op"

let det_config =
  { Sim.default_config with cores = 2; granularity = 1; jitter = 0; seed = 7 }

let with_clean_globals f =
  Fun.protect f ~finally:(fun () ->
      Sim.set_config Sim.default_config;
      Sim.set_max_events 0;
      Trace.subscribe None;
      Trace.set_verbose false;
      if Trace.enabled () then Trace.disable ())

let broken_scenario () =
  Sim.set_config det_config;
  let san =
    San.attach
      { San.protection = Neutralization; nthreads = 2; garbage_bound = None }
  in
  (try Broken_ds.run () with Sim.Stuck _ -> ());
  San.detach san;
  if Trace.enabled () then Trace.disable ();
  match San.violations san with
  | [] -> None
  | vs -> Some (String.concat "\n" (List.map San.violation_to_string vs))

let test_broken_ds_dynamic () =
  with_clean_globals @@ fun () ->
  let r =
    Explore.dfs ~preemption_bound:1 ~max_schedules:100 ~nthreads:2
      ~run:broken_scenario ()
  in
  match r.Explore.r_violation with
  | None ->
      Alcotest.failf "sanitizer saw nothing in %d schedules of Broken_ds"
        r.r_schedules
  | Some (desc, _) ->
      Alcotest.(check bool) "unguarded access convicted dynamically" true
        (contains desc "unguarded_access");
      Alcotest.(check bool) "unbalanced op convicted dynamically" true
        (contains desc "unbalanced_op")

let suite =
  [
    Alcotest.test_case "compiler rejects a read-phase write" `Quick
      test_read_phase_write;
    Alcotest.test_case "compiler rejects an unguarded read" `Quick
      test_read_token;
    Alcotest.test_case "compiler rejects begin_op/end_op" `Quick
      test_hand_opened_op;
    Alcotest.test_case "compiler rejects a plain read" `Quick
      test_read_phase_plain_read;
    Alcotest.test_case "alerts reject the idioms" `Quick test_alerts;
    Alcotest.test_case "a waived raw read compiles" `Quick test_waived;
    Alcotest.test_case "missing .mli list only shrinks" `Quick
      test_missing_mli;
    Alcotest.test_case "cross-check: static" `Quick test_broken_ds_static;
    Alcotest.test_case "cross-check: dynamic" `Quick test_broken_ds_dynamic;
    Alcotest.test_case "compiler rejects a read-phase lock" `Quick
      test_read_phase_lock;
  ]
