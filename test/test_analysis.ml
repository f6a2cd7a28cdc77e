(* The phase discipline checked before anything runs, end to end: the
   analyzer's R2 scheme-closure rule against a violating/clean fixture
   pair, the ported idiom rules, in-source waivers, allowlist path
   normalization, SARIF emission; the compiler's verdicts on the
   compile-must-fail fixtures that stand for what the types of
   [Smr_intf.S] enforce (the write token, the read token that is R2's
   client half, and the operation bracket); and
   the cross-validation story: one seeded-violation module ([Broken_ds])
   convicted both by the compiler, as an S-typed copy, and by a
   DFS-explored dynamic sanitizer run (DESIGN.md §16).

   The rendered findings are asserted byte-for-byte: rule id, file,
   line and message are all part of the analyzer's contract. *)

module D = Nbr_analysis.Driver
module F = Nbr_analysis.Findings
module Sarif = Nbr_analysis.Sarif
module Sim = Nbr_runtime.Sim_rt
module Trace = Nbr_obs.Trace
module Explore = Nbr_check.Explore
module San = Nbr_check.Sanitizer

(* Under `dune runtest` the cwd is the test directory; under
   `dune exec test/main.exe` it is the repo root.  Locate the fixtures
   from either, and build the expected strings from the same prefix so
   the byte-for-byte assertions hold in both. *)
let root = if Sys.file_exists "fixtures/analysis" then "" else "test/"

let fix name = root ^ "fixtures/analysis/" ^ name

let exp name line rest = Printf.sprintf "%s:%d: %s" (fix name) line rest

let strings_of (r : D.result) = List.map F.to_string r.D.findings

let analyze ?allowlist names =
  D.analyze_files ?allowlist ~check_mli:false (List.map fix names)

(* The output test/dune captured when the compiler rejected
   fixtures/types/[name].ml, with runs of blanks and newlines squashed
   to one space (the compiler wraps long messages). *)
let compiler_output name =
  let f = "types_" ^ name ^ ".out" in
  let f = if Sys.file_exists f then f else "_build/default/test/" ^ f in
  let s = In_channel.with_open_text f In_channel.input_all in
  String.split_on_char '\n' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (( <> ) "")
  |> String.concat " "

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* [name] was rejected at [line] with [error]. *)
let rejected name ~line error =
  let out = compiler_output name in
  let at = Printf.sprintf "fixtures/types/%s.ml\", line %d," name line in
  if not (contains out at && contains out ("Error: " ^ error)) then
    Alcotest.failf "%s.ml: expected %S at line %d, compiler said: %s" name
      error line out

(* The clean twin compiled: its captured output is the inferred
   signature, with no error. *)
let compiled name =
  let out = compiler_output name in
  if contains out "Error" then
    Alcotest.failf "%s.ml: expected to compile, compiler said: %s" name out

let check_pair ~violating ~clean ~expected () =
  let r = analyze [ violating ] in
  Alcotest.(check (list string)) "violating fixture flagged" expected
    (strings_of r);
  let rc = analyze [ clean ] in
  Alcotest.(check (list string)) "clean twin silent" [] (strings_of rc);
  Alcotest.(check int) "nothing suppressed" 0 rc.D.suppressed

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

(* R2's client half is the read token: a validated read needs one, only
   a running read phase hands one out, it cannot leave that phase, and
   a phase needs the token of an open operation. *)
let test_r2 () =
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

(* The acceptance criterion from PR 4: an IBR-family read_ptr that
   ratchets its reservation interval but never validates the slot must
   be caught statically by R2's scheme-closure check. *)
let test_scheme_ibr =
  check_pair ~violating:"scheme_ibr_violation.ml" ~clean:"scheme_ibr_clean.ml"
    ~expected:
      [
        exp "scheme_ibr_violation.ml" 24
          "[unguarded-deref] scheme ibr: read_ptr publishes without \
           validating slot liveness";
      ]

(* Every scheme file under lib/core names itself where the analyzer
   looks, and R2 finds each function its family checks there: moving a
   scheme's facts must not silently take it out of R2. *)
let test_r2_covers_schemes () =
  let dir = if root = "" then "../lib/core" else "lib/core" in
  let parse f =
    In_channel.with_open_text f (fun ic ->
        (f, Parse.implementation (Lexing.from_channel ic)))
  in
  let module S = Nbr_analysis.Summary in
  let module R = Nbr_analysis.Rules in
  let sum = S.build (List.map parse (D.ml_files_of_dirs [ dir ])) in
  let checked =
    List.filter_map
      (fun (info : S.info) ->
        Option.map
          (fun s ->
            let checks = R.checks (R.family_of_scheme s) in
            if R.family_of_scheme s = R.Unknown_family then
              Alcotest.failf "%s: scheme %s has no R2 family" info.path s;
            List.iter
              (fun (fn, _, _) ->
                if S.lookup_fn sum info fn = None then
                  Alcotest.failf "%s: R2 cannot find %s" info.path fn)
              checks;
            (Filename.basename info.path, s, List.length checks))
          info.scheme)
      sum.infos
  in
  Alcotest.(check (list (triple string string int)))
    "scheme files, their names and the R2 checks run on each"
    [
      ("debra.ml", "debra", 1);
      ("hazard_eras.ml", "he", 4);
      ("hp.ml", "hp", 4);
      ("ibr.ml", "ibr", 4);
      ("leaky.ml", "none", 0);
      ("nbr.ml", "nbr", 3);
      ("nbr_plus.ml", "nbr+", 3);
      ("qsbr.ml", "qsbr", 1);
      ("rcu.ml", "rcu", 1);
      ("unsafe_free.ml", "unsafe-free", 0);
    ]
    (List.sort compare checked)

let test_idiom () =
  let r = analyze [ "idiom_violation.ml" ] in
  Alcotest.(check (list string))
    "both idiom rules fire on the shared engine"
    [
      exp "idiom_violation.ml" 4
        "[obj-magic] Obj.magic defeats the type system; find another way";
      exp "idiom_violation.ml" 6
        "[pool-raw-index] raw cell addressing bypasses generation \
         validation: go through the scheme's validated accessors \
         (read_data / read_ptr / peek_ptr), or grandfather a deliberate \
         use in the allowlist";
    ]
    (strings_of r)

let test_waiver () =
  let r = analyze [ "idiom_waived.ml" ] in
  Alcotest.(check (list string)) "waived finding not reported" []
    (strings_of r);
  Alcotest.(check int) "but counted as suppressed" 1 r.D.suppressed

(* ------------------------------------------------------------------ *)
(* Allowlist path normalization (the satellite fix): one file cannot
   hide under two spellings, and duplicate spellings are warned on.    *)

let test_normalize_path () =
  let n = F.normalize_path in
  Alcotest.(check string) "double slash" "lib/ds/foo.ml" (n "lib//ds/foo.ml");
  Alcotest.(check string) "dot segments" "lib/ds/foo.ml" (n "./lib/./ds/foo.ml");
  Alcotest.(check string) "trailing separator" "lib/ds" (n "lib/ds/");
  Alcotest.(check string) "absolute path keeps its root" "/tmp/x.ml"
    (n "//tmp//x.ml");
  Alcotest.(check string) "root alone" "/" (n "/")

let with_temp_allowlist lines f =
  let file = Filename.temp_file "nbr_allowlist" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      f (F.Allowlist.load file))

let test_allowlist_normalization () =
  with_temp_allowlist
    [
      "# comment";
      "unguarded-deref:" ^ root
      ^ "fixtures//analysis/./scheme_ibr_violation.ml";
      "unguarded-deref:" ^ root ^ "fixtures/analysis/scheme_ibr_violation.ml/";
    ]
  @@ fun (allowlist, warnings) ->
  Alcotest.(check int) "second spelling warned as duplicate" 1
    (List.length warnings);
  Alcotest.(check bool) "normalized spelling matches" true
    (F.Allowlist.mem allowlist ~rule:"unguarded-deref"
       ~file:(fix "scheme_ibr_violation.ml"));
  let r = analyze ~allowlist [ "scheme_ibr_violation.ml" ] in
  Alcotest.(check (list string)) "allowlisted finding dropped" []
    (strings_of r);
  Alcotest.(check int) "and counted as suppressed" 1 r.D.suppressed

let test_sarif () =
  let r = analyze [ "scheme_ibr_violation.ml" ] in
  let s = Sarif.to_string r.D.findings in
  let contains needle =
    let nh = String.length s and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "sarif version" true (contains "\"version\": \"2.1.0\"");
  Alcotest.(check bool) "rule id present" true
    (contains "\"ruleId\": \"unguarded-deref\"");
  Alcotest.(check bool) "location present" true
    (contains (fix "scheme_ibr_violation.ml"));
  Alcotest.(check bool) "start line present" true (contains "\"startLine\": 24")

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
    Alcotest.test_case "R2 unguarded deref" `Quick test_r2;
    Alcotest.test_case "compiler rejects begin_op/end_op" `Quick
      test_hand_opened_op;
    Alcotest.test_case "compiler rejects a plain read" `Quick
      test_read_phase_plain_read;
    Alcotest.test_case "R2 scheme closure (PR 4 IBR bug)" `Quick test_scheme_ibr;
    Alcotest.test_case "idiom rules on the shared engine" `Quick test_idiom;
    Alcotest.test_case "in-source waiver" `Quick test_waiver;
    Alcotest.test_case "path normalization" `Quick test_normalize_path;
    Alcotest.test_case "allowlist normalization" `Quick
      test_allowlist_normalization;
    Alcotest.test_case "sarif emission" `Quick test_sarif;
    Alcotest.test_case "cross-check: static" `Quick test_broken_ds_static;
    Alcotest.test_case "cross-check: dynamic" `Quick test_broken_ds_dynamic;
    Alcotest.test_case "compiler rejects a read-phase lock" `Quick
      test_read_phase_lock;
    Alcotest.test_case "R2 covers every scheme file" `Quick
      test_r2_covers_schemes;
  ]
