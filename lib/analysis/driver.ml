(* Analysis driver: file walking, parsing, the summary fixpoint, rule
   dispatch, and exemption filtering (DESIGN.md §16).

   [bin/nbr_lint.ml] is a thin shell over [main]; tests call
   [analyze_files] directly on fixture sets. *)

type result = {
  findings : Findings.t list;  (** surviving findings, sorted *)
  suppressed : int;  (** dropped by allowlist or in-source waiver *)
  warnings : string list;  (** allowlist diagnostics *)
}

let parse_file file =
  let ic = open_in file in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let lexbuf = Lexing.from_channel ic in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception exn -> Error exn

let rec walk dir f =
  Array.iter
    (fun entry ->
      let p = Filename.concat dir entry in
      if Sys.is_directory p then walk p f
      else if Filename.check_suffix entry ".ml" then f p)
    (let a = Sys.readdir dir in
     Array.sort compare a;
     a)

let ml_files_of_dirs dirs =
  let files = ref [] in
  List.iter (fun d -> walk d (fun p -> files := p :: !files)) dirs;
  List.rev !files

let analyze_files ?(allowlist = Findings.Allowlist.empty ())
    ?(allowlist_warnings = []) ?(check_mli = true) (files : string list) :
    result =
  let files = List.map Findings.normalize_path files in
  let parsed, parse_findings =
    List.fold_left
      (fun (ok, bad) file ->
        match parse_file file with
        | Ok ast -> ((file, ast) :: ok, bad)
        | Error exn -> (ok, Idiom.parse_failure ~file exn :: bad))
      ([], []) files
  in
  let parsed = List.rev parsed in
  let sum = Summary.build parsed in
  let waivers = Findings.Waivers.create () in
  let raw = ref parse_findings in
  if check_mli then
    List.iter
      (fun file ->
        match Idiom.check_mli ~file with
        | Some f -> raw := f :: !raw
        | None -> ())
      files;
  List.iter
    (fun (info : Summary.info) ->
      Findings.Waivers.collect waivers ~file:info.path info.structure;
      raw := Idiom.check_structure ~file:info.path info.structure @ !raw;
      raw := Rules.check_scheme sum info @ !raw)
    sum.Summary.infos;
  let suppressed = ref 0 in
  let kept =
    List.filter
      (fun (f : Findings.t) ->
        let drop =
          Findings.Waivers.waived waivers ~rule:f.rule ~file:f.file
            ~line:f.line
          || Findings.Allowlist.mem allowlist ~rule:f.rule ~file:f.file
        in
        if drop then incr suppressed;
        not drop)
      !raw
  in
  let kept = List.sort_uniq Findings.compare kept in
  { findings = kept; suppressed = !suppressed; warnings = allowlist_warnings }

let analyze_dirs ?allowlist ?allowlist_warnings ?check_mli dirs =
  analyze_files ?allowlist ?allowlist_warnings ?check_mli
    (ml_files_of_dirs dirs)

(* ------------------------------------------------------------------ *)
(* CLI *)

let main () =
  let github = ref false in
  let allowlist_file = ref "" in
  let sarif_file = ref "" in
  let roots = ref [] in
  Arg.parse
    [
      ("--github", Arg.Set github, " emit GitHub Actions error annotations");
      ( "--allowlist",
        Arg.Set_string allowlist_file,
        "FILE rule:path exemptions, one per line" );
      ( "--sarif",
        Arg.Set_string sarif_file,
        "FILE write a SARIF 2.1.0 report (always written, even when clean)" );
    ]
    (fun d -> roots := d :: !roots)
    "nbr_lint [--github] [--allowlist FILE] [--sarif FILE] DIR...";
  let allowlist, warnings =
    if !allowlist_file = "" then (Findings.Allowlist.empty (), [])
    else Findings.Allowlist.load !allowlist_file
  in
  let roots = if !roots = [] then [ "lib" ] else List.rev !roots in
  List.iter
    (fun root ->
      if not (Sys.file_exists root && Sys.is_directory root) then begin
        Printf.eprintf "nbr_lint: no such directory: %s\n" root;
        exit 2
      end)
    roots;
  let result =
    analyze_dirs ~allowlist ~allowlist_warnings:warnings roots
  in
  List.iter (fun w -> Printf.eprintf "nbr_lint: warning: %s\n" w)
    result.warnings;
  List.iter
    (fun f ->
      print_endline
        (if !github then Findings.to_github f else Findings.to_string f))
    result.findings;
  if !sarif_file <> "" then Sarif.write_file !sarif_file result.findings;
  let n = List.length result.findings in
  if n > 0 then begin
    Printf.printf "nbr_lint: %d finding(s)\n" n;
    1
  end
  else begin
    print_endline "nbr_lint: clean";
    0
  end
