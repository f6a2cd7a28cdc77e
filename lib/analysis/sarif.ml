(* SARIF 2.1.0 emission (DESIGN.md §16).

   Hand-rolled JSON — the toolchain deliberately has no JSON dependency
   (same choice as the Perfetto trace exporter), and SARIF's subset here
   is small: one run, a rule table, one result per finding with a
   physical location.  Output is accepted by GitHub code scanning. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rule_descriptions =
  [
    ("atomic-make", "shared cells go through the runtime constructors");
    ("domain-dls", "Domain.DLS is a runtime-layer concern");
    ("obj-magic", "no Obj.magic in library code");
    ("pool-raw-index", "no raw cell addressing outside lib/pool");
    ("missing-mli", "library modules carry interfaces");
    ("parse", "sources must parse");
  ]

let to_string (findings : Findings.t list) =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "{\n";
  add
    "  \"$schema\": \
     \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n";
  add "  \"version\": \"2.1.0\",\n";
  add "  \"runs\": [\n    {\n";
  add "      \"tool\": {\n        \"driver\": {\n";
  add "          \"name\": \"nbr_lint\",\n";
  add "          \"informationUri\": \"DESIGN.md\",\n";
  add "          \"rules\": [\n";
  List.iteri
    (fun i (id, desc) ->
      add
        (Printf.sprintf
           "            {\"id\": \"%s\", \"shortDescription\": {\"text\": \
            \"%s\"}}%s\n"
           (escape id) (escape desc)
           (if i = List.length rule_descriptions - 1 then "" else ",")))
    rule_descriptions;
  add "          ]\n        }\n      },\n";
  add "      \"results\": [\n";
  let n = List.length findings in
  List.iteri
    (fun i (f : Findings.t) ->
      add "        {\n";
      add (Printf.sprintf "          \"ruleId\": \"%s\",\n" (escape f.rule));
      add "          \"level\": \"error\",\n";
      add
        (Printf.sprintf "          \"message\": {\"text\": \"%s\"},\n"
           (escape f.msg));
      add "          \"locations\": [\n            {\n";
      add "              \"physicalLocation\": {\n";
      add
        (Printf.sprintf
           "                \"artifactLocation\": {\"uri\": \"%s\"},\n"
           (escape f.file));
      add
        (Printf.sprintf
           "                \"region\": {\"startLine\": %d, \"startColumn\": \
            %d}\n"
           f.line (max 1 (f.col + 1)));
      add "              }\n            }\n          ]\n";
      add (Printf.sprintf "        }%s\n" (if i = n - 1 then "" else ","));
      ())
    findings;
  add "      ]\n    }\n  ]\n}\n";
  Buffer.contents buf

let write_file path findings =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string findings))
