(** Analysis driver: file walking, parsing, rule dispatch and exemption
    filtering (DESIGN.md §16).  [bin/nbr_lint.ml]
    is a thin shell over {!main}; tests call {!analyze_files} on fixture
    sets directly. *)

type result = {
  findings : Findings.t list;  (** surviving findings, sorted *)
  suppressed : int;  (** dropped by allowlist or in-source waiver *)
  warnings : string list;  (** allowlist diagnostics *)
}

val analyze_files :
  ?allowlist:Findings.Allowlist.t ->
  ?allowlist_warnings:string list ->
  ?check_mli:bool ->
  string list ->
  result
(** Analyze an explicit set of [.ml] files.  [check_mli] defaults to
    true; fixture suites pass [false]. *)

val analyze_dirs :
  ?allowlist:Findings.Allowlist.t ->
  ?allowlist_warnings:string list ->
  ?check_mli:bool ->
  string list ->
  result

val ml_files_of_dirs : string list -> string list

val main : unit -> int
(** The nbr_lint CLI: parses [--github] / [--allowlist] / [--sarif] and
    directory operands, prints findings, returns the exit status. *)
