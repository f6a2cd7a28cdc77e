(** Concurrency-idiom rules (atomic-make, domain-dls, obj-magic,
    pool-raw-index, missing-mli, parse) ported onto the shared findings
    engine (DESIGN.md §11, §16). *)

val check_structure : file:string -> Parsetree.structure -> Findings.t list
val check_mli : file:string -> Findings.t option
val parse_failure : file:string -> exn -> Findings.t
