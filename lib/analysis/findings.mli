(** Findings, allowlists and in-source waivers — the shared reporting
    engine behind every rule of the static analysis (DESIGN.md §16). *)

type t = {
  rule : string;  (** kebab-case rule id, e.g. ["obj-magic"] *)
  file : string;
  line : int;
  col : int;
  msg : string;
}

val v : rule:string -> file:string -> loc:Location.t -> string -> t
val compare : t -> t -> int

val to_string : t -> string
(** ["file:line: [rule] msg"] — the format asserted byte-for-byte by
    the fixture tests. *)

val to_github : t -> string
(** GitHub Actions [::error] annotation line. *)

val normalize_path : string -> string
(** Canonical spelling of a repo-relative path: drops ["./"] segments,
    collapses ["//"], strips trailing separators. *)

module Allowlist : sig
  type t

  val empty : unit -> t

  val load : string -> t * string list
  (** Parse a ["rule:path"]-per-line allowlist file.  Returns the table
      plus warnings for malformed lines and for entries that collapse to
      a duplicate after path normalization. *)

  val mem : t -> rule:string -> file:string -> bool
  (** Membership under path normalization; marks the entry as used. *)
end

module Waivers : sig
  (** [@nbr.allow rule-id] / [@@nbr.allow rule-id] spans in a file:
      findings of [rule-id] anchored inside the attributed source range
      are suppressed.  For a deliberate departure at one site, where a
      whole-file allowlist entry would mask real bugs. *)

  type t

  val create : unit -> t

  val collect : t -> file:string -> Parsetree.structure -> unit
  (** Record the waivers on every expression and binding of [file]. *)

  val waived : t -> rule:string -> file:string -> line:int -> bool
end
