(* Findings, allowlists and waivers: the shared reporting engine of the
   static analysis (DESIGN.md §16).

   Every rule (the checks in [Idiom]) reports through this module, so
   exemption handling, rendering (plain / GitHub annotations / SARIF)
   and the exit-status decision live in exactly one place. *)

type t = {
  rule : string;  (** kebab-case rule id, e.g. ["obj-magic"] *)
  file : string;
  line : int;
  col : int;
  msg : string;
}

let v ~rule ~file ~loc msg =
  let p = loc.Location.loc_start in
  {
    rule;
    file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    msg;
  }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let to_string f = Printf.sprintf "%s:%d: [%s] %s" f.file f.line f.rule f.msg

let to_github f =
  Printf.sprintf "::error file=%s,line=%d::[%s] %s" f.file f.line f.rule f.msg

(* ------------------------------------------------------------------ *)
(* Path normalization (shared by the allowlist and the walkers): a file
   must have exactly one spelling, whatever mix of "./", "//" and
   trailing separators the caller used. *)

let normalize_path p =
  let p = String.trim p in
  let n = String.length p in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    let c = p.[!i] in
    if c = '/' then begin
      (* Collapse runs of '/' into one; keep a leading '/' (the path may
         be absolute, e.g. a temp dir in the tests). *)
      if Buffer.length buf = 0 then begin
        if !i = 0 then Buffer.add_char buf '/'
      end
      else if Buffer.nth buf (Buffer.length buf - 1) <> '/' then
        Buffer.add_char buf '/';
      incr i
    end
    else if
      c = '.'
      && !i + 1 < n
      && p.[!i + 1] = '/'
      && (Buffer.length buf = 0
         || Buffer.nth buf (Buffer.length buf - 1) = '/')
    then (* Drop "./" segments. *)
      i := !i + 2
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  let s = Buffer.contents buf in
  (* Strip a trailing separator ("lib/ds/" and "lib/ds" are one path). *)
  let l = String.length s in
  if l > 1 && s.[l - 1] = '/' then String.sub s 0 (l - 1) else s

(* ------------------------------------------------------------------ *)
(* Allowlist: "rule:path" lines, '#' comments.  Paths are compared
   normalized, so one file cannot hide under two spellings — a second
   spelling of an existing entry is reported as a warning and dropped. *)

module Allowlist = struct
  type entry = { raw : string; mutable used : bool }
  type nonrec t = (string * string, entry) Hashtbl.t

  let empty () : t = Hashtbl.create 16

  let load file =
    let tbl : t = Hashtbl.create 64 in
    let warnings = ref [] in
    let ic = open_in file in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let lineno = ref 0 in
    (try
       while true do
         let line = String.trim (input_line ic) in
         incr lineno;
         if line <> "" && line.[0] <> '#' then
           match String.index_opt line ':' with
           | Some i ->
               let rule = String.trim (String.sub line 0 i) in
               let raw =
                 String.trim
                   (String.sub line (i + 1) (String.length line - i - 1))
               in
               let path = normalize_path raw in
               (match Hashtbl.find_opt tbl (rule, path) with
               | Some prior ->
                   warnings :=
                     Printf.sprintf
                       "%s:%d: duplicate allowlist entry %s:%s (already \
                        listed as %s:%s)"
                       file !lineno rule raw rule prior.raw
                     :: !warnings
               | None -> Hashtbl.replace tbl (rule, path) { raw; used = false })
           | None ->
               warnings :=
                 Printf.sprintf "%s:%d: bad allowlist line: %s" file !lineno
                   line
                 :: !warnings
       done
     with End_of_file -> ());
    (tbl, List.rev !warnings)

  let mem tbl ~rule ~file =
    match Hashtbl.find_opt tbl (rule, normalize_path file) with
    | Some e ->
        e.used <- true;
        true
    | None -> false
end

(* ------------------------------------------------------------------ *)
(* In-source waivers: [@nbr.allow rule-id] on an expression (or
   [@@nbr.allow rule-id] on a binding) suppresses findings of that rule
   anchored inside the attributed range.  For deliberate protocol
   departures, where a whole-file allowlist entry would mask real
   bugs. *)

module Waivers = struct
  type span = {
    w_rule : string;
    w_file : string;
    w_start : int;  (** first waived line *)
    w_stop : int;  (** last waived line *)
  }

  type nonrec t = span list ref

  let create () : t = ref []

  (* Accept both [@nbr.allow "pool-raw-index"] and the unquoted
     [@nbr.allow pool-raw-index] — the latter parses as the application
     of (-) to identifiers, which we render back to kebab-case. *)
  let rule_of_payload (p : Parsetree.payload) =
    let buf = Buffer.create 16 in
    let rec render (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_constant (Pconst_string (s, _, _)) -> Buffer.add_string buf s
      | Pexp_ident { txt = Longident.Lident s; _ } -> Buffer.add_string buf s
      | Pexp_apply
          ( { pexp_desc = Pexp_ident { txt = Longident.Lident "-"; _ }; _ },
            [ (_, a); (_, b) ] ) ->
          render a;
          Buffer.add_char buf '-';
          render b
      | Pexp_apply (f, args) ->
          render f;
          List.iter
            (fun ((_, a) : Asttypes.arg_label * Parsetree.expression) ->
              Buffer.add_char buf '-';
              render a)
            args
      | _ -> ()
    in
    (match p with
    | Parsetree.PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> render e
    | _ -> ());
    if Buffer.length buf = 0 then None else Some (Buffer.contents buf)

  let note t ~file ~(loc : Location.t) (attr : Parsetree.attribute) =
    if attr.Parsetree.attr_name.Location.txt = "nbr.allow" then
      match rule_of_payload attr.Parsetree.attr_payload with
      | Some w_rule ->
          t :=
            {
              w_rule;
              w_file = file;
              w_start = loc.Location.loc_start.Lexing.pos_lnum;
              w_stop = loc.Location.loc_end.Lexing.pos_lnum;
            }
            :: !t
      | None -> ()

  let waived t ~rule ~file ~line =
    List.exists
      (fun w ->
        w.w_rule = rule && w.w_file = file && line >= w.w_start
        && line <= w.w_stop)
      !t

  let collect t ~file (ast : Parsetree.structure) =
    let open Ast_iterator in
    let expr it (e : Parsetree.expression) =
      List.iter (note t ~file ~loc:e.pexp_loc) e.pexp_attributes;
      default_iterator.expr it e
    in
    let value_binding it (vb : Parsetree.value_binding) =
      List.iter (note t ~file ~loc:vb.pvb_loc) vb.pvb_attributes;
      default_iterator.value_binding it vb
    in
    let it = { default_iterator with expr; value_binding } in
    it.structure it ast
end
