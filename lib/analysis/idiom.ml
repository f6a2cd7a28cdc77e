(* Concurrency-idiom rules (DESIGN.md §11), ported onto the shared
   findings engine so they report, allowlist and emit SARIF exactly
   like the R2 scheme rule:

   - [atomic-make]    lib/core and lib/ds must not call [Atomic.make]
                      directly: shared cells go through the runtime
                      ([Rt.make] / [Rt.make_padded]) or [Padded].
   - [domain-dls]     [Domain.DLS] is a runtime-layer concern.
   - [obj-magic]      no [Obj.magic] anywhere in lib/.
   - [pool-raw-index] outside lib/pool, no unchecked field access
                      ([raw_load_ptr] / [raw_cas_ptr]).
   - [missing-mli]    every library module carries an interface, or is
                      explicitly grandfathered in the allowlist.
   - [parse]          the file must parse. *)

let path_has_prefix ~prefix file =
  let file = Findings.normalize_path file in
  let n = String.length prefix in
  String.length file >= n && String.sub file 0 n = prefix

let in_core_or_ds file =
  path_has_prefix ~prefix:"lib/core/" file
  || path_has_prefix ~prefix:"lib/ds/" file

let in_runtime file = path_has_prefix ~prefix:"lib/runtime/" file

let check_ident ~file (lid : Longident.t Location.loc) : Findings.t option =
  let loc = lid.Location.loc in
  let v rule msg = Some (Findings.v ~rule ~file ~loc msg) in
  match Longident.flatten lid.Location.txt with
  | "Obj" :: "magic" :: _ ->
      v "obj-magic" "Obj.magic defeats the type system; find another way"
  | "Atomic" :: "make" :: _ when in_core_or_ds file ->
      v "atomic-make"
        "bare Atomic.make in scheme/structure code: shared cells must go \
         through Rt.make / Rt.make_padded (or Nbr_sync.Padded) so the \
         simulator costs them and hot cells get cache-line isolation"
  | "Domain" :: "DLS" :: _ when not (in_runtime file) ->
      v "domain-dls"
        "Domain.DLS outside lib/runtime: thread identity is a runtime \
         concern (use the tid-threaded _t interfaces)"
  | l
    when (match List.rev l with
         | ("raw_load_ptr" | "raw_cas_ptr") :: _ -> true
         | _ -> false)
         && not (path_has_prefix ~prefix:"lib/pool/" file) ->
      v "pool-raw-index"
        "raw cell addressing bypasses generation validation: go through \
         the scheme's validated accessors (read_data / read_ptr / \
         peek_ptr), or grandfather a deliberate use in the allowlist"
  | _ -> None

let check_structure ~file (ast : Parsetree.structure) : Findings.t list =
  let fs = ref [] in
  let note = function Some f -> fs := f :: !fs | None -> () in
  let open Ast_iterator in
  let expr it e =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident lid -> note (check_ident ~file lid)
    | _ -> ());
    default_iterator.expr it e
  in
  let module_expr it m =
    (match m.Parsetree.pmod_desc with
    | Parsetree.Pmod_ident lid -> note (check_ident ~file lid)
    | _ -> ());
    default_iterator.module_expr it m
  in
  let open_description it (o : Parsetree.open_description) =
    note (check_ident ~file o.Parsetree.popen_expr);
    default_iterator.open_description it o
  in
  let it = { default_iterator with expr; module_expr; open_description } in
  it.structure it ast;
  List.rev !fs

let line1 file =
  let pos = { Lexing.pos_fname = file; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 } in
  { Location.loc_start = pos; loc_end = pos; loc_ghost = false }

let check_mli ~file : Findings.t option =
  if path_has_prefix ~prefix:"lib/" file && not (Sys.file_exists (file ^ "i"))
  then
    Some
      (Findings.v ~rule:"missing-mli" ~file ~loc:(line1 file)
         "library module without an interface (add a .mli, or grandfather it \
          in the allowlist)")
  else None

let parse_failure ~file exn : Findings.t =
  Findings.v ~rule:"parse" ~file ~loc:(line1 file)
    (Printf.sprintf "failed to parse: %s" (Printexc.to_string exn))
