(* Per-function effect summaries: the interprocedural substrate of the
   R2 scheme checks (DESIGN.md §16).

   Every function in the analyzed file set gets its [closure]: the
   transitive union of the protocol effects its body may run (does
   [read_ptr]'s implementation validate liveness?  does [phase] install
   a checkpoint?).  Effects come from a curated table of protocol
   builtins (Pool / Rt / Atomic), keyed by a canonicalized module name;
   local aliases ([module P = Nbr_pool.Pool.Make (Rt)]) and functor
   parameters are resolved to those tables, other analyzed files are
   resolved to their computed summaries, and everything else is benign.
   Thread-local mutation (refs, record fields, arrays) is benign by
   codebase convention: shared state only lives behind Rt cells,
   Atomics and the pool. *)

(* ------------------------------------------------------------------ *)
(* Effect bits *)

let shared_write = 1 (* Atomic.set / CAS / Rt stores / pool mutation *)
let poll = 2 (* neutralization poll *)
let checkpoint = 4
let validate = 8 (* slot liveness / stamp validation *)

type entry = { closure : int; ent_loc : Location.t }

(* ------------------------------------------------------------------ *)
(* Builtin effect tables, keyed by canonical module name. *)

let pool_table = function
  | "set_data" | "set_ptr" | "raw_cas_ptr" | "flush_thread"
  | "set_watermarks" | "set_generation_check" | "free" | "lock" | "unlock"
  | "try_lock" ->
      shared_write
  | "live" | "stamp" -> validate
  | _ -> 0

let rt_table = function
  | "store" | "cas" | "faa" | "xchg" | "store_at" | "cas_at" | "faa_at"
  | "xchg_at" | "send_signal" | "set_restartable_t" | "drain_signals_t" ->
      shared_write
  | "poll_t" | "consume_pending_t" -> poll
  | "checkpoint" -> checkpoint
  | _ -> 0

let atomic_table = function
  | "set" | "exchange" | "compare_and_set" | "fetch_and_add" | "incr" | "decr"
    ->
      shared_write
  | _ -> 0

let builtin_bits canon name =
  match canon with
  | "Pool" -> pool_table name
  | "Rt" -> rt_table name
  | "Atomic" -> atomic_table name
  | _ -> 0

(* Instrumentation modules whose computed summaries must not leak
   effects into their callers': counters and trace rings are benign by
   design even where they CAS. *)
let benign_modules = [ "Smr_stats"; "Trace"; "Smr_config" ]

(* Canonical name for the last segment of a module path (after
   dropping functor applications). *)
let canon_of_segment = function
  | "Pool" -> Some "Pool"
  | "Runtime_intf" | "Sim_rt" | "Native_rt" -> Some "Rt"
  | "Atomic" -> Some "Atomic"
  | _ -> None

(* Fallback for module names we cannot resolve structurally: bind by
   conventional name. *)
let canon_by_convention = function
  | "Rt" -> Some "Rt"
  | "P" -> Some "Pool"
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Resolution environment *)

type target =
  | Builtin of string  (** canonical builtin-table name *)
  | File of string  (** module name of another analyzed file *)
  | Benign

type info = {
  path : string;
  modname : string;
  structure : Parsetree.structure;
  locals : (string, target) Hashtbl.t;
      (** module aliases + functor params; supports shadowing *)
  fns : (string, entry) Hashtbl.t;
      (** flat table of every binding in the file, incl. local lets *)
  mutable includes : string list;
  mutable scheme : string option;  (** [scheme_name] literal, if any *)
}

type t = { infos : info list; by_mod : (string, info) Hashtbl.t }

let flatten_longident l = Longident.flatten l

(* Innermost module path of a module expression: peels functors,
   applications, constraints. *)
let rec mod_path (m : Parsetree.module_expr) =
  match m.pmod_desc with
  | Pmod_ident { txt; _ } -> Some (flatten_longident txt)
  | Pmod_apply (f, _) -> mod_path f
  | Pmod_constraint (m, _) -> mod_path m
  | _ -> None

let drop_makes segs =
  List.filter (fun s -> s <> "Make" && s <> "Make2") segs

let is_benign_mod m = List.mem m benign_modules

(* Resolve a module-path's last meaningful segment to a target. *)
let target_of_segments (t : t) ?(local : (string, target) Hashtbl.t option)
    segs =
  match List.rev (drop_makes segs) with
  | [] -> Benign
  | last :: _ -> (
      let local_hit =
        match local with
        | Some tbl -> Hashtbl.find_opt tbl last
        | None -> None
      in
      match local_hit with
      | Some tgt -> tgt
      | None -> (
          match canon_of_segment last with
          | Some c -> Builtin c
          | None ->
              if is_benign_mod last then Benign
              else if Hashtbl.mem t.by_mod last then File last
              else
                (match canon_by_convention last with
                | Some c -> Builtin c
                | None -> Benign)))

(* Target for a functor-parameter signature path: drop the trailing
   signature name ("S", "S_gen", ...) then canonicalize. *)
let target_of_sigpath (t : t) segs =
  match List.rev segs with
  | _sig :: rest -> target_of_segments t (List.rev rest)
  | [] -> Benign

let rec target_of_modtype (t : t) (mty : Parsetree.module_type) =
  match mty.pmty_desc with
  | Pmty_ident { txt; _ } -> target_of_sigpath t (flatten_longident txt)
  | Pmty_with (m, _) -> target_of_modtype t m
  | _ -> Benign

(* ------------------------------------------------------------------ *)
(* Call resolution *)

let lookup_fn (t : t) (info : info) name =
  match Hashtbl.find_opt info.fns name with
  | Some e -> Some e
  | None ->
      List.find_map
        (fun m ->
          match Hashtbl.find_opt t.by_mod m with
          | Some i -> Hashtbl.find_opt i.fns name
          | None -> None)
        info.includes

(* The closure of the function an identifier names: a builtin's bits,
   an analyzed function's summary, or nothing. *)
let ident_effect (t : t) (info : info) (lid : Longident.t) =
  let closure = function Some e -> e.closure | None -> 0 in
  match List.rev (flatten_longident lid) with
  | [] -> 0
  | [ name ] -> closure (lookup_fn t info name)
  | name :: rev_mods -> (
      match target_of_segments t ~local:info.locals (List.rev rev_mods) with
      | Builtin c -> builtin_bits c name
      | File m ->
          closure
            (Option.bind (Hashtbl.find_opt t.by_mod m) (fun i ->
                 Hashtbl.find_opt i.fns name))
      | Benign -> 0)

(* ------------------------------------------------------------------ *)
(* Walking: the closure of an expression. *)

let rec is_function (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> is_function e
  | _ -> false

(* Peel the parameter chain off a function literal, returning the body
   (the [Pexp_function] case-list form keeps its cases as "body"
   handled by the effect walker). *)
let rec peel_fun (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> peel_fun body
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) -> peel_fun e
  | _ -> e

(* Structure-level [module Smr = Nbr_core.Nbr_plus.Make (Sim)]: resolve
   structurally, then fall back to the bound-name convention — scheme
   functors are not in the canonical-segment table, but a module *named*
   Rt/P is filling the codebase's conventional role. *)
let str_module_target t info ~name segs =
  match target_of_segments t ~local:info.locals segs with
  | Benign -> (
      match canon_by_convention name with
      | Some c -> Builtin c
      | None -> Benign)
  | tgt -> tgt

let rec effects_of (t : t) (info : info) (e : Parsetree.expression) : int =
  let open Parsetree in
  let seq es = List.fold_left (fun acc x -> acc lor effects_of t info x) 0 es in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
      (* Eta-reduced aliases ([let read_ptr = B.read_ptr]) and callbacks
         passed by name carry the referent's effects. *)
      ident_effect t info txt
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
      ident_effect t info txt lor seq (List.map snd args)
  | Pexp_apply (f, args) -> seq (f :: List.map snd args)
  | Pexp_fun (_, default, _, body) ->
      let d = match default with Some d -> effects_of t info d | None -> 0 in
      d lor effects_of t info body
  | Pexp_function cases -> cases_effects t info cases
  | Pexp_let (_, vbs, body) ->
      let acc =
        List.fold_left
          (fun acc vb ->
            if is_function vb.pvb_expr then begin
              (* Local function: summarized under its own name, effects
                 observed at its call sites. *)
              record_binding t info vb;
              acc
            end
            else acc lor effects_of t info vb.pvb_expr)
          0 vbs
      in
      acc lor effects_of t info body
  | Pexp_sequence (a, b) | Pexp_while (a, b) | Pexp_setfield (a, _, b) ->
      (* Record-field mutation is thread-local by codebase convention. *)
      effects_of t info a lor effects_of t info b
  | Pexp_ifthenelse (c, th, el) ->
      effects_of t info c lor effects_of t info th
      lor (match el with Some e -> effects_of t info e | None -> 0)
  | Pexp_match (s, cases) | Pexp_try (s, cases) ->
      effects_of t info s lor cases_effects t info cases
  | Pexp_for (_, a, b, _, body) -> seq [ a; b; body ]
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> effects_of t info a
  | Pexp_tuple es | Pexp_array es -> seq es
  | Pexp_record (fields, base) ->
      (match base with Some b -> effects_of t info b | None -> 0)
      lor seq (List.map snd fields)
  | Pexp_field (a, _)
  | Pexp_constraint (a, _) | Pexp_coerce (a, _, _) | Pexp_newtype (_, a)
  | Pexp_open (_, a) | Pexp_lazy a | Pexp_assert a | Pexp_letexception (_, a)
    ->
      effects_of t info a
  | _ -> 0

and cases_effects t info cases =
  List.fold_left
    (fun acc (c : Parsetree.case) ->
      acc
      lor (match c.pc_guard with Some g -> effects_of t info g | None -> 0)
      lor effects_of t info c.pc_rhs)
    0 cases

and record_binding t info (vb : Parsetree.value_binding) =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt = name; _ }
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt = name; _ }; _ }, _) ->
      let closure = effects_of t info (peel_fun vb.pvb_expr) in
      Hashtbl.replace info.fns name { closure; ent_loc = vb.pvb_loc }
  | _ -> ()

and walk_module_bindings t info (m : Parsetree.module_expr) =
  match m.pmod_desc with
  | Pmod_structure items -> walk_structure t info items
  | Pmod_functor (param, body) ->
      (match param with
      | Named ({ txt = Some name; _ }, mty) ->
          Hashtbl.add info.locals name (target_of_modtype t mty)
      | _ -> ());
      walk_module_bindings t info body
  | Pmod_constraint (m, _) -> walk_module_bindings t info m
  | _ -> ()

and walk_structure t info (items : Parsetree.structure) =
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              (match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt = "scheme_name"; _ } -> (
                  match (peel_fun vb.pvb_expr).pexp_desc with
                  | Pexp_constant (Pconst_string (s, _, _)) ->
                      info.scheme <- Some s
                  | _ -> ())
              | _ -> ());
              record_binding t info vb;
              if not (is_function vb.pvb_expr) then
                ignore (effects_of t info vb.pvb_expr))
            vbs
      | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
          (match mod_path pmb_expr with
          | Some segs ->
              Hashtbl.replace info.locals name
                (str_module_target t info ~name segs)
          | None -> ());
          match pmb_expr.pmod_desc with
          | Pmod_structure _ | Pmod_functor _ | Pmod_constraint _ ->
              walk_module_bindings t info pmb_expr
          | _ -> ())
      | Pstr_include { pincl_mod; _ } -> (
          match mod_path pincl_mod with
          | Some segs -> (
              match target_of_segments t ~local:info.locals segs with
              | File m ->
                  if not (List.mem m info.includes) then
                    info.includes <- m :: info.includes
              | _ -> ())
          | None -> ())
      | _ -> ())
    items

(* ------------------------------------------------------------------ *)
(* Whole-set analysis: iterate until the cross-file summaries are
   stable (bounded — effects only grow). *)

let modname_of_path p =
  Filename.basename p |> Filename.remove_extension |> String.capitalize_ascii

let build (files : (string * Parsetree.structure) list) : t =
  let infos =
    List.map
      (fun (path, structure) ->
        {
          path;
          modname = modname_of_path path;
          structure;
          locals = Hashtbl.create 16;
          fns = Hashtbl.create 64;
          includes = [];
          scheme = None;
        })
      files
  in
  let by_mod = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace by_mod i.modname i) infos;
  let t = { infos; by_mod } in
  let snapshot () =
    List.map
      (fun i ->
        Hashtbl.fold (fun k e acc -> (k, e.closure) :: acc) i.fns [])
      infos
  in
  let prev = ref [] in
  let pass = ref 0 in
  let continue_ = ref true in
  while !continue_ && !pass < 5 do
    incr pass;
    List.iter
      (fun i ->
        Hashtbl.reset i.locals;
        i.includes <- [];
        walk_structure t i i.structure)
      infos;
    let s = snapshot () in
    if s = !prev then continue_ := false else prev := s
  done;
  t
