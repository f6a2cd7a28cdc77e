(* Per-function effect summaries: the interprocedural substrate of the
   R1, R2 and R4 rules (DESIGN.md §16).

   Every function in the analyzed file set gets two effect bitmasks:

   - [exposed] — the effects a *caller* observes.  Effects that run
     inside a phase-combinator lambda ([Smr.phase ~read ~write],
     [Smr.read_only], [Rt.checkpoint]) are masked out, because the
     combinator establishes the guard internally: calling a complete
     operation from plain code is effect-free from the protocol's point
     of view.  So are the effects of a read lambda in a [reader] or
     [viewer] record literal, wherever the record is written: the phase
     it is handed to runs it.
   - [closure] — the unmasked transitive union, used by the R2 scheme
     checks (does [read_ptr]'s implementation validate liveness? does
     [phase] install a checkpoint?).

   Effects come from a curated table of protocol builtins (Smr / Pool /
   Rt / Atomic), keyed by a canonicalized module name; local
   aliases ([module P = Nbr_pool.Pool.Make (Rt)]) and functor
   parameters ([(Smr : Nbr_core.Smr_intf.S with ...)]) are resolved to
   those tables, other analyzed files are resolved to their computed
   summaries, and everything else is benign.  Thread-local mutation
   (refs, record fields, arrays) is benign by codebase convention:
   shared state only lives behind Rt cells, Atomics and the pool. *)

(* ------------------------------------------------------------------ *)
(* Effect bits *)

let shared_write = 1 (* Atomic.set / CAS / Rt stores / pool mutation *)
let lock = 2
let alloc = 4
let retire = 8
let free = 16
let plain = 64 (* plain read of a shared cell: Rt.load / P.get_data *)
let poll = 128 (* neutralization poll *)
let begins = 256
let ends = 512
let phase = 1024 (* enters a read/write phase *)
let checkpoint = 2048
let validate = 4096 (* slot liveness / stamp validation *)

let impure = shared_write lor lock lor alloc lor retire lor free

let pp_bits b =
  let names =
    [
      (shared_write, "shared-write");
      (lock, "lock");
      (alloc, "alloc");
      (retire, "retire");
      (free, "free");
      (plain, "plain-deref");
      (poll, "poll");
      (begins, "begin_op");
      (ends, "end_op");
      (phase, "phase");
      (checkpoint, "checkpoint");
      (validate, "validate");
    ]
  in
  List.filter_map (fun (bit, n) -> if b land bit <> 0 then Some n else None) names
  |> String.concat "+"

type entry = { exposed : int; closure : int; ent_loc : Location.t }

(* ------------------------------------------------------------------ *)
(* Builtin effect tables, keyed by canonical module name. *)

let smr_table = function
  | "op" -> begins lor ends
  | "abandon" -> begins
  | "phase" | "read_only" -> phase
  | "alloc" -> alloc
  | "retire" -> retire
  | "on_pressure" | "collect_handoffs" | "adopt_orphans"
  | "register" | "deregister" | "set_offload" | "create" ->
      shared_write
  | _ -> 0

let pool_table = function
  | "get_data" | "get_ptr" | "raw_load_ptr" -> plain
  | "set_data" | "set_ptr" | "raw_cas_ptr" | "flush_thread"
  | "set_watermarks" | "set_generation_check" ->
      shared_write
  | "free" -> free lor shared_write
  | "alloc" -> alloc
  | "live" | "stamp" -> validate
  | "lock" | "unlock" | "try_lock" -> lock lor shared_write
  | "is_locked" -> plain
  | _ -> 0

let rt_table = function
  | "load" | "plain_load" | "load_at" | "plain_load_at" -> plain
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
  | "Smr" -> Some (smr_table name)
  | "Pool" -> Some (pool_table name)
  | "Rt" -> Some (rt_table name)
  | "Atomic" -> Some (atomic_table name)
  | _ -> None

(* Instrumentation modules whose computed summaries must not leak
   effects into client code: counters and trace rings are benign by
   design even where they CAS. *)
let benign_modules = [ "Smr_stats"; "Trace"; "Smr_config" ]

(* Canonical name for the last segment of a module path (after
   dropping functor applications). *)
let canon_of_segment = function
  | "Pool" -> Some "Pool"
  | "Runtime_intf" | "Sim_rt" | "Native_rt" -> Some "Rt"
  | "Smr_intf" -> Some "Smr"
  | "Atomic" -> Some "Atomic"
  | _ -> None

(* Fallback for module names we cannot resolve structurally, e.g.
   [let module Smr = S.Make (Rt)] where [S] is a first-class scheme
   module from the registry: bind by conventional name. *)
let canon_by_convention = function
  | "Smr" -> Some "Smr"
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
  mutable verb_defs : string list;
      (** protocol verbs the file defines (identifies SMR impls) *)
}

type t = { infos : info list; by_mod : (string, info) Hashtbl.t }

let protocol_verbs =
  [ "begin_op"; "end_op"; "phase"; "read_only"; "read_ptr"; "read_data";
    "alloc"; "retire" ]

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

let target_of_modexpr (t : t) (info : info) (m : Parsetree.module_expr) =
  match mod_path m with
  | Some segs -> target_of_segments t ~local:info.locals segs
  | None -> Benign

(* ------------------------------------------------------------------ *)
(* Call resolution *)

type resolution =
  | R_bits of int  (** builtin / benign: exposed = closure *)
  | R_entry of entry  (** a summarized function *)

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

let resolve_ident (t : t) (info : info) (lid : Longident.t) : resolution =
  let segs = flatten_longident lid in
  match List.rev segs with
  | [] -> R_bits 0
  | name :: rev_mods -> (
      let mods = List.rev rev_mods in
      if mods = [] then
        match lookup_fn t info name with
        | Some e -> R_entry e
        | None -> R_bits 0
      else
        match target_of_segments t ~local:info.locals mods with
        | Builtin c -> (
            match builtin_bits c name with
            | Some b -> R_bits b
            | None -> R_bits 0)
        | File m -> (
            match Hashtbl.find_opt t.by_mod m with
            | Some i -> (
                match Hashtbl.find_opt i.fns name with
                | Some e -> R_entry e
                | None -> R_bits 0)
            | None -> R_bits 0)
        | Benign -> R_bits 0)

(* Effects a call site observes (exposed, closure). *)
let call_effect (t : t) (info : info) (e : Parsetree.expression) :
    (int * int) option =
  match e.Parsetree.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match resolve_ident t info txt with
      | R_bits b -> Some (b, b)
      | R_entry en -> Some (en.exposed, en.closure))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Walking: compute (exposed, closure) of an expression. *)

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

(* The lambda of a [reader]/[viewer] record literal ([{ read = f }] or
   [{ view = f }], the field qualified or not): a read phase's body,
   wherever the record is written. *)
let read_lambda (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_record ([ ({ txt; _ }, f) ], None) when is_function f -> (
      match Longident.last txt with "read" | "view" -> Some f | _ -> None)
  | _ -> None

(* Structure-level [module Smr = Nbr_core.Nbr_plus.Make (Sim)]: resolve
   structurally, then fall back to the bound-name convention — scheme
   functors are not in the canonical-segment table, but a module *named*
   Smr/Rt/P is filling the codebase's conventional role. *)
let str_module_target t info ~name segs =
  match target_of_segments t ~local:info.locals segs with
  | Benign -> (
      match canon_by_convention name with
      | Some c -> Builtin c
      | None -> Benign)
  | tgt -> tgt

let rec effects_of (t : t) (info : info) (e : Parsetree.expression) : int * int
    =
  let open Parsetree in
  let join (a, b) (c, d) = (a lor c, b lor d) in
  let seq es = List.fold_left (fun acc x -> join acc (effects_of t info x)) (0, 0) es in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      (* Eta-reduced aliases ([let read_ptr = B.read_ptr]) and callbacks
         passed by name carry the referent's effects. *)
      match resolve_ident t info txt with
      | R_entry en -> (en.exposed, en.closure)
      | R_bits b -> (b, b))
  | Pexp_apply (({ pexp_desc = Pexp_ident _; _ } as _f), args) -> (
      match call_effect t info e with
      | Some (ce, cc) ->
          let mask_lambdas = ce land (phase lor checkpoint) <> 0 in
          List.fold_left
            (fun acc (_, a) ->
              let ae, ac = effects_of t info a in
              let ae = if mask_lambdas && is_function a then 0 else ae in
              join acc (ae, ac))
            (ce, cc) args
      | None -> seq (List.map snd args))
  | Pexp_apply (f, args) -> seq (f :: List.map snd args)
  | Pexp_fun (_, default, _, body) ->
      let d = match default with Some d -> effects_of t info d | None -> (0, 0) in
      join d (effects_of t info body)
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
            else join acc (effects_of t info vb.pvb_expr))
          (0, 0) vbs
      in
      join acc (effects_of t info body)
  | Pexp_letmodule ({ txt = Some name; _ }, mexpr, body) ->
      let tgt = target_of_modexpr t info mexpr in
      let tgt =
        match tgt with
        | Benign -> (
            match canon_by_convention name with
            | Some c -> Builtin c
            | None -> Benign)
        | _ -> tgt
      in
      Hashtbl.add info.locals name tgt;
      walk_module_bindings t info mexpr;
      let r = effects_of t info body in
      Hashtbl.remove info.locals name;
      r
  | Pexp_letmodule ({ txt = None; _ }, mexpr, body) ->
      walk_module_bindings t info mexpr;
      effects_of t info body
  | Pexp_sequence (a, b) -> join (effects_of t info a) (effects_of t info b)
  | Pexp_ifthenelse (c, th, el) ->
      let acc = join (effects_of t info c) (effects_of t info th) in
      (match el with Some e -> join acc (effects_of t info e) | None -> acc)
  | Pexp_match (s, cases) | Pexp_try (s, cases) ->
      join (effects_of t info s) (cases_effects t info cases)
  | Pexp_while (c, b) -> join (effects_of t info c) (effects_of t info b)
  | Pexp_for (_, a, b, _, body) ->
      join (join (effects_of t info a) (effects_of t info b))
        (effects_of t info body)
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> effects_of t info a
  | Pexp_tuple es | Pexp_array es -> seq es
  | Pexp_record (fields, base) -> (
      match read_lambda e with
      | Some f -> (0, snd (effects_of t info f))
      | None ->
          let acc =
            match base with Some b -> effects_of t info b | None -> (0, 0)
          in
          List.fold_left
            (fun acc (_, x) -> join acc (effects_of t info x))
            acc fields)
  | Pexp_field (a, _) -> effects_of t info a
  | Pexp_setfield (a, _, b) ->
      (* Record-field mutation is thread-local by codebase convention. *)
      join (effects_of t info a) (effects_of t info b)
  | Pexp_constraint (a, _) | Pexp_coerce (a, _, _) | Pexp_newtype (_, a)
  | Pexp_open (_, a) | Pexp_lazy a | Pexp_assert a | Pexp_letexception (_, a)
    ->
      effects_of t info a
  | _ -> (0, 0)

and cases_effects t info cases =
  List.fold_left
    (fun acc (c : Parsetree.case) ->
      let acc =
        match c.pc_guard with
        | Some g ->
            let a, b = effects_of t info g in
            (fst acc lor a, snd acc lor b)
        | None -> acc
      in
      let a, b = effects_of t info c.pc_rhs in
      (fst acc lor a, snd acc lor b))
    (0, 0) cases

and record_binding t info (vb : Parsetree.value_binding) =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt = name; _ }
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt = name; _ }; _ }, _) ->
      let body = peel_fun vb.pvb_expr in
      let exposed, closure = effects_of t info body in
      Hashtbl.replace info.fns name { exposed; closure; ent_loc = vb.pvb_loc }
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
              (* Track scheme_name and protocol-verb definitions for
                 file classification. *)
              (match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt = name; _ } ->
                  (if name = "scheme_name" then
                     match (peel_fun vb.pvb_expr).pexp_desc with
                     | Pexp_constant (Pconst_string (s, _, _)) ->
                         info.scheme <- Some s
                     | _ -> ());
                  if
                    List.mem name protocol_verbs
                    && not (List.mem name info.verb_defs)
                  then info.verb_defs <- name :: info.verb_defs
              | _ -> ());
              if is_function vb.pvb_expr then record_binding t info vb
              else begin
                record_binding t info vb;
                ignore (effects_of t info vb.pvb_expr)
              end)
            vbs
      | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
          match pmb_expr.pmod_desc with
          | Pmod_structure _ | Pmod_functor _ | Pmod_constraint _ ->
              (match mod_path pmb_expr with
              | Some segs ->
                  Hashtbl.replace info.locals name
                    (str_module_target t info ~name segs)
              | None -> ());
              walk_module_bindings t info pmb_expr
          | _ -> (
              match mod_path pmb_expr with
              | Some segs ->
                  Hashtbl.replace info.locals name
                    (str_module_target t info ~name segs)
              | None -> ()))
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
          verb_defs = [];
        })
      files
  in
  let by_mod = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace by_mod i.modname i) infos;
  let t = { infos; by_mod } in
  let snapshot () =
    List.map
      (fun i ->
        Hashtbl.fold (fun k e acc -> (k, e.exposed, e.closure) :: acc) i.fns [])
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

let is_smr_impl (i : info) =
  i.scheme <> None || List.length i.verb_defs >= 3
