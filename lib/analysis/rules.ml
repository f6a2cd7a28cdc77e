(* The phase-discipline rules R1, R2 and R4 (DESIGN.md §16).

   The types of [Smr_intf.S] already keep a structure's phases inside
   an operation, its operations balanced and its validated reads inside
   a read phase.  What they cannot see is what a read lambda does with
   the plain [Pool] accessors, and whether a scheme's own read path
   installs the guard it promises.  Those are the rules here.

   Client files (data structures, kv, workload, reclaim) are walked
   with a read-phase flag: the lambda of a [reader]/[viewer] record
   literal sets it, wherever the record is written, and so does a bare
   lambda handed to a phase combinator other than as [~write].  At each
   resolved call site in a read phase:

   - R1 [read-phase-write]  — impure effects (shared writes, locks,
     alloc/retire/free, op bracketing, phase entry);
   - R4 [write-phase-read]  — plain (unvalidated) shared reads; they
     are legal only on locked/reserved windows (the write phase) or in
     sequential code.

   SMR-implementation files (schemes, the pool, the shared base) are
   exempt from the client rules — they *implement* the guards — and
   instead get per-scheme-family R2 checks over summary closures:
   NBR/HP/HE/IBR phase entry must install a restart checkpoint,
   NBR-family read_ptr must poll for neutralization, HP/HE/IBR
   read_ptr must publish a reservation *and* validate slot liveness
   (the PR 4 unvalidated-ratchet bug class), and EBR-family begin_op
   must publish an epoch. *)

let rule_r1 = "read-phase-write"
let rule_r2 = "unguarded-deref"
let rule_r4 = "write-phase-read"

let all_rules = [ rule_r1; rule_r2; rule_r4 ]

let callee_name (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      String.concat "." (Longident.flatten txt)
  | _ -> "?"

(* ------------------------------------------------------------------ *)
(* Scheme families for the R2 per-scheme checks *)

type family = Neutralization | Hazard | Epoch | Foil | Unknown_family

let family_of_scheme = function
  | "nbr" | "nbr+" -> Neutralization
  | "hp" | "he" | "ibr" -> Hazard
  | "debra" | "qsbr" | "rcu" -> Epoch
  | "none" | "unsafe-free" -> Foil
  | _ -> Unknown_family

let check_scheme (sum : Summary.t) (info : Summary.info) : Findings.t list =
  match info.scheme with
  | None -> []
  | Some s ->
      let fs = ref [] in
      let check fn bit msg =
        match Summary.lookup_fn sum info fn with
        | Some e when e.Summary.closure land bit = 0 ->
            fs :=
              Findings.v ~rule:rule_r2 ~file:info.path ~loc:e.Summary.ent_loc
                (Printf.sprintf "scheme %s: %s %s" s fn msg)
              :: !fs
        | _ -> ()
      in
      (match family_of_scheme s with
      | Neutralization ->
          check "phase" Summary.checkpoint
            "does not install a restart checkpoint";
          check "read_only" Summary.checkpoint
            "does not install a restart checkpoint";
          check "read_ptr" Summary.poll "does not poll for neutralization"
      | Hazard ->
          check "phase" Summary.checkpoint
            "does not install a restart checkpoint";
          check "read_only" Summary.checkpoint
            "does not install a restart checkpoint";
          check "read_ptr" Summary.shared_write
            "does not publish a reservation or era";
          check "read_ptr" Summary.validate
            "publishes without validating slot liveness"
      | Epoch ->
          check "begin_op" Summary.shared_write
            "does not publish an epoch or quiescence announcement"
      | Foil | Unknown_family -> ());
      List.rev !fs

(* ------------------------------------------------------------------ *)
(* Client walk *)

let check (sum : Summary.t) (info : Summary.info)
    (waivers : Findings.Waivers.t) : Findings.t list =
  let open Ast_iterator in
  let fs = ref [] in
  let report ~rule ~loc msg =
    fs := Findings.v ~rule ~file:info.path ~loc msg :: !fs
  in
  let client = not (Summary.is_smr_impl info) in
  let reading = ref false in
  let with_reading r f =
    let saved = !reading in
    reading := r;
    f ();
    reading := saved
  in
  let node_checks ce name loc =
    if client && !reading then begin
      let bad =
        ce
        land (Summary.impure lor Summary.begins lor Summary.ends
             lor Summary.phase)
      in
      if bad <> 0 then
        report ~rule:rule_r1 ~loc
          (Printf.sprintf "%s: %s in read phase" name (Summary.pp_bits bad));
      if ce land Summary.plain <> 0 then
        report ~rule:rule_r4 ~loc
          (Printf.sprintf
             "%s: plain shared read in read phase (use a validated accessor)"
             name)
    end
  in
  let rec enter_fn (e : Parsetree.expression) =
    let body = Summary.peel_fun e in
    match body.pexp_desc with
    | Pexp_function cases ->
        List.iter
          (fun (c : Parsetree.case) ->
            (match c.pc_guard with Some g -> it.expr it g | None -> ());
            it.expr it c.pc_rhs)
          cases
    | _ -> it.expr it body
  and it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          List.iter
            (Findings.Waivers.note waivers ~file:info.path ~loc:e.pexp_loc)
            e.pexp_attributes;
          match e.pexp_desc with
          | Pexp_record ([ (_, f) ], None) when Summary.read_lambda e <> None
            ->
              with_reading true (fun () -> enter_fn f)
          | Pexp_fun _ | Pexp_function _ -> enter_fn e
          | Pexp_apply ({ pexp_desc = Pexp_ident _; _ }, args) -> (
              match Summary.call_effect sum info e with
              | Some (ce, _) ->
                  node_checks ce (callee_name e) e.pexp_loc;
                  let combinator =
                    ce land (Summary.phase lor Summary.checkpoint) <> 0
                  in
                  List.iter
                    (fun ((lbl : Asttypes.arg_label), a) ->
                      if combinator && Summary.is_function a then
                        with_reading (lbl <> Labelled "write") (fun () ->
                            enter_fn a)
                      else self.expr self a)
                    args
              | None -> Ast_iterator.default_iterator.expr self e)
          | _ -> Ast_iterator.default_iterator.expr self e);
      value_binding =
        (fun self vb ->
          List.iter
            (Findings.Waivers.note waivers ~file:info.path ~loc:vb.pvb_loc)
            vb.pvb_attributes;
          if Summary.is_function vb.pvb_expr then enter_fn vb.pvb_expr
          else self.expr self vb.pvb_expr);
    }
  in
  it.structure it info.structure;
  List.rev_append !fs (check_scheme sum info)
