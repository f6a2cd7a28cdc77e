(* R2 [unguarded-deref], the scheme-family closure checks (DESIGN.md
   §16).

   The types of [Smr_intf.S] keep a structure's phases inside an
   operation, its operations balanced, its validated reads inside a
   read phase and its writes, locks and allocations inside a write
   phase.  What they cannot see is whether a scheme's own read path
   installs the guard it promises.  For each file that names a scheme
   ([scheme_name]), R2 checks the summary closures of its protocol
   functions against the guards of the scheme's family:
   NBR/HP/HE/IBR phase entry must install a restart checkpoint,
   NBR-family read_ptr must poll for neutralization, HP/HE/IBR read_ptr
   must publish a reservation *and* validate slot liveness (the PR 4
   unvalidated-ratchet bug class), and EBR-family begin_op must publish
   an epoch. *)

let rule_r2 = "unguarded-deref"

type family = Neutralization | Hazard | Epoch | Foil | Unknown_family

(* R2 reads a file's [scheme_name] literal, not the declared descriptor,
   so it keeps its own table.  It groups ibr and he with hp because it
   checks read-path guards, and all three guard [read_ptr] alike:
   publish, validate, restart on failure.  The declared protection kind
   (and the sanitizer, which reads it) parts them by what the protection
   covers, one interval or a window of slots, which decides pairings. *)
let family_of_scheme = function
  | "nbr" | "nbr+" -> Neutralization
  | "hp" | "he" | "ibr" -> Hazard
  | "debra" | "qsbr" | "rcu" -> Epoch
  | "none" | "unsafe-free" -> Foil
  | _ -> Unknown_family

let checks =
  let check fn bit msg = (fn, bit, msg) in
  let checkpoint fn =
    check fn Summary.checkpoint "does not install a restart checkpoint"
  in
  function
  | Neutralization ->
      [ checkpoint "phase"; checkpoint "read_only";
        check "read_ptr" Summary.poll "does not poll for neutralization" ]
  | Hazard ->
      [ checkpoint "phase"; checkpoint "read_only";
        check "read_ptr" Summary.shared_write
          "does not publish a reservation or era";
        check "read_ptr" Summary.validate
          "publishes without validating slot liveness" ]
  | Epoch ->
      [ check "begin_op" Summary.shared_write
          "does not publish an epoch or quiescence announcement" ]
  | Foil | Unknown_family -> []

let check_scheme (sum : Summary.t) (info : Summary.info) : Findings.t list =
  match info.scheme with
  | None -> []
  | Some s ->
      List.filter_map
        (fun (fn, bit, msg) ->
          match Summary.lookup_fn sum info fn with
          | Some e when e.Summary.closure land bit = 0 ->
              Some
                (Findings.v ~rule:rule_r2 ~file:info.path
                   ~loc:e.Summary.ent_loc
                   (Printf.sprintf "scheme %s: %s %s" s fn msg))
          | _ -> None)
        (checks (family_of_scheme s))
