(* Sequential model tests: every data structure, under two reclamation
   schemes, must behave exactly like Set.Make(Int) over long random
   operation traces, and (a,b)-tree structure invariants must hold
   throughout.  These run single-threaded on the simulator, so recycling
   through each scheme's reclamation paths is still exercised. *)

module Sim = Nbr_runtime.Sim_rt
module S = Set.Make (Int)

module type DS_UNDER_TEST = sig
  type t

  val name : string
  val setup : unit -> t * (int -> bool) * (int -> bool) * (int -> bool)
  (* returns (handle, insert, delete, contains) *)

  val to_list : t -> int list
  val check : t -> string option
end

let model_trace (module D : DS_UNDER_TEST) ~ops ~range ~seed () =
  let t, insert, delete, contains = D.setup () in
  let rng = Nbr_sync.Rng.create seed in
  let model = ref S.empty in
  for i = 1 to ops do
    let k = Nbr_sync.Rng.below rng range in
    (match Nbr_sync.Rng.below rng 3 with
    | 0 ->
        let got = insert k and want = not (S.mem k !model) in
        if want then model := S.add k !model;
        if got <> want then
          Alcotest.failf "%s: insert %d returned %b at op %d" D.name k got i
    | 1 ->
        let got = delete k and want = S.mem k !model in
        if want then model := S.remove k !model;
        if got <> want then
          Alcotest.failf "%s: delete %d returned %b at op %d" D.name k got i
    | _ ->
        let got = contains k and want = S.mem k !model in
        if got <> want then
          Alcotest.failf "%s: contains %d returned %b at op %d" D.name k got i);
    if i mod 500 = 0 then begin
      (match D.check t with
      | Some e -> Alcotest.failf "%s: structural violation: %s" D.name e
      | None -> ());
      if D.to_list t <> S.elements !model then
        Alcotest.failf "%s: contents diverged from model at op %d" D.name i
    end
  done;
  if D.to_list t <> S.elements !model then
    Alcotest.failf "%s: final contents diverged" D.name

(* Instantiate each structure under a scheme. *)
module Under
    (Smr : Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Sim).t) =
struct
  module P = Nbr_pool.Pool.Make (Sim)

  let cfg = Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 32

  let make_setup (type a) ~data_fields ~ptr_fields ?(max_reservations = 3)
      ~(create : P.t -> a)
      ~(insert : a -> Smr.ctx -> int -> bool)
      ~(delete : a -> Smr.ctx -> int -> bool)
      ~(contains : a -> Smr.ctx -> int -> bool) () =
    let pool =
      P.create ~capacity:200_000 ~data_fields ~ptr_fields ~nthreads:1 ()
    in
    let smr =
      Smr.create pool ~nthreads:1
        { cfg with Nbr_core.Smr_config.max_reservations }
    in
    let t = create pool in
    let ctx = Smr.register smr ~tid:0 in
    ((pool, t), insert t ctx, delete t ctx, contains t ctx)

  module LL = Nbr_ds.Lazy_list.Make (Sim) (Smr)

  module Lazy_list_t : DS_UNDER_TEST = struct
    type t = P.t * LL.t

    let name = "lazy-list/" ^ Smr.scheme_name

    let setup () =
      make_setup ~data_fields:LL.data_fields ~ptr_fields:LL.ptr_fields
        ~create:LL.create ~insert:LL.insert ~delete:LL.delete
        ~contains:LL.contains ()

    let to_list (pool, t) = LL.to_list pool t
    let check _ = None
  end

  module DG = Nbr_ds.Dgt_bst.Make (Sim) (Smr)

  module Dgt_t : DS_UNDER_TEST = struct
    type t = P.t * DG.t

    let name = "dgt-tree/" ^ Smr.scheme_name

    let setup () =
      make_setup ~data_fields:DG.data_fields ~ptr_fields:DG.ptr_fields
        ~create:DG.create ~insert:DG.insert ~delete:DG.delete
        ~contains:DG.contains ()

    let to_list (pool, t) = List.sort compare (DG.to_list pool t)
    let check _ = None
  end

  module HL = Nbr_ds.Harris_list.Make (Sim) (Smr)

  module Harris_t : DS_UNDER_TEST = struct
    type t = P.t * HL.t

    let name = "harris-list/" ^ Smr.scheme_name

    let setup () =
      make_setup ~data_fields:HL.data_fields ~ptr_fields:HL.ptr_fields
        ~create:HL.create ~insert:HL.insert ~delete:HL.delete
        ~contains:HL.contains ()

    let to_list (pool, t) = HL.to_list pool t
    let check _ = None
  end

  module AB = Nbr_ds.Ab_tree.Make (Sim) (Smr)

  module Ab_t : DS_UNDER_TEST = struct
    type t = P.t * AB.t

    let name = "ab-tree/" ^ Smr.scheme_name

    let setup () =
      make_setup ~data_fields:AB.data_fields ~ptr_fields:AB.ptr_fields
        ~create:AB.create ~insert:AB.insert ~delete:AB.delete
        ~contains:AB.contains ()

    let to_list (pool, t) = AB.to_list pool t
    let check (pool, t) = AB.check pool t
  end

  (* Searches stop at the first key past their target, so the answers
     that hinge on a comparison with a router key are probed at every
     router key [r] of a tree grown through splits, absorbs and prunes:
     at [r - 1], [r] and [r + 1], and below the smallest and above the
     largest key.  At each probe [x]: [contains], [count] of [x] alone
     and of a range across [x], and both of insert-then-delete or
     delete-then-insert, each step once when it succeeds and once when
     it must fail, leaving the set as it was.  Every answer is compared
     with a set model and [check] runs after every operation. *)
  let ab_boundaries () =
    let pool =
      P.create ~capacity:200_000 ~data_fields:AB.data_fields
        ~ptr_fields:AB.ptr_fields ~nthreads:1 ()
    in
    let smr =
      Smr.create pool ~nthreads:1
        { cfg with Nbr_core.Smr_config.max_reservations = AB.max_reservations }
    in
    let t = AB.create pool and c = Smr.register smr ~tid:0 in
    let model = ref S.empty in
    let checked what x got want =
      if got <> want then
        Alcotest.failf "%s %d: got %d, want %d" what x got want;
      match AB.check pool t with
      | Some e -> Alcotest.failf "after %s %d: %s" what x e
      | None -> ()
    in
    let insert x =
      let want = not (S.mem x !model) in
      model := S.add x !model;
      checked "insert" x (Bool.to_int (AB.insert t c x)) (Bool.to_int want)
    and delete x =
      let want = S.mem x !model in
      model := S.remove x !model;
      checked "delete" x (Bool.to_int (AB.delete t c x)) (Bool.to_int want)
    in
    let count lo hi =
      let want = S.cardinal (S.filter (fun k -> lo <= k && k < hi) !model) in
      checked (Printf.sprintf "count [%d, %d) at" lo hi) lo
        (AB.count t c lo hi) want
    in
    let rng = Nbr_sync.Rng.create 3 in
    for _ = 1 to 600 do
      insert (4 * Nbr_sync.Rng.below rng 1024)
    done;
    for _ = 1 to 400 do
      delete (4 * Nbr_sync.Rng.below rng 1024)
    done;
    let rec routers s acc =
      if P.get_ptr pool s 0 = P.nil then acc
      else
        let m = P.get_data pool s AB.f_size in
        let acc = ref acc in
        for j = 0 to m - 1 do
          if j > 0 then acc := P.get_data pool s j :: !acc;
          acc := routers (P.get_ptr pool s j) !acc
        done;
        !acc
    in
    let rs = routers (P.get_ptr pool t.AB.anchor 0) [] in
    if List.length rs < 16 then
      Alcotest.failf "only %d router keys" (List.length rs);
    let probes =
      (S.min_elt !model - 1) :: (S.max_elt !model + 1)
      :: List.concat_map (fun r -> [ r - 1; r; r + 1 ]) rs
    in
    List.iter
      (fun x ->
        let before = !model in
        checked "contains" x
          (Bool.to_int (AB.contains t c x))
          (Bool.to_int (S.mem x before));
        count x (x + 1);
        count (x - 5) (x + 5);
        count min_int x;
        count x max_int;
        if S.mem x before then begin
          delete x; delete x; insert x; insert x
        end
        else begin
          insert x; insert x; delete x; delete x
        end;
        if AB.to_list pool t <> S.elements before then
          Alcotest.failf "contents changed around probe %d" x)
      probes

  module HS = Nbr_ds.Hash_set.Make (Sim) (Smr)

  module Hash_t : DS_UNDER_TEST = struct
    type t = P.t * HS.t

    let name = "hash-set/" ^ Smr.scheme_name

    let setup () =
      make_setup ~data_fields:HS.data_fields ~ptr_fields:HS.ptr_fields
        ~create:(HS.create ~buckets:8)
        ~insert:HS.insert ~delete:HS.delete ~contains:HS.contains ()

    let to_list (pool, t) = HS.to_list pool t
    let check _ = None
  end

  module SK = Nbr_ds.Skip_list.Make (Sim) (Smr)

  module Skip_t : DS_UNDER_TEST = struct
    type t = P.t * SK.t

    let name = "skip-list/" ^ Smr.scheme_name

    let setup () =
      make_setup ~data_fields:SK.data_fields ~ptr_fields:SK.ptr_fields
        ~max_reservations:SK.max_reservations ~create:SK.create
        ~insert:SK.insert ~delete:SK.delete ~contains:SK.contains ()

    let to_list (pool, t) = SK.to_list pool t
    let check (pool, t) = SK.check pool t
  end

  (* Mark-traversing structures are excluded for HP/HE by callers. *)
  let all : (module DS_UNDER_TEST) list =
    [
      (module Lazy_list_t);
      (module Dgt_t);
      (module Harris_t);
      (module Ab_t);
      (module Hash_t);
      (module Skip_t);
    ]

  let no_mark_traversal : (module DS_UNDER_TEST) list =
    [ (module Lazy_list_t); (module Dgt_t); (module Ab_t) ]
end

module Under_nbrp = Under (Nbr_core.Nbr_plus.Make (Sim))
module Under_hp = Under (Nbr_core.Hp.Make (Sim))
module Under_he = Under (Nbr_core.Hazard_eras.Make (Sim))
module Under_debra = Under (Nbr_core.Debra.Make (Sim))

let cases =
  List.concat_map
    (fun (module D : DS_UNDER_TEST) ->
      [
        Alcotest.test_case (D.name ^ " model trace") `Quick
          (model_trace (module D) ~ops:6_000 ~range:128 ~seed:7);
        Alcotest.test_case (D.name ^ " dense keys") `Quick
          (model_trace (module D) ~ops:3_000 ~range:16 ~seed:21);
      ])
    (Under_nbrp.all @ Under_debra.all @ Under_hp.no_mark_traversal
   @ Under_he.no_mark_traversal)

(* The (a,b)-tree's range count against the model, on the native
   runtime: ranges from one key to the whole key space, across many
   leaves.  The count's read phase walks one leaf or a hundred with the
   same allocation, the op and viewer closures: nothing per leaf. *)
module Ab_count = struct
  module Rt = Nbr_runtime.Native_rt
  module P = Nbr_pool.Pool.Make (Rt)
  module Smr = Nbr_core.Nbr_plus.Make (Rt)
  module T = Nbr_ds.Ab_tree.Make (Rt) (Smr)

  let test () =
    let pool =
      P.create ~capacity:16_384 ~data_fields:T.data_fields
        ~ptr_fields:T.ptr_fields ~nthreads:1 ()
    in
    let smr =
      Smr.create pool ~nthreads:1
        (Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 32)
    in
    let t = T.create pool and c = Smr.register smr ~tid:0 in
    let rng = Nbr_sync.Rng.create 5 and range = 2048 in
    let model = ref S.empty in
    for i = 1 to 6_000 do
      let k = Nbr_sync.Rng.below rng range in
      if Nbr_sync.Rng.below rng 3 = 0 then begin
        ignore (T.delete t c k);
        model := S.remove k !model
      end
      else begin
        ignore (T.insert t c k);
        model := S.add k !model
      end;
      if i mod 200 = 0 then
        for _ = 1 to 20 do
          let lo = Nbr_sync.Rng.below rng range in
          let hi = lo + Nbr_sync.Rng.below rng 300 in
          let want = S.cardinal (S.filter (fun k -> lo <= k && k < hi) !model) in
          let got = T.count t c lo hi in
          if got <> want then
            Alcotest.failf "count [%d, %d) = %d, want %d at op %d" lo hi got
              want i
        done
    done;
    Alcotest.(check int) "count of everything" (S.cardinal !model)
      (T.count t c min_int max_int);
    Alcotest.(check int) "empty range" 0 (T.count t c 10 10);
    let words lo hi =
      let before = Gc.minor_words () in
      for _ = 1 to 1_000 do
        ignore (Sys.opaque_identity (T.count t c lo hi))
      done;
      Gc.minor_words () -. before
    in
    let one = words 100 101 and all = words 0 range in
    if all > one +. 16. then
      Alcotest.failf "1000 whole-tree counts: %.0f minor words; 1000 \
                      one-key counts: %.0f" all one
end

let suite =
  cases
  @ [
      Alcotest.test_case "ab-tree range count" `Quick Ab_count.test;
      Alcotest.test_case "ab-tree search boundaries/nbr+" `Quick
        Under_nbrp.ab_boundaries;
      Alcotest.test_case "ab-tree search boundaries/debra" `Quick
        Under_debra.ab_boundaries;
    ]
