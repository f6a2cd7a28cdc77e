(* Per-key conservation under concurrency.

   The harness's global check (final size = prefill + inserts - deletes)
   can in principle be fooled by compensating errors (a double-successful
   insert of one key masked by a lost delete of another).  Here every
   worker logs each *successful* update with its key; afterwards, for
   every key independently:

   - successful inserts and deletes must alternate in count:
     |#ins - #del| <= 1,
   - final membership must equal initial membership XOR parity of the
     number of successful updates,
   - #ins - #del must equal final(k) - initial(k).

   Any two successful updates of one key are serialized by the structure
   (locks or CAS on the same record), so these are hard invariants of any
   linearizable execution. *)

module Sim = Nbr_runtime.Sim_rt
module P = Nbr_pool.Pool.Make (Sim)

module Check
    (Smr : Nbr_core.Smr_intf.S with type pool = P.t) =
struct
  let run (type a) ~name ~data_fields ~ptr_fields ~(create : P.t -> a)
      ~(insert : a -> Smr.ctx -> int -> bool)
      ~(delete : a -> Smr.ctx -> int -> bool)
      ~(member : P.t -> a -> int -> bool) () =
    let nthreads = 5 and range = 64 and ops = 3_000 in
    Sim.set_config
      { Sim.default_config with cores = 3; granularity = 1; seed = 23 };
    let pool =
      P.create ~capacity:400_000 ~data_fields ~ptr_fields ~nthreads ()
    in
    let smr =
      Smr.create pool ~nthreads
        (Nbr_core.Smr_config.with_threshold Nbr_core.Smr_config.default 32)
    in
    let t = create pool in
    let ctxs = Array.init nthreads (fun tid -> Smr.register smr ~tid) in
    let initial = Array.make range false in
    for k = 0 to range - 1 do
      if k mod 3 = 0 then begin
        ignore (insert t ctxs.(0) k);
        initial.(k) <- true
      end
    done;
    (* Per-thread, per-key success counters (merged after the run). *)
    let ins = Array.make_matrix nthreads range 0 in
    let del = Array.make_matrix nthreads range 0 in
    Sim.run ~nthreads (fun tid ->
        let ctx = ctxs.(tid) in
        let rng = Nbr_sync.Rng.for_thread ~seed:23 ~tid in
        for _ = 1 to ops do
          let k = Nbr_sync.Rng.below rng range in
          if Nbr_sync.Rng.below rng 2 = 0 then begin
            if insert t ctx k then ins.(tid).(k) <- ins.(tid).(k) + 1
          end
          else if delete t ctx k then del.(tid).(k) <- del.(tid).(k) + 1
        done);
    for k = 0 to range - 1 do
      let i = ref 0 and d = ref 0 in
      for tid = 0 to nthreads - 1 do
        i := !i + ins.(tid).(k);
        d := !d + del.(tid).(k)
      done;
      let fin = member pool t k in
      let init = initial.(k) in
      if abs (!i - !d) > 1 then
        Alcotest.failf "%s key %d: %d inserts vs %d deletes" name k !i !d;
      let expected_fin =
        if (!i + !d) mod 2 = 0 then init else not init
      in
      if fin <> expected_fin then
        Alcotest.failf "%s key %d: membership %b, parity predicts %b" name k
          fin expected_fin;
      let delta = (if fin then 1 else 0) - if init then 1 else 0 in
      if !i - !d <> delta then
        Alcotest.failf "%s key %d: ins-del=%d but membership delta=%d" name k
          (!i - !d) delta
    done
end

module Nbrp = Nbr_core.Nbr_plus.Make (Sim)
module Nbr1 = Nbr_core.Nbr.Make (Sim)
module C_nbrp = Check (Nbrp)
module C_nbr = Check (Nbr1)
module LL = Nbr_ds.Lazy_list.Make (Sim) (Nbrp)
module HL = Nbr_ds.Harris_list.Make (Sim) (Nbrp)
module DG = Nbr_ds.Dgt_bst.Make (Sim) (Nbr1)
module AB = Nbr_ds.Ab_tree.Make (Sim) (Nbrp)

let suite =
  [
    Alcotest.test_case "lazy-list/nbr+ per-key conservation" `Slow
      (C_nbrp.run ~name:"lazy-list" ~data_fields:LL.data_fields
         ~ptr_fields:LL.ptr_fields ~create:LL.create ~insert:LL.insert
         ~delete:LL.delete
         ~member:(fun pool t k -> List.mem k (LL.to_list pool t)));
    Alcotest.test_case "harris-list/nbr+ per-key conservation" `Slow
      (C_nbrp.run ~name:"harris-list" ~data_fields:HL.data_fields
         ~ptr_fields:HL.ptr_fields ~create:HL.create ~insert:HL.insert
         ~delete:HL.delete
         ~member:(fun pool t k -> List.mem k (HL.to_list pool t)));
    Alcotest.test_case "dgt-tree/nbr per-key conservation" `Slow
      (C_nbr.run ~name:"dgt-tree" ~data_fields:DG.data_fields
         ~ptr_fields:DG.ptr_fields ~create:DG.create ~insert:DG.insert
         ~delete:DG.delete
         ~member:(fun pool t k -> List.mem k (DG.to_list pool t)));
    Alcotest.test_case "ab-tree/nbr+ per-key conservation" `Slow
      (C_nbrp.run ~name:"ab-tree" ~data_fields:AB.data_fields
         ~ptr_fields:AB.ptr_fields ~create:AB.create ~insert:AB.insert
         ~delete:AB.delete
         ~member:(fun pool t k -> List.mem k (AB.to_list pool t)));
  ]
