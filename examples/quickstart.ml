(* Quickstart: a concurrent set with NBR+ reclamation in ~40 lines.

   Run with:  dune exec examples/quickstart.exe

   The recipe, bottom to top:
   1. pick a runtime       (here: real OCaml domains),
   2. create a record pool (the manual-memory arena records live in),
   3. create a reclamation scheme over that pool (NBR+),
   4. create a data structure (lazy list) and per-thread contexts,
   5. hammer it from several domains.

   The native runtime's signal delivery is polling-based, so a reader can
   touch a just-freed slot between its last poll and the delivery that
   restarts it.  Those reads are {e benign}: the reader is neutralized
   before it can act on the value (DESIGN.md §3).  What a sound scheme
   must never produce is a {e committed} UAF read — one whose read phase
   ran to completion — and that is what this example asserts, on every
   run, via the scheme's own classification ([Smr_stats.committed_uaf]).
   Benign poll-window reads are timing-dependent and merely reported. *)

module Rt = Nbr.Runtime.Native
module Pool = Nbr.Pool.Make (Rt)
module Smr = Nbr.Scheme.Nbr_plus.Make (Rt)
module List_set = Nbr.Ds.Lazy_list.Make (Rt) (Smr)

let nthreads = 4

let () =
  (* A pool shaped for lazy-list nodes: key + marked flag, one link. *)
  let pool =
    Pool.create ~capacity:1_000_000 ~data_fields:List_set.data_fields
      ~ptr_fields:List_set.ptr_fields ~nthreads ()
  in
  let smr = Smr.create pool ~nthreads Nbr.Scheme.Config.default in
  let set = List_set.create pool in
  let ctxs = Array.init nthreads (fun tid -> Smr.register smr ~tid) in

  (* Prefill from the main thread (tid 0's context). *)
  let prefill = ref 0 in
  for k = 0 to 511 do
    if k mod 2 = 0 && List_set.insert set ctxs.(0) k then incr prefill
  done;

  let hits = Atomic.make 0
  and inserts = Atomic.make 0
  and deletes = Atomic.make 0 in
  Rt.run ~nthreads (fun tid ->
      let ctx = ctxs.(tid) in
      let rng = Nbr.Rng.for_thread ~seed:2024 ~tid in
      for _ = 1 to 50_000 do
        let k = Nbr.Rng.below rng 512 in
        match Nbr.Rng.below rng 10 with
        | 0 -> if List_set.insert set ctx k then Atomic.incr inserts
        | 1 -> if List_set.delete set ctx k then Atomic.incr deletes
        | _ -> if List_set.contains set ctx k then Atomic.incr hits
      done);

  (* Set semantics: successful updates and the final size agree (no lost
     or phantom element — which is what an SMR bug would corrupt first). *)
  let expected = !prefill + Atomic.get inserts - Atomic.get deletes in
  let size = List_set.size pool set in
  if size <> expected then begin
    Printf.eprintf "quickstart: FINAL SIZE %d <> EXPECTED %d — SMR bug!\n" size
      expected;
    exit 1
  end;
  Printf.printf
    "quickstart: %d domains did 200k ops: %d hits, %d+%d updates, size %d ok\n"
    nthreads (Atomic.get hits) (Atomic.get inserts) (Atomic.get deletes) size;

  (* Memory safety: no UAF read ever survived to the end of its phase. *)
  let st = Smr.stats smr in
  let committed = Nbr.Scheme.Stats.committed_uaf st in
  if committed <> 0 then begin
    Printf.eprintf "quickstart: %d COMMITTED use-after-free reads — SMR bug!\n"
      committed;
    exit 1
  end;
  let pstats = Pool.stats pool in
  Printf.printf
    "memory: %d records live, peak %d unreclaimed, %d recycled through NBR+\n"
    pstats.Pool.s_in_use pstats.Pool.s_peak_in_use pstats.Pool.s_frees;
  (match Nbr.Scheme.Stats.benign_uaf st with
  | 0 -> print_endline "no use-after-free reads, as promised."
  | b ->
      Printf.printf
        "no committed use-after-free reads, as promised (%d benign \
         poll-window reads, all neutralized before commit).\n"
        b);
  exit 0
