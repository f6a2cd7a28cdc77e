(* k-NBR in action: multi-phase operations on the Harris list.

   Run with:  dune exec examples/knbr_phases.exe

   The paper's §5.2: structures whose searches perform auxiliary updates
   (Harris's lock-free list unlinks marked nodes while traversing) cannot
   be a single read/write phase.  k-NBR splits each operation into a
   sequence of phases — every auxiliary unlink is its own write phase,
   and each new read phase restarts from the head.  This example runs a
   delete-heavy workload that maximizes marked-node traffic and shows the
   phase machinery working: restarts from neutralization, auxiliary
   unlinks, and full reclamation, on a structure hazard pointers cannot
   handle at all. *)

module Sim = Nbr.Runtime.Sim
module Pool = Nbr.Pool.Make (Sim)
module Smr = Nbr.Scheme.Nbr_plus.Make (Sim)
module HL = Nbr.Ds.Harris_list.Make (Sim) (Smr)

let nthreads = 8

let () =
  Sim.set_config { Sim.default_config with cores = 4; seed = 31 };
  let pool =
    Pool.create ~capacity:500_000 ~data_fields:HL.data_fields
      ~ptr_fields:HL.ptr_fields ~nthreads ()
  in
  let smr =
    Smr.create pool ~nthreads
      (Nbr.Scheme.Config.with_threshold Nbr.Scheme.Config.default 128)
  in
  let l = HL.create pool in
  let ctxs = Array.init nthreads (fun tid -> Smr.register smr ~tid) in
  for k = 0 to 255 do
    ignore (HL.insert l ctxs.(0) k)
  done;
  let ins = Array.make nthreads 0 and del = Array.make nthreads 0 in
  Sim.run ~nthreads (fun tid ->
      let ctx = ctxs.(tid) in
      let rng = Nbr.Rng.for_thread ~seed:31 ~tid in
      for _ = 1 to 3_000 do
        let k = Nbr.Rng.below rng 256 in
        (* Delete-heavy: marked nodes everywhere, constant helping. *)
        if Nbr.Rng.below rng 3 = 0 then begin
          if HL.insert l ctx k then ins.(tid) <- ins.(tid) + 1
        end
        else if HL.delete l ctx k then del.(tid) <- del.(tid) + 1
      done);
  let total a = Array.fold_left ( + ) 0 a in
  let st = Smr.stats smr in
  let ps = Pool.stats pool in
  Printf.printf
    "harris list, %d threads, delete-heavy:\n\
    \  %d inserts, %d deletes, final size %d (consistent: %b)\n\
    \  %d retires -> %d freed; %d neutralization restarts; %d signals\n\
    \  peak unreclaimed %d records; use-after-free reads: %d\n"
    nthreads (total ins) (total del) (HL.size pool l)
    (HL.size pool l = 256 + total ins - total del)
    (Nbr.Scheme.Stats.retires st) (Nbr.Scheme.Stats.freed st) (Nbr.Scheme.Stats.restarts st) (Sim.signals_sent ())
    ps.Pool.s_peak_in_use ps.Pool.s_uaf_reads;
  assert (HL.size pool l = 256 + total ins - total del);
  assert (ps.Pool.s_uaf_reads = 0)
