(* A deliberately protocol-breaking operation for the dynamic half of
   the sanitizer cross-check (DESIGN.md §16): one seeded violation,
   convicted from both ends.

   [broken_lookup] begins an operation, follows the anchor record's
   link through the validated accessor with no phase entered, touches
   the record it found, and returns with the operation still open.
   Statically, its copy written against [Smr_intf.S]
   (fixtures/types/broken_lookup.ml) does not compile: the interface
   has no begin_op, and its validated reads take a read token only a
   phase hands out.  This one uses the concrete NBR+ module, whose
   white-box begin_op and [ctx]-typed reads are still visible, so it
   compiles and runs.  Dynamically, a DFS-explored simulator run with
   the sanitizer attached convicts the protocol: [unguarded_access] for
   the in-op access outside any checkpointed phase, [unbalanced_op] for
   the operation still open at detach.

   This module is compiled into the test binary for the dynamic run —
   do not fix it. *)

module Sim = Nbr_runtime.Sim_rt
module P = Nbr_pool.Pool.Make (Sim)
module Smr = Nbr_core.Nbr_plus.Make (Sim)

let broken_lookup pool ctx root =
  Smr.begin_op ctx;
  let a = Smr.read_ptr ctx ~src:root ~field:0 in
  if a >= 0 && P.record_read pool a then ignore (P.get_data pool a 0)
(* no Smr.end_op: the operation is left open on every path *)

(* One deterministic schedule is enough: thread 0 installs a record
   properly, then runs the broken lookup over it; thread 1 idles so the
   explorer still has a two-thread universe to enumerate. *)
let run () =
  Sim.set_max_events 100_000;
  let pool =
    P.create ~capacity:8 ~data_fields:1 ~ptr_fields:1 ~nthreads:2 ()
  in
  let smr = Smr.create pool ~nthreads:2 Nbr_core.Smr_config.default in
  let root = P.alloc pool in
  let c0 = Smr.register smr ~tid:0 in
  Sim.run ~nthreads:2 (fun tid ->
      if tid = 0 then begin
        Smr.begin_op c0;
        let a = Smr.alloc c0 in
        P.set_data pool a 0 42;
        P.set_ptr pool root 0 a;
        Smr.end_op c0;
        broken_lookup pool c0 root
      end)
