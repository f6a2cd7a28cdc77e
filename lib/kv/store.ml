(* Sharded key-value store over the DS + SMR + pool stack (DESIGN.md §14).

   Each shard owns one structure instance (hash-set or (a,b)-tree) over
   its own pool and its own instance of the selected reclamation scheme,
   so shards share nothing: keys are routed by a multiplicative hash
   distinct from the structures' internal bucket hash.  The scheme is
   picked at runtime by name through {!Nbr_workload.Registry}; its module
   types are erased behind per-shard closure records, so one [t] can hold
   any of the ten schemes without functorizing every caller.

   Thread model: worker tids [0, nthreads) register with every shard (a
   request for any key may land on any shard).  With background
   reclamation enabled, shard [i] additionally gets its own reclaimer
   role at tid [nthreads + i], wired to that shard's pool watermarks.  A
   shard is built by {!Nbr_workload.Cohort}, as a trial's stack is. *)

(* Aggregated per-store counters: runtime-independent (plain ints), so
   reports from different runtimes share one type. *)
type stats = {
  st_size : int;
  st_in_use : int;
  st_peak_in_use : int;
  st_uaf_reads : int;
  st_committed_uaf : int;
  st_max_garbage : int;
  st_peak_garbage : int;
  st_pressure_events : int;
  st_alloc_retries : int;
  st_restarts : int;
  st_degrades : int;
  st_restores : int;
  st_handshake_timeouts : int;
}

(* Cheap per-shard health snapshot for the service guard's breakers:
   a few atomic loads, no allocation beyond the record. *)
type health = {
  h_occupancy : int;
  h_capacity : int;
  h_pressured : bool;  (** pool inside its high-watermark excursion *)
  h_degraded : bool;  (** offload switchboard fell back to inline *)
}

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)

  module Cfg = struct
    type t = {
      scheme : string;
      structure : string;  (** ["hash-set"] or ["ab-tree"] *)
      nshards : int;
      nthreads : int;  (** worker threads; tids in [0, nthreads) *)
      keyspace : int;  (** keys are in [0, keyspace) *)
      shard_capacity : int;  (** pool slots per shard *)
      smr : Nbr_core.Smr_config.t;
      reclaim : Nbr_reclaim.Reclaimer.policy option;
          (** per-shard background reclaimer role + pool watermarks *)
      reclaimer_faults : Nbr_fault.Fault_plan.reclaimer_fault list;
          (** fault schedule applied to {e every} shard's reclaimer *)
    }

    let structures = [ "hash-set"; "ab-tree" ]

    let make ?(structure = "hash-set") ?(nshards = 8)
        ?(keyspace = 1 lsl 20) ?shard_capacity
        ?(smr = Nbr_core.Smr_config.default) ?reclaim
        ?(reclaimer_faults = []) ~scheme ~nthreads () =
      if nshards < 1 then invalid_arg "Kv.Store.Cfg.make: nshards < 1";
      if nthreads < 1 then invalid_arg "Kv.Store.Cfg.make: nthreads < 1";
      if keyspace < 2 then invalid_arg "Kv.Store.Cfg.make: keyspace < 2";
      if not (List.mem structure structures) then
        invalid_arg
          ("Kv.Store.Cfg.make: unknown structure " ^ structure
         ^ " (kv shards are hash-set or ab-tree)");
      ignore (Nbr_workload.Registry.find_exn scheme);
      Option.iter
        (Printf.ksprintf invalid_arg
           "Kv.Store.Cfg.make: %s cannot run %s safely (paper P5), %s; use \
            ab-tree" scheme structure)
        (Nbr_workload.Registry.refusal ~scheme ~structure);
      let shard_capacity =
        match shard_capacity with
        | Some c ->
            if c < 256 then
              invalid_arg "Kv.Store.Cfg.make: shard_capacity < 256";
            c
        | None ->
            (* Sized for the live set a Zipfian run actually touches,
               not the whole keyspace.  A pool's memory follows the
               slots it hands out, not its capacity, but the capacity
               still decides when a shard meets allocation pressure,
               hence the clamp.  Heavy workloads pass it explicitly. *)
            min 262_144 (max 8192 (keyspace / (2 * nshards)))
      in
      {
        scheme;
        structure;
        nshards;
        nthreads;
        keyspace;
        shard_capacity;
        smr;
        reclaim;
        reclaimer_faults;
      }
  end

  (* One shard, module types erased: every closure already knows its
     scheme, structure, pool and contexts. *)
  type shard = {
    sh_contains : tid:int -> int -> bool;
    sh_insert : tid:int -> int -> bool;
    sh_delete : tid:int -> int -> bool;
    sh_count : tid:int -> int -> int -> int;
    sh_size : unit -> int;
    sh_stall : tid:int -> int -> unit;
    sh_crash : tid:int -> unit;
    sh_hog : slots:int -> ns:int -> unit;
    sh_churn : tid:int -> unit;
    sh_drain : tid:int -> unit;
    sh_reclaimer_run : unit -> unit;
    sh_reclaimer_stop : unit -> unit;
    sh_offload_counts : unit -> int * int;
    sh_health : unit -> health;
    sh_hs_timeouts : tid:int -> int;
    sh_pool_stats : unit -> P.stats;
    sh_smr_stats : unit -> Nbr_core.Smr_stats.t;
    sh_reset_peak : unit -> unit;
    sh_bound : int;
    sh_bounded_claim : bool;
  }

  type t = { cfg : Cfg.t; shards : shard array; foil : bool }

  let build_shard (cfg : Cfg.t) ~total ~reclaimer_tid
      (module S : Nbr_workload.Registry.SCHEME) : shard =
    let module Smr = S.Make (Rt) in
    let module Build
        (Ds : sig
           include
             Nbr_workload.Cohort.STRUCTURE
               with type pool := P.t
                and type ctx := Smr.ctx

           val count : t -> Smr.ctx -> int -> int -> int
         end) =
    struct
      module R = Nbr_reclaim.Reclaimer.Make (Rt) (Smr)
      module C = Nbr_workload.Cohort.Make (Rt) (Smr) (Ds)

      let shard () =
        let c =
          C.create ~capacity:cfg.shard_capacity ~nthreads:total
            ~workers:cfg.nthreads ~reclaim:cfg.reclaim
            ~reclaimer_faults:cfg.reclaimer_faults ~reclaimer_tid cfg.smr
        in
        let { C.pool; ds; ctxs; recl; _ } = c in
        {
          sh_contains = (fun ~tid k -> Ds.contains ds ctxs.(tid) k);
          sh_insert = (fun ~tid k -> Ds.insert ds ctxs.(tid) k);
          sh_delete = (fun ~tid k -> Ds.delete ds ctxs.(tid) k);
          sh_count = (fun ~tid lo hi -> Ds.count ds ctxs.(tid) lo hi);
          sh_size = (fun () -> Ds.size pool ds);
          sh_stall = C.stall c;
          sh_crash = C.crash c;
          sh_hog = C.hog c;
          sh_churn = C.churn c;
          sh_drain = C.drain c;
          sh_reclaimer_run = (fun () -> C.run_reclaimer c);
          sh_reclaimer_stop = (fun () -> C.stop_reclaimer c);
          sh_offload_counts =
            (fun () ->
              match recl with
              | None -> (0, 0)
              | Some r ->
                  let o = R.offload r in
                  ( Atomic.get o.Nbr_core.Smr_intf.Offload.degrades,
                    Atomic.get o.Nbr_core.Smr_intf.Offload.restores ));
          sh_health =
            (fun () ->
              {
                h_occupancy = P.occupancy pool;
                h_capacity = cfg.shard_capacity;
                h_pressured = P.pressured pool;
                h_degraded =
                  (match recl with
                  | None -> false
                  | Some r ->
                      not
                        (Atomic.get
                           (R.offload r).Nbr_core.Smr_intf.Offload.enabled));
              });
          sh_hs_timeouts =
            (fun ~tid ->
              (* Own-context read: cheap and single-writer, the same
                 idiom the trial runner uses for restart deltas. *)
              Nbr_core.Smr_stats.handshake_timeouts
                (Smr.ctx_stats ctxs.(tid)));
          sh_pool_stats = (fun () -> P.stats pool);
          sh_smr_stats = (fun () -> Smr.stats c.C.smr);
          sh_reset_peak = (fun () -> P.reset_peak pool);
          sh_bound =
            (* The trial runner's bound with the live-set term scaled to
               one shard's share of the keyspace (capped by capacity:
               the pool cannot hold more). *)
            Nbr_core.Smr_config.garbage_bound c.C.cfg ~threads:total
              ~live:(min (cfg.keyspace / cfg.nshards) cfg.shard_capacity);
          sh_bounded_claim = Smr.bounded_garbage;
        }
    end in
    match cfg.structure with
    | "hash-set" ->
        let module B = Build (struct
          module H = Nbr_ds.Hash_set.Make (Rt) (Smr)
          include H

          let create pool =
            (* Buckets sized to keep chains short at shard occupancy. *)
            H.create ~buckets:(max 64 (cfg.shard_capacity / 128)) pool

          (* One membership probe per key: a bucket holds no key
             order to scan. *)
          let count h ctx lo hi =
            let hits = ref 0 in
            for k = lo to hi - 1 do
              if H.contains h ctx k then incr hits
            done;
            !hits
        end) in
        B.shard ()
    | "ab-tree" ->
        let module B = Build (Nbr_ds.Ab_tree.Make (Rt) (Smr)) in
        B.shard ()
    | s -> invalid_arg ("Kv.Store: unknown structure " ^ s)

  let create (cfg : Cfg.t) =
    let entry = Nbr_workload.Registry.find_exn cfg.scheme in
    let total =
      cfg.nthreads
      + (match cfg.reclaim with None -> 0 | Some _ -> cfg.nshards)
    in
    let shards =
      Array.init cfg.nshards (fun i ->
          build_shard cfg ~total ~reclaimer_tid:(cfg.nthreads + i)
            entry.Nbr_workload.Registry.r_scheme)
    in
    { cfg; shards; foil = entry.Nbr_workload.Registry.r_foil }

  let cfg t = t.cfg
  let nshards t = t.cfg.Cfg.nshards
  let nthreads t = t.cfg.Cfg.nthreads
  let keyspace t = t.cfg.Cfg.keyspace
  let reclaim_on t = t.cfg.Cfg.reclaim <> None
  let foil t = t.foil
  let bounded_claim t = t.shards.(0).sh_bounded_claim

  (* Key → shard routing: a SplitMix64-style finalizer, deliberately
     different from the hash-set's internal Fibonacci bucket hash so
     shard choice and bucket choice stay independent. *)
  let shard_of t k =
    let h = k lxor (k lsr 33) in
    let h = h * 0x2545f4914f6cdd1d land max_int in
    let h = h lxor (h lsr 29) in
    h mod t.cfg.Cfg.nshards

  let get t ~tid k = t.shards.(shard_of t k).sh_contains ~tid k
  let put t ~tid k = t.shards.(shard_of t k).sh_insert ~tid k
  let delete t ~tid k = t.shards.(shard_of t k).sh_delete ~tid k

  (* Shard-local scan: the keys of [k, k+len) (mod keyspace) present
     in [k]'s shard — the single-partition leg of a scatter-gather
     range read on a hash-partitioned store.  A range that wraps past
     the keyspace is counted in two pieces, [k]'s first. *)
  let scan t ~tid k len =
    let sh = t.shards.(shard_of t k) and ks = t.cfg.Cfg.keyspace in
    if len > ks then invalid_arg "Kv.Store.scan: len > keyspace";
    let lo = k mod ks in
    let hi = lo + len in
    if hi <= ks then sh.sh_count ~tid lo hi
    else
      let upper = sh.sh_count ~tid lo ks in
      upper + sh.sh_count ~tid 0 (hi - ks)

  let shard_of_op t (op : Nbr_workload.Traffic.op) =
    match op with
    | Get k | Put k | Delete k | Scan (k, _) -> shard_of t k

  (* Execute [op] on shard [shard] (which must be [shard_of_op t op] —
     the batching pipeline groups requests per shard before executing).
     Returns 1 for a successful update / present key, else 0; scans
     return their hit count. *)
  let exec_on t ~tid ~shard (op : Nbr_workload.Traffic.op) =
    let sh = t.shards.(shard) in
    match op with
    | Get k -> if sh.sh_contains ~tid k then 1 else 0
    | Put k -> if sh.sh_insert ~tid k then 1 else 0
    | Delete k -> if sh.sh_delete ~tid k then 1 else 0
    | Scan (k, len) -> scan t ~tid k len

  let size t =
    Array.fold_left (fun acc sh -> acc + sh.sh_size ()) 0 t.shards

  (* Fault / lifecycle verbs the service pipeline composes.  Stalls and
     crashes target shard 0: the victim holds (or abandons) an in-flight
     operation on one shard, and — faults being the only time this
     matters — the armed watchdogs of {e every} shard can reap the
     frozen thread via its stopped heartbeat. *)
  let stall t ~tid ns = t.shards.(0).sh_stall ~tid ns
  let crash t ~tid = t.shards.(0).sh_crash ~tid

  (* Manufactured pool pressure on one shard: shard 0 for a plain hog,
     the victim the slo-chaos adversary picks for a shard hog, so a
     specific breaker trips. *)
  let hog t ~shard ~slots ~ns =
    t.shards.(shard mod t.cfg.Cfg.nshards).sh_hog ~slots ~ns

  let health t ~shard = t.shards.(shard).sh_health ()
  let hs_timeouts t ~tid ~shard = t.shards.(shard).sh_hs_timeouts ~tid
  let churn t ~tid = Array.iter (fun sh -> sh.sh_churn ~tid) t.shards
  let drain t ~tid = Array.iter (fun sh -> sh.sh_drain ~tid) t.shards
  let run_reclaimer t i = t.shards.(i).sh_reclaimer_run ()

  let stop_reclaimers t =
    Array.iter (fun sh -> sh.sh_reclaimer_stop ()) t.shards

  let reset_peaks t = Array.iter (fun sh -> sh.sh_reset_peak ()) t.shards

  let garbage_bound t =
    Array.fold_left (fun acc sh -> max acc sh.sh_bound) 0 t.shards

  let stats t =
    Array.fold_left
      (fun acc sh ->
        let ps = sh.sh_pool_stats () in
        let ss = sh.sh_smr_stats () in
        let d, r = sh.sh_offload_counts () in
        {
          st_size = acc.st_size + sh.sh_size ();
          st_in_use = acc.st_in_use + ps.P.s_in_use;
          st_peak_in_use = acc.st_peak_in_use + ps.P.s_peak_in_use;
          st_uaf_reads = acc.st_uaf_reads + ps.P.s_uaf_reads;
          st_committed_uaf =
            acc.st_committed_uaf + Nbr_core.Smr_stats.committed_uaf ss;
          st_max_garbage =
            max acc.st_max_garbage (Nbr_core.Smr_stats.max_garbage ss);
          st_peak_garbage = max acc.st_peak_garbage ps.P.s_peak_garbage;
          st_pressure_events =
            acc.st_pressure_events + ps.P.s_pressure_events;
          st_alloc_retries = acc.st_alloc_retries + ps.P.s_alloc_retries;
          st_restarts = acc.st_restarts + Nbr_core.Smr_stats.restarts ss;
          st_degrades = acc.st_degrades + d;
          st_restores = acc.st_restores + r;
          st_handshake_timeouts =
            acc.st_handshake_timeouts
            + Nbr_core.Smr_stats.handshake_timeouts ss;
        })
      {
        st_size = 0;
        st_in_use = 0;
        st_peak_in_use = 0;
        st_uaf_reads = 0;
        st_committed_uaf = 0;
        st_max_garbage = 0;
        st_peak_garbage = 0;
        st_pressure_events = 0;
        st_alloc_retries = 0;
        st_restarts = 0;
        st_degrades = 0;
        st_restores = 0;
        st_handshake_timeouts = 0;
      }
      t.shards
end
