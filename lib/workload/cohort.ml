(* The set-up and verbs the trial runner and each KV shard share. *)

module type STRUCTURE = sig
  type pool
  type ctx
  type t

  val name : string
  val data_fields : int
  val ptr_fields : int
  val max_reservations : int
  val create : pool -> t
  val contains : t -> ctx -> int -> bool
  val insert : t -> ctx -> int -> bool
  val delete : t -> ctx -> int -> bool
  val size : pool -> t -> int
end

module Make
    (Rt : Nbr_runtime.Runtime_intf.S)
    (Smr : Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t)
    (Ds : STRUCTURE
            with type pool := Nbr_pool.Pool.Make(Rt).t
             and type ctx := Smr.ctx) =
struct
  module P = Nbr_pool.Pool.Make (Rt)
  module R = Nbr_reclaim.Reclaimer.Make (Rt) (Smr)

  type t = {
    pool : P.t;
    smr : Smr.t;
    cfg : Nbr_core.Smr_config.t;
    ds : Ds.t;
    ctxs : Smr.ctx array;
    recl : R.t option;
  }

  let create ~capacity ~nthreads ~workers ~reclaim ~reclaimer_faults
      ~reclaimer_tid cfg =
    let pool =
      P.create ~capacity ~data_fields:Ds.data_fields
        ~ptr_fields:Ds.ptr_fields ~nthreads ()
    in
    let cfg =
      { cfg with Nbr_core.Smr_config.max_reservations = Ds.max_reservations }
    in
    let smr = Smr.create pool ~nthreads cfg in
    let ds = Ds.create pool in
    let ctxs = Array.init workers (fun tid -> Smr.register smr ~tid) in
    let recl =
      Option.map
        (fun policy ->
          let r =
            R.create ~policy
              ~max_backlog:(max 64 (2 * cfg.Nbr_core.Smr_config.bag_threshold))
              ~faults:reclaimer_faults smr ~tid:reclaimer_tid
          in
          (* Watermarks with hysteresis: the high crossing (3/4 of
             capacity) kicks the reclaimer well before starvation would
             drive on_pressure, and the low mark re-arms the trigger. *)
          P.set_watermarks pool ~lo:(capacity / 2)
            ~hi:(capacity - (capacity / 4))
            ~on_high:(fun () -> R.kick r);
          r)
        reclaim
    in
    { pool; smr; cfg; ds; ctxs; recl }

  (* A stall pauses inside an operation — and, for phase-based schemes,
     inside a read phase — holding whatever the scheme pins for
     in-flight operations. *)
  let stall c ~tid ns =
    let stalled = ref false in
    Smr.op c.ctxs.(tid) (fun op ->
        Smr.read_only op { Smr.view = (fun _ ->
            if not !stalled then begin
              stalled := true;
              Rt.stall_ns ns
            end) })

  (* The scheme's in-op state — epoch/interval announcements, the
     reservations left published by the previous phase, the whole limbo
     bag — is orphaned forever. *)
  let crash c ~tid = Smr.abandon c.ctxs.(tid)

  (* Raw slots, no reclamation flush on this path: the hog is the
     adversary, not an SMR client. *)
  let hog c ~slots ~ns =
    let held = ref [] in
    (try
       for _ = 1 to slots do
         held := P.alloc c.pool :: !held
       done
     with P.Exhausted _ -> ());
    Rt.stall_ns ns;
    List.iter (fun s -> P.free c.pool s) !held

  let churn c ~tid =
    Smr.deregister c.ctxs.(tid);
    c.ctxs.(tid) <- Smr.register c.smr ~tid

  (* Stranded handoffs first: parcels exported before a reclaimer crash
     would otherwise never be swept. *)
  let drain c ~tid =
    let ctx = c.ctxs.(tid) in
    ignore (Smr.collect_handoffs ctx);
    Smr.adopt_orphans ctx;
    Smr.on_pressure ctx

  let run_reclaimer c = Option.iter R.run c.recl
  let stop_reclaimer c = Option.iter R.stop c.recl
end
