(** What the trial runner ({!Runner}) and each KV shard ([Nbr_kv.Store])
    share: one scheme over one structure and its pool, the workers'
    contexts, an optional background reclaimer — its backlog cap and
    pool watermarks are decided here — and the fault and membership
    verbs a run applies to them. *)

(** A set over one pool, as the {!Nbr_ds} functors build it for a
    scheme's [ctx]. *)
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
             and type ctx := Smr.ctx) : sig
  type t = private {
    pool : Nbr_pool.Pool.Make(Rt).t;
    smr : Smr.t;
    cfg : Nbr_core.Smr_config.t;  (** with the structure's reservations *)
    ds : Ds.t;
    ctxs : Smr.ctx array;  (** by worker tid; {!churn} replaces one *)
    recl : Nbr_reclaim.Reclaimer.Make(Rt)(Smr).t option;
  }

  val create :
    capacity:int ->
    nthreads:int ->
    workers:int ->
    reclaim:Nbr_reclaim.Reclaimer.policy option ->
    reclaimer_faults:Nbr_fault.Fault_plan.reclaimer_fault list ->
    reclaimer_tid:int ->
    Nbr_core.Smr_config.t ->
    t
  (** In this order: the pool, the scheme for [nthreads] participants,
      the structure, contexts for workers [\[0, workers)], and, with
      [reclaim], the reclaimer (as [reclaimer_tid]) and the watermarks. *)

  val stall : t -> tid:int -> int -> unit
  (** One read-only phase that sleeps once for the given nanoseconds. *)

  val crash : t -> tid:int -> unit
  (** [Smr.abandon]; the caller must stop using [tid]. *)

  val hog : t -> slots:int -> ns:int -> unit
  (** Take up to [slots] raw pool slots, hold them [ns], free them. *)

  val churn : t -> tid:int -> unit
  (** Deregister [tid], then register it again. *)

  val drain : t -> tid:int -> unit
  (** Collect stranded handoffs, adopt orphans, flush. *)

  val run_reclaimer : t -> unit
  val stop_reclaimer : t -> unit
  (** The reclaimer's role body and the request that ends it (no-ops
      without one). *)
end
