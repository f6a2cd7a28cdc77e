(** The background reclaimer role (DESIGN.md §12): a dedicated
    participant — domain under the native runtime, fiber under the
    simulator — that drains the limbo-bag handoff channel so workers'
    retire paths stay sweep-free, with clock-free graceful degradation
    to inline reclamation when it stalls, crashes, or falls behind. *)

type policy =
  | Periodic of { interval_ns : int }
      (** sweep collected garbage every [interval_ns] (runtime clock) *)
  | After_n_retires of { n : int }
      (** sweep once [n] records have been collected since the last
          sweep *)
  | On_pressure
      (** sweep when the pool's high watermark fired ({!Make.kick}) or a
          drain just collected something — the default *)

module Make
    (Rt : Nbr_runtime.Runtime_intf.S)
    (Smr : Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t) : sig
  type t

  val create :
    ?policy:policy ->
    ?max_backlog:int ->
    ?faults:Nbr_fault.Fault_plan.reclaimer_fault list ->
    ?slice_ns:int ->
    Smr.t ->
    tid:int ->
    t
  (** A reclaimer for one scheme instance, to run as thread [tid] (by
      convention the extra thread: worker count [n], with
      [Rt.run ~nthreads:(n + 1)]).  [max_backlog] is the handoff-channel
      occupancy past which workers declare the reclaimer behind and
      degrade to inline sweeps; [faults] is the plan's reclaimer
      schedule; [slice_ns] the idle sleep per loop iteration.  Raises
      [Invalid_argument] on a non-positive policy parameter. *)

  val run : t -> unit
  (** The role body: register, then loop — poll signals, interpret
      faults, collect handoffs inside one operation ([Smr.op]),
      sweep per policy (emitting [Async_sweep]), restore the offload
      switch once a degraded channel has drained — until {!stop} is
      observed (then: final drain, offload uninstalled, deregister) or a
      never-restart crash fault fires. *)

  val kick : t -> unit
  (** Pool high-watermark hook: flags pressure for the next loop
      iteration.  Cheap and non-blocking — safe to install as
      [Pool.set_watermarks ~on_high]. *)

  val stop : t -> unit
  (** Ask {!run} to finish (drain, uninstall, deregister, return). *)

  val offload : t -> Nbr_core.Smr_intf.Offload.t
  (** The switchboard {!run} installs — for tests and end-of-trial
      accounting (degrades/restores/handed/collected counters). *)

  val iterations : t -> int
  (** Loop iterations completed so far. *)

  val sweeps : t -> int
  (** Async sweeps performed so far. *)
end
