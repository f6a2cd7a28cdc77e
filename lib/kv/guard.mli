(** Service-level overload protection for the sharded KV pipeline
    (DESIGN.md §15): per-request deadlines, bounded-inflight admission
    control with reject-newest shedding, budgeted retry with capped
    exponential backoff + jitter, and per-shard circuit breakers with a
    brownout ladder (shed scans first, then writes, reads last) before
    fully opening.

    Runtime-free: every entry point takes [~now] (the caller's
    [Rt.now_ns ()]) and [~tid], so one implementation serves the
    deterministic simulator and the native runtime, and the breaker
    state machine is directly drivable from unit tests.  All shared
    state is atomics; transitions are CAS-guarded so exactly one racing
    worker performs (and traces) each one.

    The ledger invariant reports validate ({!slo_ok}): every admitted
    request is {e exactly one} of completed / shed / timed-out.  A
    guard created without a [Cfg] is disabled — admission always
    proceeds, failures propagate to the caller — but still keeps the
    ledger, so guarded and unguarded runs share accounting. *)

type cls = Read | Write | Scan
(** Request class for shed policy: gets are [Read], puts and deletes
    [Write], scans [Scan]. *)

val cls_of_op : Nbr_workload.Traffic.op -> cls

module Cfg : sig
  type t = {
    deadline_ns : int;
    inflight : int;  (** per-shard admitted-but-incomplete budget *)
    max_retries : int;  (** extra attempts per request *)
    retry_budget_pct : int;  (** retries allowed as % of completions *)
    backoff_ns : int;  (** base backoff before the first retry *)
    backoff_cap_ns : int;
    unhealthy_for : int;  (** consecutive bad polls per ladder rung *)
    recover_for : int;  (** consecutive good polls to step back down *)
    open_ns : int;  (** open-state cooldown before half-open *)
    probes : int;  (** half-open probe budget (all must succeed) *)
  }

  val make :
    ?deadline_ns:int ->
    ?inflight:int ->
    ?max_retries:int ->
    ?retry_budget_pct:int ->
    ?backoff_ns:int ->
    ?backoff_cap_ns:int ->
    ?unhealthy_for:int ->
    ?recover_for:int ->
    ?open_ns:int ->
    ?probes:int ->
    unit ->
    t
  (** Defaults: 200 µs deadline, 64 inflight per shard, 2 retries with
      a 10% budget, 1 µs base backoff capped at 16 µs, 2-poll ladder
      rungs, 50 µs open cooldown, 4 probes.  Raises [Invalid_argument]
      on non-positive or out-of-range values. *)
end

(** The per-shard breaker state machine, exposed for deterministic unit
    tests.  States: closed at brownout level 0–2 (level 1 sheds scans,
    level 2 also writes; reads always pass while closed), open (3, shed
    everything until the cooldown elapses), half-open (4, a bounded
    number of probe requests that must {e all} succeed to reclose). *)
module Breaker : sig
  type transition =
    | Brownout_to of int  (** ladder moved (up or down) to this level *)
    | Opened
    | Half_opened
    | Reclosed

  type t

  val create :
    ?unhealthy_for:int ->
    ?recover_for:int ->
    ?open_ns:int ->
    ?probes:int ->
    unit ->
    t

  val state_code : t -> int
  (** 0..2 = closed at that brownout level, 3 = open, 4 = half-open. *)

  val note_health : t -> now:int -> healthy:bool -> transition option
  (** One health poll.  [unhealthy_for] consecutive bad polls climb one
      ladder rung (level 2 → open); [recover_for] consecutive good polls
      step back down.  Ignored while open or half-open — recovery there
      is time- and probe-driven. *)

  type admission = Proceed | Probe | Reject

  val admit : t -> now:int -> cls:cls -> admission * transition option
  (** Class-gated admission.  An open breaker whose cooldown has elapsed
      moves to half-open here (the winning request becomes the first
      probe). *)

  val note_probe : t -> now:int -> ok:bool -> transition option
  (** Probe outcome in half-open: all [probes] successes reclose; any
      failure re-opens and restarts the cooldown. *)

  val return_probe : t -> unit
  (** Hand back a probe token whose request never executed (deadline
      fired first) — it said nothing about shard health. *)

  val trip : t -> now:int -> transition option
  (** Hard trip ([Exhausted]): straight to open from any state. *)
end

(** {1 Reporting} *)

type slo = {
  slo_on : bool;
  slo_admitted : int;
  slo_completed : int;
  slo_shed : int;
  slo_timed_out : int;
  slo_retries : int;
  slo_exhausted : int;  (** [Exhausted] raises absorbed by the guard *)
  slo_opens : int;
  slo_half_opens : int;
  slo_closes : int;
  slo_brownouts : int;
}
(** Runtime-independent, so sim and native sweeps share reporting. *)

val slo_ok : slo -> bool
(** The request ledger balances: admitted = completed + shed +
    timed-out.  No loss, no double-count. *)

val goodput_pct : slo -> float
(** Completed as a percentage of admitted (100 when nothing arrived). *)

val pp_slo : Format.formatter -> slo -> unit

(** {1 The guard} *)

type t

val create : ?cfg:Cfg.t -> nshards:int -> unit -> t
(** Without [?cfg] the guard is disabled: a pure ledger (admission
    always proceeds, no deadlines, no breakers, failures propagate). *)

val enabled : t -> bool
val deadline_ns : t -> int

val breaker : t -> shard:int -> Breaker.t
(** The shard's breaker (tests and introspection). *)

val healthy_of :
  occupancy:int ->
  capacity:int ->
  pressured:bool ->
  degraded:bool ->
  hs_timed_out:bool ->
  bool
(** The health heuristic over signals the stack already publishes:
    healthy iff not in a watermark excursion, offload not degraded, no
    fresh handshake timeout, and occupancy below ~3/4 capacity (the
    backstop for pools without watermarks). *)

val poll : t -> now:int -> tid:int -> shard:int -> healthy:bool -> unit
(** Feed one health observation to [shard]'s breaker; traces and counts
    any resulting transition. *)

type admission = Admitted of { probe : bool } | Rejected

val admit :
  t -> now:int -> tid:int -> shard:int -> cls:cls -> arrival:int -> admission
(** Admission for a request that arrived at [arrival]: deadline first
    (late arrivals complete as timed-out here), then the per-shard
    inflight budget (reject-newest), then the breaker.  [Rejected]
    requests are already fully accounted and traced.  Keep the [probe]
    flag with the request — {!complete} / {!fail} need it. *)

val pre_exec :
  t -> now:int -> tid:int -> shard:int -> arrival:int -> probe:bool -> bool
(** Deadline recheck immediately before shard execution; [false] means
    the request just completed as timed-out (inflight released, probe
    token returned) and must not execute. *)

val complete : t -> now:int -> tid:int -> shard:int -> probe:bool -> unit
(** Successful completion: releases inflight; a successful probe feeds
    the half-open breaker. *)

val fail :
  t ->
  now:int ->
  tid:int ->
  shard:int ->
  cls:cls ->
  arrival:int ->
  probe:bool ->
  unit
(** Final failure after the retry budget: accounted as timed-out if the
    deadline has passed, shed otherwise; a failed probe re-opens the
    breaker. *)

val forfeit :
  t -> now:int -> tid:int -> shard:int -> cls:cls -> probe:bool -> unit
(** An admitted request its worker can never execute (worker expelled or
    crashed mid-batch): completed as shed so the ledger still
    balances. *)

val note_exhausted : t -> now:int -> tid:int -> shard:int -> unit
(** The shard's pool raised [Exhausted] under this request: hard-trips
    the breaker and counts the absorption. *)

val retry :
  t -> now:int -> tid:int -> shard:int -> arrival:int -> attempt:int ->
  int option
(** [Some delay_ns] if attempt [attempt] (1-based) may retry after that
    backoff: under the per-request cap, inside the global retry budget
    (a fraction of completions plus a small floor), and the delayed
    attempt still lands within the deadline.  Counts and traces the
    retry. *)

val snapshot : t -> slo
