(** Online SMR-protocol sanitizer.

    Subscribes to the observability trace stream ({!Nbr_obs.Trace})
    and checks per-event, as the execution runs, that the reclamation
    protocol is being honoured.  It rebuilds a model of every record's
    lifecycle (allocated → retired → freed) from the pool's fine-grained
    events and applies happens-before rules, some of them only under
    the scheme's declared protection kind:

    - [uaf_access] — a guarded read hit a record the model knows is
      freed (the paper's safety property, every kind);
    - [unguarded_access] — [Neutralization] only: a guarded read
      outside a checkpointed read phase (after the reservations were
      published, or before the checkpoint), where a signal could no
      longer restart the reader;
    - [handshake_incomplete] — a reclaimer freed records while a victim
      of its own still-unobserved neutralization signal kept performing
      guarded accesses: the writers' handshake (paper Assumption 4)
      failed, as it does under injected signal drops;
    - [unbalanced_op] — [begin_op]/[end_op] nesting errors, including
      threads still inside an operation at {!detach};
    - [garbage_bound] — the global retired-unreclaimed count exceeded
      the configured bound (the paper's P2, latched once per run);
    - [stale_handle] — [Epoch] only: a validated read caught a stale
      handle inside an operation, which a grace period rules out;
    - [foreign_sweep] — every kind: an async ([Async_sweep]) sweep by
      a thread that was never handed a limbo bag through the
      orphan-parcel or reclaimer-handoff channels — i.e. it swept
      garbage it neither owns nor legitimately adopted.

    Violations carry the last few trace events as context and render to
    deterministic strings, which is what lets certificate-replay tests
    compare two runs byte-for-byte.

    Simulator-only as an exact tool: {!Nbr_obs.Trace.subscribe} is
    called synchronously from [emit], which reflects true event order
    only under the single-domain simulator.  Attaching enables the
    trace's verbose tier ({!Nbr_obs.Trace.set_verbose}), so the
    fine-grained events exist while — and only while — a checker wants
    them. *)

type config = {
  protection : Nbr_core.Smr_intf.protection;
      (** the checked scheme's declared protection *)
  nthreads : int;
  garbage_bound : int option;
      (** flag [garbage_bound] when retired-unreclaimed exceeds this;
          [None] disables the rule (e.g. for deliberately leaky runs) *)
}

type violation = {
  v_rule : string;
  v_tid : int;  (** thread the violating event belongs to *)
  v_ns : int;  (** virtual timestamp of the violating event *)
  v_detail : string;
  v_context : string list;  (** trailing event window, oldest first *)
}

type t

val attach : config -> t
(** Create a checker and subscribe it to the trace stream (enabling the
    trace for [nthreads] if not already enabled, and switching the
    verbose tier on).  At most one subscriber exists; attaching replaces
    any previous one. *)

val detach : t -> unit
(** Unsubscribe, switch the verbose tier back off, and run end-of-run
    checks (threads still inside an operation).  The checker's findings
    remain readable afterwards. *)

val violations : t -> violation list
(** Findings in detection order (capped at 200; see
    {!total_violations}). *)

val total_violations : t -> int
(** Total detections, including any past the recording cap. *)

val violation_to_string : violation -> string
(** Deterministic one-line rendering (rule, thread, virtual time,
    detail) — stable across replays of the same schedule. *)
