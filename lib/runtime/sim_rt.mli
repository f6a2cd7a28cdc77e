(** Deterministic simulated-multicore runtime.

    {!Runtime_intf.S} as a discrete-event simulation: worker "threads"
    are cooperative fibers (OCaml 5 effects) scheduled by virtual time,
    and every shared-memory access is charged cycles under a small cost
    model — cache-coherence misses on ownership transfer, dearer
    read-modify-writes, kernel-crossing costs for signals, context-switch
    and time-slice modelling for oversubscription.  A signal is delivered
    before the victim's next shared access, which gives the paper's
    Assumption 4 exactly.  Single-domain and not reentrant: one {!run} at
    a time.

    {b Cell layout and cost contract.}  A {!cells} block of [n] cells is
    an unboxed [int array] of the [n] values and, beside it, a [Bytes.t]
    of [n] 16-bit coherence-owner tags: 10 bytes per cell; a standalone
    {!aint} is a block of one.  The tag holds every tid below
    {!max_threads}.  An indexed operation ([load_at], [cas_at], ...) is
    charged {e exactly} like the same operation on a standalone {!aint}:
    same base cost, same ownership-transfer miss, same jitter draw, same
    yield and signal-delivery prologue — one code path serves both, so
    which representation holds a word never changes a virtual-time
    result. *)

include Runtime_intf.S

val max_threads : int
(** Largest [nthreads] that {!run} accepts: every tid must fit a 16-bit
    owner tag.  {!run} raises [Invalid_argument] above it. *)

(** {1 Cost model} *)

type config = {
  cores : int;  (** simulated hardware threads *)
  ghz : float;  (** cycles per nanosecond, for {!now_ns} *)
  granularity : int;  (** cycles of work between scheduler yields *)
  quantum : int;  (** cycles per time slice when oversubscribed *)
  ctx_switch : int;  (** cycles charged per involuntary context switch *)
  c_plain_load : int;  (** cache-hit plain load *)
  c_load : int;  (** cache-hit synchronising load *)
  c_store : int;  (** store to an owned line *)
  c_atomic : int;  (** CAS/FAA/XCHG on an owned line (incl. fence) *)
  c_miss : int;  (** extra cycles when the line is owned elsewhere *)
  c_signal_send : int;  (** pthread_kill: kernel crossing on the sender *)
  c_signal_handle : int;  (** handler entry on the victim *)
  c_setjmp : int;  (** sigsetjmp checkpoint cost *)
  c_longjmp : int;  (** siglongjmp + restart cost *)
  jitter : int;  (** max extra cycles added per access, from a seeded prng *)
  seed : int;  (** jitter prng seed *)
}

val default_config : config
val set_config : config -> unit
val get_config : unit -> config

(** {1 Watchdogs and schedule control} *)

exception Stuck of string
(** Raised by {!run} when the event budget is exhausted — a watchdog
    against livelocked workloads. *)

val set_max_events : int -> unit
(** Event budget for {!run}; [0] (the default) is unlimited. *)

val total_events : unit -> int
(** Scheduling events (fiber resumptions) of the current or last {!run}. *)

val set_schedule_controller :
  (last:int -> runnable:int array -> int) option -> unit
(** Delegate every scheduling decision to a controller (the [lib/check]
    explorer): it is shown the ids of all unfinished fibers, sorted, plus
    the id of the fiber that ran last ([-1] initially), and returns an
    index into that array (out-of-range returns are clamped to 0).  A
    schedule is then fully described by its decision sequence.  Virtual
    clocks still advance but no longer drive scheduling. *)
