(** Test-and-test-and-set spinlocks over runtime atomic cells.

    Locks guard the write phases of the lock-based structures (lazy list,
    DGT tree, (a,b)-tree).  A lock is one cell of a runtime cell block,
    named by [(cells, index)] — typically record [h]'s lock word, cell
    [Pool.uid h] of [Pool.locks] — so one implementation serves both
    runtimes.

    NBR interplay: locks may only be taken in a write phase (the thread is
    non-restartable there), so a lock holder can never be neutralized while
    holding a lock — the deadlock that rules out DEBRA+ for these
    structures (paper §1) cannot happen by construction.  A debug assertion
    in [lock] enforces the discipline; the static analyzer (DESIGN.md §16,
    rule R1) enforces it at build time. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) : sig
  val unlocked : int
  (** The released lock word (0). *)

  val locked_by : int -> int
  (** [locked_by tid] is the lock word recording [tid] as holder. *)

  val try_lock : Rt.cells -> int -> bool
  (** [try_lock cells i] attempts to acquire lock [i]; never blocks. *)

  val lock : Rt.cells -> int -> unit
  (** [lock cells i] spins until acquired.  Must not be called while the
      calling thread is restartable (read phase). *)

  val unlock : Rt.cells -> int -> unit
  (** [unlock cells i] releases; the caller must hold the lock. *)

  val is_locked : Rt.cells -> int -> bool
  (** Whether the lock is currently held by anyone (validation aid). *)
end
