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
    in [lock] enforces the discipline. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  let unlocked = 0

  let locked_by tid = tid + 1

  (** [try_lock cells i] attempts to acquire lock [i]; never blocks. *)
  let try_lock cells i = Rt.cas_at cells i unlocked (locked_by (Rt.self ()))

  (** [lock cells i] spins until acquired.  Must not be called while the
      calling thread is restartable (read phase). *)
  let lock cells i =
    assert (not (Rt.is_restartable ()));
    let me = locked_by (Rt.self ()) in
    let rec go spins =
      if Rt.cas_at cells i unlocked me then ()
      else begin
        (* Test-and-TAS: spin on plain loads before retrying the RMW. *)
        let rec wait n =
          if n > 0 && Rt.plain_load_at cells i <> unlocked then begin
            Rt.cpu_relax ();
            wait (n - 1)
          end
        in
        wait (min spins 64);
        go (spins * 2)
      end
    in
    go 4

  (** [unlock cells i] releases; the caller must hold the lock. *)
  let unlock cells i =
    assert (Rt.plain_load_at cells i = locked_by (Rt.self ()));
    Rt.store_at cells i unlocked

  (** Whether the lock is currently held by anyone (validation aid). *)
  let is_locked cells i = Rt.plain_load_at cells i <> unlocked
end
