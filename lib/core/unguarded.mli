(** Read side of the schemes with no per-read protection or restarts.

    DEBRA, QSBR and RCU protect a whole operation at once (an epoch or
    grace-period announcement pins every record reachable during it);
    the leaky and unsafe-free foils protect nothing.  None of them does
    anything per dereference and none ever restarts a phase, so their
    phases and guarded reads are one implementation: a phase runs both
    halves straight through, committing any use-after-free read it made
    when it completes; a read loads the word and reports a read that
    lands on a stale handle to the pool's detector and the caller's
    {!Smr_stats}.  A [Stale] source is unreachable for correct use of
    the epoch family (a misuse the sanitizer's [stale_handle] rule
    convicts) and the point of the unsafe-free foil; either way the
    recycled memory is consumed as the unprotected read it is, and the
    phase's [uaf_commit] classifies it. *)

module Make (Rt : Nbr_runtime.Runtime_intf.S) : sig
  type pool = Nbr_pool.Pool.Make(Rt).t

  val phase :
    Smr_stats.t -> read:(unit -> 'a * int array) -> write:('a -> 'b) -> 'b

  val read_only : Smr_stats.t -> (unit -> 'a) -> 'a
  val read_root : pool -> Smr_stats.t -> Rt.aint -> int
  val read_ptr : pool -> Smr_stats.t -> src:int -> field:int -> int
  val read_raw : pool -> src:int -> field:int -> int
  val read_data : pool -> Smr_stats.t -> src:int -> field:int -> int
  val peek_ptr : pool -> Smr_stats.t -> src:int -> field:int -> int
end
