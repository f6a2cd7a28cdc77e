(** Analysis suite for the NBR reproduction (DESIGN.md §11).

    Three tools over the deterministic simulator:

    - {!Explore} — schedule exploration: bounded-exhaustive DFS with a
      preemption bound for tiny scripted scenarios, PCT-style randomized
      swarm for whole trials;
    - {!Certificate} — compact replayable schedule certificates, the
      currency between a search that found a violation and the
      regression test that re-runs it deterministically;
    - {!Sanitizer} — an online protocol checker subscribed to the trace
      stream, flagging use-after-free accesses, unguarded reads,
      incomplete writers' handshakes, unbalanced operations and
      garbage-bound violations as they happen.

    The source-level companion is the compiler: the types of
    [Smr_intf.S] and the idiom alerts of [lib/idiom].  The two attack the
    same protocol from opposite ends — the sanitizer observes one
    executed schedule, the types cover all of them.  See DESIGN.md §16
    for the cross-validation story. *)

module Certificate = Certificate
module Explore = Explore
module Sanitizer = Sanitizer
