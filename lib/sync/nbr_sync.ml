(** Synchronization substrate: PRNG, cache-line padding, lock-free stack,
    thread-local vectors.

    Runtime-independent building blocks, below {!Nbr_runtime} in the
    dependency order (the native runtime itself uses {!Padded} for its
    per-thread signal state).  Record locks are runtime-parametric and
    live in [nbr.pool] ([Pool.lock]). *)

module Rng = Rng
module Int_vec = Int_vec
module Padded = Padded
module Treiber = Treiber
