(** Log-linear histogram for latency-scale integers: 4 linear
    sub-buckets per power-of-two octave (values 0..7 exact).

    Fixed memory (244 buckets covering every non-negative int), O(1)
    [record] with no allocation — safe to call once per operation on the
    measurement path.  Quantiles come back as the arithmetic midpoint of
    the sub-bucket the rank falls in (<= 1/8 relative error — fine
    enough that p50 and p99 separate even when an operation's latencies
    all fall inside one octave), clamped to the exact observed min/max.

    Single-writer: one histogram per thread, merged after the run with
    {!merge_into}.  Never share one instance across concurrent writers. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** [record t v] counts sample [v] (negative values clamp to 0). *)

val count : t -> int
(** Samples recorded so far. *)

val merge_into : into:t -> t -> unit
(** Fold a (finished) per-thread histogram into an aggregate. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0,1]: estimated value at that rank, [0.0]
    when empty. *)

type summary = {
  s_count : int;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_p999 : float;
  s_max : int;  (** exact, not bucketed *)
}

val summary : t -> summary

val merged_summaries : t array array -> summary array
(** One row of histograms per thread, merged column by column: entry
    [i] summarizes every row's [i]-th histogram. *)
