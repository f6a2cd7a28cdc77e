(** Production-shaped traffic for the KV serving layer: Zipfian key
    popularity over millions of keys, weighted operation mixes, and
    arrival shapes (steady / flash crowd / diurnal) driving an open-loop
    interarrival process.  Every draw is a pure function of a
    {!Nbr_sync.Rng} stream, so a seeded run is bit-identical on both
    runtimes. *)

module Zipf : sig
  type t
  (** Immutable distribution: the O(n) zeta normalization is paid once
      in {!make} and shared by every thread. *)

  val make : ?theta:float -> n:int -> unit -> t
  (** Gray et al.'s constant-time Zipfian generator (the YCSB one).
      [theta] in [0, 1), default 0.99; [n >= 2] keys.  Raises
      [Invalid_argument] otherwise. *)

  val keyspace : t -> int
  val theta : t -> float

  val rank : t -> Nbr_sync.Rng.t -> int
  (** Popularity rank in [0, n): rank 0 is the hottest key. *)

  val scatter : t -> int -> int
  (** Fixed multiplicative-hash rank → key permutation-ish scatter, so
      the popular head spreads across shards (collisions merge two
      ranks onto one key — harmless for a load generator). *)

  val key : t -> Nbr_sync.Rng.t -> int
  (** [scatter] of [rank]. *)
end

type op =
  | Get of int
  | Put of int
  | Delete of int
  | Scan of int * int  (** start key, range length *)

type mix = {
  m_get : int;
  m_put : int;
  m_del : int;
  m_scan : int;
  m_scan_len : int;
}

val mix :
  ?scan_len:int -> get:int -> put:int -> del:int -> scan:int -> unit -> mix
(** Percentages must sum to 100. *)

val read_heavy : mix
(** 95/3/2/0 — the YCSB-B-shaped default. *)

val write_heavy : mix
(** 50/25/25/0 — the paper's E1 update-heavy shape. *)

val scan_heavy : mix
(** 70/10/10/10, scans of 16-key ranges. *)

val mix_name : mix -> string
val mix_of_name : string -> mix option

type shape =
  | Steady
  | Flash_crowd of { fc_at_pct : int; fc_len_pct : int; fc_mult : int }
      (** offered load jumps to [fc_mult]× for a window starting at
          [fc_at_pct]% of the trial and lasting [fc_len_pct]% *)
  | Diurnal of { d_cycles : int; d_floor_pct : int }
      (** sinusoidal ramp between [d_floor_pct]% and 100% of the base
          rate, [d_cycles] full cycles over the trial *)

val shape_name : shape -> string

val rate_mult : shape -> frac:float -> float
(** Instantaneous offered-load multiplier at elapsed fraction
    [frac ∈ [0,1]] of the trial. *)

type t
(** One generator: an immutable (zipf, mix, shape, base rate) bundle;
    per-thread state lives entirely in the caller's [Rng]. *)

val make :
  ?theta:float ->
  ?mx:mix ->
  ?shape:shape ->
  ?rate_rps:int ->
  keyspace:int ->
  unit ->
  t
(** [rate_rps] is the per-worker base arrival rate; 0 (default) means
    closed-loop (issue back-to-back, no queueing model).  Raises
    [Invalid_argument] on a negative rate, and when [mx] scans with a
    [m_scan_len] longer than [keyspace]: a scan's range wraps past the
    keyspace end at most once. *)

val open_loop : t -> bool

val draw_op : t -> Nbr_sync.Rng.t -> op
(** One request: a Zipf-scattered key under the configured mix. *)

val next_gap_ns : t -> Nbr_sync.Rng.t -> frac:float -> int
(** Exponential interarrival gap at the shape-modulated instantaneous
    rate; 0 when closed-loop. *)
