(* Production-shaped traffic for the KV serving layer (DESIGN.md §14).

   Three orthogonal pieces, all pure functions of a SplitMix64 stream so
   a seeded run is bit-identical on both runtimes:

   - key popularity: a Zipfian distribution over keyspaces of millions
     of keys, using Gray et al.'s constant-time inversion (the YCSB
     generator) — the zeta normalization constant is the only O(n) cost
     and is computed once per distribution, shared by every thread;
     ranks are scattered across the keyspace with a multiplicative hash
     so "hot" keys do not cluster in one shard;
   - operation mix: percentage-weighted get/put/delete/scan presets
     (read-heavy, write-heavy, scan-heavy) or custom mixes;
   - arrival shape: a rate multiplier over the trial window (steady,
     flash crowd, diurnal ramp) applied to an open-loop exponential
     interarrival draw, so latency measured from *arrival* captures
     queueing delay when the service falls behind the offered load. *)

(* ------------------------------------------------------------------ *)
(* Zipfian key popularity.                                            *)

module Zipf = struct
  type t = {
    n : int;
    theta : float;
    alpha : float;
    zetan : float;
    eta : float;
    half_pow_theta : float;
  }

  let zeta n theta =
    let z = ref 0.0 in
    for i = 1 to n do
      z := !z +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    !z

  let make ?(theta = 0.99) ~n () =
    if n < 2 then invalid_arg "Zipf.make: keyspace must have >= 2 keys";
    if theta < 0.0 || theta >= 1.0 then
      invalid_arg "Zipf.make: theta must be in [0, 1)";
    let zetan = zeta n theta in
    let zeta2 = 1.0 +. (1.0 /. Float.pow 2.0 theta) in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. zetan))
    in
    { n; theta; alpha; zetan; eta; half_pow_theta = Float.pow 0.5 theta }

  let keyspace t = t.n
  let theta t = t.theta

  (* Gray's inversion: rank 0 is the hottest key. *)
  let rank t rng =
    let u = Nbr_sync.Rng.float rng in
    let uz = u *. t.zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. t.half_pow_theta then 1
    else
      let r =
        int_of_float
          (float_of_int t.n
          *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha)
      in
      if r >= t.n then t.n - 1 else if r < 0 then 0 else r

  (* Fixed rank → key scatter (Fibonacci-style multiplicative hash, as
     in YCSB's scrambled variant): spreads the popular head across the
     keyspace so hot keys land in different shards.  Collisions merge
     two ranks onto one key — harmless for a load generator. *)
  let scatter t r = (r * 0x27220a95) land max_int mod t.n
  let key t rng = scatter t (rank t rng)
end

(* ------------------------------------------------------------------ *)
(* Operation mix.                                                     *)

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

let mix ?(scan_len = 16) ~get ~put ~del ~scan () =
  if get < 0 || put < 0 || del < 0 || scan < 0 then
    invalid_arg "Traffic.mix: negative percentage";
  if get + put + del + scan <> 100 then
    invalid_arg "Traffic.mix: percentages must sum to 100";
  if scan > 0 && scan_len < 1 then invalid_arg "Traffic.mix: scan_len < 1";
  { m_get = get; m_put = put; m_del = del; m_scan = scan; m_scan_len = scan_len }

let read_heavy = mix ~get:95 ~put:3 ~del:2 ~scan:0 ()
let write_heavy = mix ~get:50 ~put:25 ~del:25 ~scan:0 ()
let scan_heavy = mix ~get:70 ~put:10 ~del:10 ~scan:10 ~scan_len:16 ()

let mix_name m =
  if m = read_heavy then "read-heavy"
  else if m = write_heavy then "write-heavy"
  else if m = scan_heavy then "scan-heavy"
  else
    Printf.sprintf "%dg/%dp/%dd/%ds" m.m_get m.m_put m.m_del m.m_scan

let mix_of_name = function
  | "read-heavy" -> Some read_heavy
  | "write-heavy" -> Some write_heavy
  | "scan-heavy" -> Some scan_heavy
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Arrival shape.                                                     *)

type shape =
  | Steady
  | Flash_crowd of { fc_at_pct : int; fc_len_pct : int; fc_mult : int }
      (** offered load jumps to [fc_mult]× for a window starting at
          [fc_at_pct]% of the trial and lasting [fc_len_pct]% *)
  | Diurnal of { d_cycles : int; d_floor_pct : int }
      (** sinusoidal ramp between [d_floor_pct]% and 100% of the base
          rate, [d_cycles] full cycles over the trial *)

let shape_name = function
  | Steady -> "steady"
  | Flash_crowd { fc_at_pct; fc_len_pct; fc_mult } ->
      Printf.sprintf "flash(%d%%+%d%%,x%d)" fc_at_pct fc_len_pct fc_mult
  | Diurnal { d_cycles; d_floor_pct } ->
      Printf.sprintf "diurnal(%dc,%d%%)" d_cycles d_floor_pct

(* [frac] is elapsed trial time in [0,1]. *)
let rate_mult shape ~frac =
  match shape with
  | Steady -> 1.0
  | Flash_crowd { fc_at_pct; fc_len_pct; fc_mult } ->
      let a = float_of_int fc_at_pct /. 100.0 in
      let l = float_of_int fc_len_pct /. 100.0 in
      if frac >= a && frac < a +. l then float_of_int fc_mult else 1.0
  | Diurnal { d_cycles; d_floor_pct } ->
      let fl = float_of_int d_floor_pct /. 100.0 in
      fl
      +. (1.0 -. fl) *. 0.5
         *. (1.0
            -. Float.cos
                 (2.0 *. Float.pi *. float_of_int d_cycles *. frac))

(* ------------------------------------------------------------------ *)
(* A generator: one immutable bundle, one mutable Rng per thread.      *)

type t = { zipf : Zipf.t; mx : mix; shape : shape; base_gap_ns : int }

let make ?(theta = 0.99) ?(mx = read_heavy) ?(shape = Steady)
    ?(rate_rps = 0) ~keyspace () =
  if rate_rps < 0 then invalid_arg "Traffic.make: negative rate";
  (* A scan's range wraps once past the keyspace end; a longer one
     would count keys twice. *)
  if mx.m_scan > 0 && mx.m_scan_len > keyspace then
    invalid_arg "Traffic.make: scan_len > keyspace";
  let base_gap_ns =
    if rate_rps = 0 then 0 else max 1 (1_000_000_000 / rate_rps)
  in
  { zipf = Zipf.make ~theta ~n:keyspace (); mx; shape; base_gap_ns }

let open_loop t = t.base_gap_ns > 0

let draw_op t rng =
  let k = Zipf.key t.zipf rng in
  let p = Nbr_sync.Rng.below rng 100 in
  if p < t.mx.m_get then Get k
  else if p < t.mx.m_get + t.mx.m_put then Put k
  else if p < t.mx.m_get + t.mx.m_put + t.mx.m_del then Delete k
  else Scan (k, t.mx.m_scan_len)

(* Exponential interarrival at the shape-modulated instantaneous rate;
   0 under closed-loop configs (the caller issues back-to-back). *)
let next_gap_ns t rng ~frac =
  if t.base_gap_ns = 0 then 0
  else
    let m = rate_mult t.shape ~frac in
    let u = Nbr_sync.Rng.float rng in
    let u = if u < 1e-12 then 1e-12 else u in
    let gap = -.Float.log u *. float_of_int t.base_gap_ns /. m in
    max 1 (int_of_float gap)
