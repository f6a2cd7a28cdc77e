(* See histogram.mli for the contract.  Log-linear layout (HdrHistogram's
   trick at its coarsest useful setting): values 0..7 get one exact bucket
   each; every octave [2^o, 2^(o+1)) above that is split into 4 linear
   sub-buckets of width 2^(o-2), indexed by the two bits below the leading
   one.  244 buckets span every non-negative OCaml int, so [record] never
   range-checks; quantiles read back as the arithmetic midpoint of the
   crossing sub-bucket, bounding relative error by 1/8 — against the <= 2x
   error of the old 1-bucket-per-octave layout, which collapsed p50 and
   p99 onto the same value whenever an operation's latencies fit inside
   one octave (the flat entries ROADMAP item 3 calls out). *)

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : int;
  mutable vmax : int;
  mutable vmin : int;
}

(* 8 exact buckets + 4 sub-buckets for each octave 3..61 (the top octave
   of a 63-bit non-negative int). *)
let buckets = 8 + (4 * 59)

let create () =
  { counts = Array.make buckets 0; n = 0; sum = 0; vmax = 0; vmin = max_int }

let bucket_of v =
  if v < 8 then v
  else begin
    (* b = floor(log2 v) >= 3; the two bits below the leading one pick
       the linear sub-bucket inside octave [2^b, 2^(b+1)). *)
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    let b = bits v 0 - 1 in
    let sub = (v lsr (b - 2)) land 3 in
    8 + ((b - 3) * 4) + sub
  end

let record t v =
  let v = if v < 0 then 0 else v in
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v > t.vmax then t.vmax <- v;
  if v < t.vmin then t.vmin <- v

let count t = t.n

let merge_into ~into t =
  for i = 0 to buckets - 1 do
    into.counts.(i) <- into.counts.(i) + t.counts.(i)
  done;
  into.n <- into.n + t.n;
  into.sum <- into.sum + t.sum;
  if t.vmax > into.vmax then into.vmax <- t.vmax;
  if t.vmin < into.vmin then into.vmin <- t.vmin

(* Arithmetic midpoint of bucket [b]'s value range, clamped to the
   observed extrema so tiny histograms don't report values never seen. *)
let bucket_mid t b =
  let v =
    if b < 8 then float_of_int b
    else begin
      let o = ((b - 8) / 4) + 3 in
      let s = (b - 8) mod 4 in
      let w = 1 lsl (o - 2) in
      let lo = (1 lsl o) + (s * w) in
      float_of_int lo +. (float_of_int (w - 1) /. 2.0)
    end
  in
  let v = Float.min v (float_of_int t.vmax) in
  if t.vmin < max_int then Float.max v (float_of_int t.vmin) else v

let quantile t q =
  if t.n = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int t.n)) in
    let rank = if rank < 1 then 1 else if rank > t.n then t.n else rank in
    let acc = ref 0 and b = ref 0 and out = ref (float_of_int t.vmax) in
    let found = ref false in
    while (not !found) && !b < buckets do
      acc := !acc + t.counts.(!b);
      if !acc >= rank then begin
        out := bucket_mid t !b;
        found := true
      end;
      incr b
    done;
    !out
  end

type summary = {
  s_count : int;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_p999 : float;
  s_max : int;
}

let summary t =
  {
    s_count = t.n;
    s_mean = (if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n);
    s_p50 = quantile t 0.50;
    s_p90 = quantile t 0.90;
    s_p99 = quantile t 0.99;
    s_p999 = quantile t 0.999;
    s_max = t.vmax;
  }

let merged_summaries rows =
  let cols = if Array.length rows = 0 then 0 else Array.length rows.(0) in
  let merged = Array.init cols (fun _ -> create ()) in
  Array.iter (Array.iteri (fun i h -> merge_into ~into:merged.(i) h)) rows;
  Array.map summary merged
