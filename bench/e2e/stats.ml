(* Exact order statistics for the benchmark's reports.

   Latency percentiles are exact (nearest rank over the raw samples, never
   a histogram bucket) and computed per window of due time: one host stall
   that builds a backlog moves at most the windows it touches, and the
   reported value is the median over windows. *)

(* Nearest-rank quantile of a sorted, non-empty array: the smallest value
   with at least [q] of the samples at or below it. *)
let rank_sorted (a : int array) q =
  let n = Array.length a in
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (r - 1)))

let median (xs : float array) =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles(xs, n=4)] ("exclusive" method), so the
   spreads printed here match the ones any Python tooling computes. *)
let quartiles (xs : float array) =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* Samples grouped by window: [add] files one value under a window index,
   [sorted] hands back each window's values in ascending order.  Storage
   grows geometrically per window, so callers need not count first. *)
module Windows = struct
  type t = { vals : int array array; lens : int array }

  let create nwin = { vals = Array.make nwin [||]; lens = Array.make nwin 0 }

  let add t w v =
    if w >= 0 && w < Array.length t.lens then begin
      let n = t.lens.(w) in
      let a = t.vals.(w) in
      let a =
        if n < Array.length a then a
        else begin
          let b = Array.make (max 64 (2 * n)) 0 in
          Array.blit a 0 b 0 n;
          t.vals.(w) <- b;
          b
        end
      in
      a.(n) <- v;
      t.lens.(w) <- n + 1
    end

  let sorted t =
    Array.mapi
      (fun w a ->
        let s = Array.sub a 0 t.lens.(w) in
        Array.sort Int.compare s;
        s)
      t.vals
end

type windowed = {
  value : float;  (** median over non-empty windows of the per-window quantile *)
  windows : int;  (** non-empty windows *)
  min_count : int;  (** fewest samples in any non-empty window *)
  total : int;
}

let windowed (groups : int array array) q =
  let per = ref [] and minc = ref max_int and total = ref 0 in
  Array.iter
    (fun s ->
      let n = Array.length s in
      if n > 0 then begin
        per := float_of_int (rank_sorted s q) :: !per;
        minc := min !minc n;
        total := !total + n
      end)
    groups;
  let v = Array.of_list !per in
  {
    value = median v;
    windows = Array.length v;
    min_count = (if v = [||] then 0 else !minc);
    total = !total;
  }

(* Whole-phase quantile over every window's samples (diagnostics only). *)
let pooled (groups : int array array) q =
  let all = Array.concat (Array.to_list groups) in
  if all = [||] then nan
  else begin
    Array.sort Int.compare all;
    float_of_int (rank_sorted all q)
  end
