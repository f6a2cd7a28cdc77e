(* Every request a run sends, generated from the seed before the program
   is built, into Bigarrays outside the OCaml heap: the program receives
   only these inputs, and the benchmark's own buffers add nothing to the
   GC heap being measured.

   A request is one int: key lsl 2 lor kind, with kind 0 get, 1 put,
   2 delete, 3 scan (the scan length is fixed per workload).  An
   open-loop lane pairs each request with its due time, in ns from the
   start of the phase. *)

module Traffic = Nbr_workload.Traffic

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints n : ints = Bigarray.(Array1.create int c_layout n)

let k_get = 0
let k_put = 1
let k_del = 2
let k_scan = 3

let encode (op : Traffic.op) =
  match op with
  | Get k -> k lsl 2
  | Put k -> (k lsl 2) lor k_put
  | Delete k -> (k lsl 2) lor k_del
  | Scan (k, _) -> (k lsl 2) lor k_scan

let kind c = c land 3
let key c = c lsr 2
let is_write c = kind c = k_put || kind c = k_del

(* Independent streams per purpose and worker. *)
let rng ~seed ~stream ~worker =
  Nbr_sync.Rng.for_thread ~seed:(seed lxor stream) ~tid:worker

(* Uniform keys for the set-up puts, so every shard starts comparably
   full. *)
let prefill ~seed ~keyspace n =
  let r = rng ~seed ~stream:0x9f11 ~worker:0 in
  let a = ints n in
  for i = 0 to n - 1 do
    a.{i} <- Nbr_sync.Rng.below r keyspace
  done;
  a

(* The closed-loop ring one worker cycles through. *)
let ring tr ~seed ~worker n =
  let r = rng ~seed ~stream:0x4a11 ~worker in
  let a = ints n in
  for i = 0 to n - 1 do
    a.{i} <- encode (Traffic.draw_op tr r)
  done;
  a

type lane = { ops : ints; due : ints; n : int }

(* One worker's open-loop schedule: Poisson arrivals at the traffic's
   rate over [duration_ns].  The first pass only counts, so the arrays
   are allocated exactly once at their final size. *)
let open_loop tr ~seed ~worker ~duration_ns =
  let walk f =
    let r = rng ~seed ~stream:0x0be7 ~worker in
    let t = ref 0 and i = ref 0 in
    let continue = ref true in
    while !continue do
      let op = Traffic.draw_op tr r in
      t := !t + Traffic.next_gap_ns tr r ~frac:0.0;
      if !t >= duration_ns then continue := false
      else begin
        f !i op !t;
        incr i
      end
    done;
    !i
  in
  let n = walk (fun _ _ _ -> ()) in
  let ops = ints n and due = ints n in
  ignore
    (walk (fun i op t ->
         ops.{i} <- encode op;
         due.{i} <- t));
  { ops; due; n }

(* A 64-bit mixing hash over arrays of ints, printed in hex: equal
   schedules give equal digests. *)
let digest (arrays : ints list) =
  let h = ref 0x2545f4914f6cdd1d in
  List.iter
    (fun a ->
      for i = 0 to Bigarray.Array1.dim a - 1 do
        let z = (!h lxor a.{i}) * 0x3f58476d1ce4e5b9 in
        h := z lxor (z lsr 29)
      done;
      h := !h lxor Bigarray.Array1.dim a)
    arrays;
  Printf.sprintf "%016x" (!h land max_int)
