(* Host-noise record.  On a shared VM the same code has measured 185–430
   kreq/s closed loop within twenty minutes, so every run records how
   busy and how fast the host was while it ran:

   - steal: the share of CPU time the hypervisor gave to other guests,
     from the aggregate "cpu" line of /proc/stat (absent → 0);
   - alu: ns per iteration of a fixed dependent integer loop;
   - mem: ns per load of a random cyclic pointer chase through 64 MiB,
     larger than any last-level cache here.

   The two calibrations run before and after the workload; a run whose
   calibration moved by more than [tolerance], or whose steal exceeded
   it, is marked noisy. *)

let tolerance = 0.05

type cpu = { steal : int; total : int }

let read_cpu () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file -> None
          | line -> (
              match
                String.split_on_char ' ' line
                |> List.filter (fun s -> s <> "")
              with
              | "cpu" :: fields ->
                  let v = Array.of_list (List.filter_map int_of_string_opt fields) in
                  if Array.length v < 8 then None
                  else Some { steal = v.(7); total = Array.fold_left ( + ) 0 v }
              | _ -> None))

(* Steal as a percentage of all CPU time between two readings. *)
let steal_pct a b =
  match (a, b) with
  | Some a, Some b when b.total > a.total ->
      100.0 *. float_of_int (b.steal - a.steal) /. float_of_int (b.total - a.total)
  | _ -> 0.0

let now_ns = Nbr_runtime.Native_rt.now_ns

let median_of k f = Stats.median (Array.init k (fun _ -> f ()))

let alu_iters = 1 lsl 22

let alu_ns () =
  median_of 5 (fun () ->
      let t0 = now_ns () in
      let x = ref 0x9e3779b9 in
      for _ = 1 to alu_iters do
        x := !x lxor (!x lsl 13);
        x := !x lxor (!x lsr 7);
        x := !x lxor (!x lsl 17)
      done;
      let dt = now_ns () - t0 in
      ignore (Sys.opaque_identity !x);
      float_of_int dt /. float_of_int alu_iters)

type chase = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let chase_steps = 1 lsl 18
let line_words = 8

(* One pointer per 64-byte line, linked in the order of a Sattolo
   shuffle: a single cycle through every line of the array, in an order
   the prefetcher cannot follow. *)
let make_chase ~mib : chase =
  let lines = mib * 1024 * 1024 / 64 in
  let perm = Bigarray.(Array1.create int c_layout lines) in
  for i = 0 to lines - 1 do
    perm.{i} <- i
  done;
  let rng = Nbr_sync.Rng.create 0x5a77010 in
  for i = lines - 1 downto 1 do
    let j = Nbr_sync.Rng.below rng i in
    let t = perm.{i} in
    perm.{i} <- perm.{j};
    perm.{j} <- t
  done;
  let a = Bigarray.(Array1.create int c_layout (lines * line_words)) in
  for i = 0 to lines - 1 do
    a.{i * line_words} <- perm.{i} * line_words
  done;
  a

let mem_ns (a : chase) =
  median_of 3 (fun () ->
      let t0 = now_ns () in
      let p = ref 0 in
      for _ = 1 to chase_steps do
        p := Bigarray.Array1.unsafe_get a !p
      done;
      let dt = now_ns () - t0 in
      ignore (Sys.opaque_identity !p);
      float_of_int dt /. float_of_int chase_steps)

type calib = { alu : float; mem : float }

let calibrate chase = { alu = alu_ns (); mem = mem_ns chase }

let moved a b = Float.abs ((b /. a) -. 1.0) > tolerance

let noisy ~before ~after ~steal =
  moved before.alu after.alu || moved before.mem after.mem
  || steal > 100.0 *. tolerance
