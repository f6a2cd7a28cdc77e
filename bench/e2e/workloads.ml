(* The benchmark's workloads.  Every one runs the paper's scheme (nbr+)
   and sends pre-generated requests through Kv.Store on the simulated
   16-core machine, whose virtual clock makes every latency and
   throughput a deterministic function of the seed; README.md gives the
   reason for each workload and the layers it exercises or bypasses. *)

module Traffic = Nbr_workload.Traffic

type t = {
  name : string;
  why : string;
  structure : string;
  nshards : int;
  keyspace : int;
  shard_capacity : int option;  (** [None]: the store's default *)
  prefill : int;  (** uniform put attempts at set-up *)
  theta : float;  (** Zipf skew of request keys; 0 is uniform *)
  mix : Traffic.mix;
  workers : int;  (** request workers *)
  stalled : bool;
      (** one more thread (tid 1) sits inside a read phase for the whole
          of every phase — the paper's delayed thread *)
  guard : bool;  (** Kv.Guard on every request, as Kv.Service uses it *)
  bag_threshold : int;
  rate_rps : int;  (** open-loop arrivals per worker, in virtual time *)
  window_ns : int;  (** one open-loop latency window, virtual *)
  slice_ns : int;  (** one closed-loop capacity slice, virtual *)
  ring : int;  (** closed-loop requests pre-generated per worker *)
}

(* Simulated rates sit at 25–50% of the measured closed-loop capacity
   per worker; window and slice lengths are virtual, chosen so that each
   takes about a second of wall time on a 2 GHz Xeon VM. *)
let kv_read_large =
  {
    name = "kv-read-large";
    why =
      "read-heavy Zipf gets on ~400k keys in hash-set chains of ~50: \
       traversal and the SMR read path dominate; guard and scans bypassed";
    structure = "hash-set";
    nshards = 4;
    keyspace = 1 lsl 20;
    shard_capacity = Some (1 lsl 18);
    prefill = 500_000;
    theta = 0.99;
    mix = Traffic.read_heavy;
    workers = 4;
    stalled = false;
    guard = false;
    bag_threshold = 512;
    rate_rps = 2_000_000;
    window_ns = 12_000_000;
    slice_ns = 5_000_000;
    ring = 1 lsl 18;
  }

let kv_write_small =
  {
    kv_read_large with
    name = "kv-write-small";
    why =
      "write-heavy on ~26k keys: pool alloc/free, limbo bags and sweeps \
       dominate, so a read-path gain that costs writes shows here";
    keyspace = 1 lsl 16;
    shard_capacity = Some 16_384;
    prefill = 32_768;
    mix = Traffic.write_heavy;
    rate_rps = 1_600_000;
    window_ns = 25_000_000;
    slice_ns = 12_000_000;
  }

let kv_scan_tree =
  {
    kv_read_large with
    name = "kv-scan-tree";
    why =
      "16-probe scans on (a,b)-tree shards behind Kv.Guard: the only \
       workload on the ab-tree and the guard";
    structure = "ab-tree";
    keyspace = 1 lsl 18;
    shard_capacity = None;
    prefill = 1 lsl 17;
    mix = Traffic.scan_heavy;
    guard = true;
    rate_rps = 700_000;
    window_ns = 40_000_000;
    slice_ns = 16_000_000;
  }

let sim_stall =
  {
    name = "sim-stall";
    why =
      "16 simulated threads, one stalled in a read phase throughout: \
       signals, neutralization and bounded garbage under a delayed thread";
    structure = "ab-tree";
    nshards = 1;
    keyspace = 65_536;
    shard_capacity = Some (1 lsl 17);
    prefill = 32_768;
    theta = 0.0;
    mix = Traffic.write_heavy;
    workers = 15;
    stalled = true;
    guard = false;
    bag_threshold = 512;
    rate_rps = 600_000;
    window_ns = 15_000_000;
    slice_ns = 4_000_000;
    ring = 1 lsl 16;
  }

let all = [ kv_read_large; kv_write_small; kv_scan_tree; sim_stall ]
let find name = List.find_opt (fun w -> w.name = name) all

(* Tiny sizes and short phases, for tests: every code path, in well
   under a second per run. *)
let smoke w =
  let div n = max 1 (n / 64) in
  {
    w with
    keyspace = max 1024 (div w.keyspace);
    shard_capacity = Option.map (fun c -> max 16_384 (div c)) w.shard_capacity;
    prefill = div w.prefill;
    window_ns = min 50_000_000 (w.window_ns / 10);
    slice_ns = min 50_000_000 (w.slice_ns / 10);
    ring = 4096;
  }

let scan_len w = w.mix.Traffic.m_scan_len

(* Phase plan for a run of [seconds]: roughly 30% closed-loop capacity
   slices and 70% open-loop windows, after one discarded warm-up slice. *)
let capacity_slices ~seconds = max 2 (3 * seconds / 10)
let open_windows ~seconds = max 3 (seconds - capacity_slices ~seconds)
