(** Simulated manual memory: a pool of fixed-shape records behind
    generational handles.

    OCaml is garbage-collected, so "freeing" a record cannot unmap it.  To
    reproduce an SMR paper we need memory that is explicitly allocated and
    freed, where a slot freed too early gets recycled under a reader's feet
    — i.e. real use-after-free dynamics, minus the segfault.  The pool
    provides exactly that, structured the way production slab allocators
    are:

    - Records live in {e size-classes}: each class has its own slot width
      (data/ptr field counts) and its own field arrays, so a process
      hosting several structures does not pay the widest layout
      everywhere.
    - A record is named by a {e generational handle}: one immutable int
      packing [(generation, class, index)] (see {!Handle}).  [free] bumps
      the slot's generation, so every handle minted before the free is
      {e detectably stale}: validated accessors raise {!Stale} (and emit a
      [Stale_handle] trace event) instead of silently reading recycled
      memory.  This is the version-counter substrate VBR
      (Sheffi/Herlihy/Petrank, arXiv 2107.13843) builds reclamation out
      of.
    - Record fields are flat: each data/pointer field of a class is one
      runtime cell block per {e chunk} of {!chunk_slots} slots — never a
      heap object per word.  A chunk is made when the bump allocator
      first reaches it and never moves, so a class's memory follows the
      slots it has ever handed out, not its capacity.  A structure that
      locks declares its lock word as one of its data fields (see
      {!lock}); records of structures that do not lock carry none.
    - Allocation is two-level, per Bonwick's magazine design: each thread
      caches up to a magazine of ready handles per class (padded,
      single-owner — the fast path touches no shared state), backed by a
      lock-free global depot (Treiber stacks of full and empty magazines).
      Steady-state [alloc]/[free] is fence-free; magazines move to and
      from the depot in batches.

    Lifecycle instrumentation mirrors the paper's five record states (§3):
    we track Free / Live / Retired, count reads of freed or stale slots,
    and maintain per-class and total in-use high-water marks that
    experiment E2 (figures 4c/4d) reports as "peak memory usage".
    Instrumentation (states, generations, counters) is deliberately kept
    in plain arrays, per-thread padded records and stdlib [Atomic]s rather
    than runtime cells: it must not perturb the simulated cost accounting.
    Occupancy deltas are accumulated per thread and published to the
    shared per-class counters every {!occ_batch} operations; {!stats}
    folds the residuals back in, so quiescent readings are exact and
    concurrent readings are within [occ_batch * nthreads] of exact.

    Exhaustion is {e graceful}: [alloc] first invokes the caller-supplied
    reclamation flush ([?on_pressure]), announces itself as starving
    (which reroutes concurrent frees to a shared per-class overflow stack
    any thread can pop), and retries with exponential backoff before
    giving up with an {!Exhausted} diagnosis.  See DESIGN.md
    "Fault model". *)

type exhausted_info = {
  x_capacity : int;
  x_in_use : int;  (** Live + Retired slots at the moment of failure *)
  x_garbage : int;  (** Retired-but-unreclaimed slots *)
  x_allocs : int;
  x_frees : int;
  x_attempts : int;  (** pressure-loop retries performed before giving up *)
}

exception Exhausted of exhausted_info
(** Raised by [alloc] only after the pressure retry loop fails — shared by
    every [Make] instance so CLI entry points can catch it uniformly. *)

exception Stale of int
(** Raised (without a backtrace) by a validated read through a stale
    handle.  The payload is what the memory at the recycled address holds
    {e now} — never the data the handle's record held: foil schemes that
    knowingly race reclamation consume it, sound schemes treat it as a
    restart/failure signal.  An exception rather than a result variant,
    so that the valid path returns a plain, unboxed [int]. *)

let pp_exhausted ppf x =
  Format.fprintf ppf
    "pool exhausted: capacity=%d in_use=%d garbage=%d allocs=%d frees=%d \
     (gave up after %d reclamation-flush retries)"
    x.x_capacity x.x_in_use x.x_garbage x.x_allocs x.x_frees x.x_attempts

(** Handle packing: [(generation lsl 28) lor (class lsl 24) lor index].

    24 index bits (16M slots per class), 4 class bits (16 classes), and
    the generation above them.  The whole handle must survive the Harris
    list's mark-tagging ([h lsl 1]) inside OCaml's 63-bit int and stay
    non-negative, so generations are capped at 33 bits (handles < 2^61);
    a slot's generation wraps after 2^33 frees, at which point a handle
    held across all of them would alias — the same astronomically-remote
    wraparound every epoch/era scheme lives with.  [nil] (-1) is not a
    packable handle and never collides with one. *)
module Handle = struct
  let index_bits = 24
  let class_bits = 4
  let gen_shift = index_bits + class_bits
  let index_mask = (1 lsl index_bits) - 1
  let class_mask = (1 lsl class_bits) - 1
  let gen_mask = (1 lsl 33) - 1
  let max_classes = 1 lsl class_bits
  let max_capacity = 1 lsl index_bits

  let pack ~cls ~index ~gen =
    (gen lsl gen_shift) lor (cls lsl index_bits) lor index

  let index h = h land index_mask
  let cls h = (h lsr index_bits) land class_mask
  let gen h = h lsr gen_shift
end

type class_spec = {
  cc_capacity : int;
  cc_data_fields : int;
  cc_ptr_fields : int;
}

(* A power of two, so an index finds its chunk by a constant shift. *)
let chunk_bits = 12
let chunk_slots = 1 lsl chunk_bits
let chunk_mask = chunk_slots - 1

module Make (Rt : Nbr_runtime.Runtime_intf.S) = struct
  exception Exhausted = Exhausted
  exception Stale = Stale

  let nil = -1

  type state = Free | Live | Retired

  (** Handles per magazine.  A full magazine is the unit of transfer
      between a thread's cache and the global depot. *)
  let mag_size = 32

  (** Fresh slots grabbed from the bump allocator per refill: half a
      magazine, so two threads racing the end of a class split it. *)
  let fresh_batch = mag_size / 2

  (** Per-thread occupancy deltas are published to the shared per-class
      counter every this many net operations (see module doc). *)
  let occ_batch = 8

  (** Simulated cycles per malloc/free fast path. *)
  let c_alloc = 30

  (** Consecutive frees beyond which further frees take the slow path.
      Models the allocator behaviour the paper holds responsible for
      EBR's throughput collapse (§7): when a delayed thread finally
      releases epochs, every thread frees its swollen limbo bags in a
      burst, overflowing per-thread arenas and hitting the allocator's
      slow paths.  Bounded schemes free in small steady batches and stay
      fast. *)
  let slab_threshold = 2048

  (** Extra cycles per slow-path free / depot trip. *)
  let c_free_slow = 150

  type mag = { slots : int array; mutable n : int }

  let new_mag () =
    Nbr_sync.Padded.copy_as_padded { slots = Array.make mag_size 0; n = 0 }

  (* Single-writer per-(class, thread) hot counters; padded so one
     thread's allocation rate never invalidates another's line. *)
  type tstat = {
    mutable t_allocs : int;
    mutable t_frees : int;
    mutable t_occ_delta : int;  (** unpublished +allocs −frees *)
    mutable t_frees_run : int;  (** consecutive frees since last alloc *)
  }

  (* Metadata of the one-slot placeholder a class's slot 0 collapses onto
     before its first chunk exists: state Free, and a generation above
     [Handle.gen_mask] that no handle carries, so a handle that names
     slot 0 of an empty class never validates. *)
  let placeholder_meta = -4

  type cls = {
    c_id : int;
    c_base : int;  (** flat-uid prefix: sum of preceding class capacities *)
    c_capacity : int;
    c_data_fields : int;
    c_ptr_fields : int;
    c_dir_bits : int;
        (** a field's stride in the directories below: the least [b]
            with [1 lsl b] at least the class's chunk count *)
    c_data : Rt.cells array;
        (** the data blocks, field-major:
            [c_data.((f lsl c_dir_bits) lor j)] holds field [f] of the
            slots from [j * chunk_slots], slot [i] at offset
            [i land chunk_mask] *)
    c_ptr : Rt.cells array;  (** the pointer blocks, likewise *)
    c_meta : int array array;
        (** [c_meta.(j)]: chunk [j]'s metadata, one word per slot,
            [gen lsl 2 lor st], where [gen] is the current generation
            (bumped on each free) and [st] the state, 0 = Free,
            1 = Live, 2 = Retired.  A slot has one writer at a time —
            the allocating thread, then the unlinking one, then the
            reclaimer — so a plain store suffices. *)
    c_mat : int Atomic.t;
        (** materialised prefix: slots [0, c_mat) have their chunk's
            blocks in place.  Published after they are stored, so a
            reader that sees the length sees its blocks; the entries of
            later chunks hold the class's one-slot placeholder. *)
    c_grow : Mutex.t;  (** serialises materialisation *)
    c_next_fresh : int Atomic.t;  (** bump allocator over never-used slots *)
    c_mags : mag Atomic.t array;
        (** per-thread magazine, detachable: {!flush_thread} (graceful
            leave, or a watchdog reaping a dead peer) exchanges the
            magazine out and flushes it to the depot, so a departed
            thread's cached handles are adopted, not leaked.  The owner
            re-reads the cell at every operation; the race window against
            a falsely-declared-dead owner waking {e mid-operation} is the
            same one [Lifecycle]'s reaping already documents and bounds. *)
    c_depot_full : mag Nbr_sync.Treiber.t;
        (** magazines with handles (full in steady state; partial ones
            arrive from {!flush_thread} and starvation flushes) *)
    c_depot_empty : mag Nbr_sync.Treiber.t;  (** recycled empty shells *)
    c_overflow : int Nbr_sync.Treiber.t;
        (** starvation hand-off: single handles, pushed by frees while
            any allocator is starving, popped by the pressure loop *)
    c_tstats : tstat array;
    c_in_use : int Atomic.t;  (** published Live + Retired slots *)
    c_peak_in_use : int Atomic.t;
    c_garbage : int Atomic.t;  (** Retired (unreclaimed); exact *)
    c_peak_garbage : int Atomic.t;
  }

  type t = {
    classes : cls array;
    total_capacity : int;
    nthreads : int;
    starving : int Atomic.t;
        (** threads currently inside the exhaustion retry loop.  While
            non-zero, frees are rerouted to the class overflow stack so
            that capacity released by {e any} thread can satisfy the
            starving ones (magazines are single-owner and invisible
            across threads). *)
    (* --- occupancy watermarks (background-reclamation trigger) --- *)
    mutable wm_lo : int;
    mutable wm_hi : int;  (** [max_int] = watermarks disabled *)
    mutable wm_hook : (unit -> unit) option;
    wm_state : int Atomic.t;  (** 1 while occupancy is above the high mark *)
    wm_trips : int Atomic.t;
    (* --- instrumentation (uncosted, shared slow-path counters) --- *)
    peak_total : int Atomic.t;  (** high-water mark of total occupancy *)
    pressure_events : int Atomic.t;
    alloc_retries : int Atomic.t;
    uaf_reads : int Atomic.t;
        (** generation-validation misses: guarded accesses through a
            stale handle (freed, or freed-and-recycled) *)
    depot_exchanges : int Atomic.t;  (** magazine pushes/pops at the depot *)
  }

  let mk_class ~nthreads ~base ~id spec =
    if spec.cc_capacity <= 0 || spec.cc_capacity > Handle.max_capacity then
      invalid_arg "Pool.create: class capacity";
    let cap = spec.cc_capacity in
    let nchunks = (cap + chunk_slots - 1) lsr chunk_bits in
    let dir_bits =
      let rec go b = if 1 lsl b >= nchunks then b else go (b + 1) in
      go 0
    in
    (* Each field's placeholder fills that field's entries. *)
    let dirs nfields v =
      let ph = Array.init nfields (fun _ -> Rt.make_cells 1 v) in
      Array.init (nfields lsl dir_bits) (fun x -> ph.(x lsr dir_bits))
    in
    {
      c_id = id;
      c_base = base;
      c_capacity = cap;
      c_data_fields = spec.cc_data_fields;
      c_ptr_fields = spec.cc_ptr_fields;
      c_dir_bits = dir_bits;
      c_data = dirs spec.cc_data_fields 0;
      c_ptr = dirs spec.cc_ptr_fields nil;
      c_meta = Array.make nchunks [| placeholder_meta |];
      c_mat = Nbr_sync.Padded.make_atomic 0;
      c_grow = Mutex.create ();
      c_next_fresh = Atomic.make 0;
      c_mags = Array.init nthreads (fun _ -> Atomic.make (new_mag ()));
      c_depot_full = Nbr_sync.Treiber.create ();
      c_depot_empty = Nbr_sync.Treiber.create ();
      c_overflow = Nbr_sync.Treiber.create ();
      c_tstats =
        Array.init nthreads (fun _ ->
            Nbr_sync.Padded.copy_as_padded
              { t_allocs = 0; t_frees = 0; t_occ_delta = 0; t_frees_run = 0 });
      c_in_use = Nbr_sync.Padded.make_atomic 0;
      c_peak_in_use = Nbr_sync.Padded.make_atomic 0;
      c_garbage = Nbr_sync.Padded.make_atomic 0;
      c_peak_garbage = Nbr_sync.Padded.make_atomic 0;
    }

  let create_classed ~classes ~nthreads () =
    if Array.length classes = 0 || Array.length classes > Handle.max_classes
    then invalid_arg "Pool.create_classed: need 1..16 classes";
    let base = ref 0 in
    let cls =
      Array.mapi
        (fun id spec ->
          let c = mk_class ~nthreads ~base:!base ~id spec in
          base := !base + spec.cc_capacity;
          c)
        classes
    in
    {
      classes = cls;
      total_capacity = !base;
      nthreads;
      starving = Atomic.make 0;
      wm_lo = 0;
      wm_hi = max_int;
      wm_hook = None;
      wm_state = Atomic.make 0;
      wm_trips = Atomic.make 0;
      peak_total = Atomic.make 0;
      pressure_events = Atomic.make 0;
      alloc_retries = Atomic.make 0;
      uaf_reads = Atomic.make 0;
      depot_exchanges = Atomic.make 0;
    }

  let create ~capacity ~data_fields ~ptr_fields ~nthreads () =
    if capacity <= 0 then invalid_arg "Pool.create: capacity";
    create_classed
      ~classes:
        [|
          {
            cc_capacity = capacity;
            cc_data_fields = data_fields;
            cc_ptr_fields = ptr_fields;
          };
        |]
      ~nthreads ()

  let capacity t = t.total_capacity
  let nclasses t = Array.length t.classes
  let class_capacity t i = t.classes.(i).c_capacity

  (* ---------------- handle decoding ---------------- *)

  (* [cls_of]/[slot_of] map {e any} int onto a real (class, index)
     address: a handle that does not name one — [nil], a truncated
     mark-tag word, garbage read from recycled memory — collapses onto
     class 0 / index 0.  This is the never-unmapped-arena semantics of
     DESIGN.md §3: dereferencing a dangling address reads {e some} arena
     memory and returns garbage, it never faults.  An index past the
     class's materialised prefix collapses too: no handle for it was ever
     handed out, so only garbage names it.  Only the peek tier (raw
     accessors, [Stale] payloads) goes through the collapse; validated
     accessors reject such handles as [Stale] first, which is the whole
     point of the generational rewrite.  Separate functions rather than
     one returning a tuple: every field access decodes its handle, and a
     tuple would be a heap allocation per access. *)
  let[@inline] cls_of t h =
    let ci = Handle.cls h in
    if h < 0 || ci >= Array.length t.classes then t.classes.(0)
    else Array.unsafe_get t.classes ci

  let[@inline] slot_of c h =
    let i = Handle.index h in
    if i >= Atomic.get c.c_mat then 0 else i

  (* Field [f]'s block and the metadata of the chunk holding slot [i],
     and [i]'s offset in them.  [i] comes from [slot_of] (or is the
     index of a handle the allocator minted), so it lies in the
     materialised prefix, where the metadata directory entry and the
     offset are in range: those two reads, on the hottest path of every
     run, go unchecked.  A field block's index also carries the caller's
     [f] and stays checked. *)
  let[@inline] field c f i = (f lsl c.c_dir_bits) lor (i lsr chunk_bits)
  let[@inline] data c i f = c.c_data.(field c f i)
  let[@inline] ptr c i f = c.c_ptr.(field c f i)
  let[@inline] metas c i = Array.unsafe_get c.c_meta (i lsr chunk_bits)
  let[@inline] off i = i land chunk_mask
  let[@inline] meta_of c i = Array.unsafe_get (metas c i) (off i)
  let[@inline] gen_of c i = meta_of c i lsr 2
  let[@inline] st_of c i = meta_of c i land 3

  (* The metadata word of the slot [h] names, or -1 when [h] names no
     slot: unlike [cls_of]/[slot_of], validation must not collapse a
     non-handle onto slot 0. *)
  let[@inline] meta t h =
    if h < 0 || Handle.cls h >= Array.length t.classes then -1
    else
      let c = Array.unsafe_get t.classes (Handle.cls h) in
      let i = Handle.index h in
      if i < Atomic.get c.c_mat then meta_of c i else -1

  (** A handle is valid iff it names a class/index that exists and its
      packed generation matches the slot's current one.  Every [free]
      bumps the generation, so validity implies the record this handle
      was minted for has not been freed since. *)
  let valid t h =
    let m = meta t h in
    m >= 0 && m lsr 2 = Handle.gen h

  (* [valid t h] for the hot accessors, which have already decoded [h]
     into [c] and [i = slot_of c h] and read the slot's metadata [m]:
     [h] is valid iff it is the handle of that slot at its current
     generation, one comparison instead of decoding [h] again.  A
     collapsed [h] differs in its class or index; the placeholder's
     generation packs to a negative word, which no [h >= 0] equals. *)
  let[@inline] owns c i h m =
    h >= 0 && h = Handle.pack ~cls:c.c_id ~index:i ~gen:(m lsr 2)

  (** Stable flat index in [0, capacity): per-record metadata arrays
      (IBR/HE birth eras, RCU retire epochs) index by this, so they stay
      dense across size-classes and survive generation bumps. *)
  let uid t h =
    let c = cls_of t h in
    let i = slot_of c h in
    c.c_base + i

  let note_stale t h =
    Atomic.incr t.uaf_reads;
    if !Nbr_obs.Trace.fine then begin
      let c = cls_of t h in
      let i = slot_of c h in
      Nbr_obs.Trace.emit ~tid:(Rt.self ()) ~ns:(Rt.now_ns ())
        Nbr_obs.Trace.Stale_handle h (gen_of c i)
    end

  (* ---------------- occupancy accounting ---------------- *)

  (* Monotone max via CAS loop (the PR 2 lost-update fix, now applied per
     class and to the total): two racing threads may both read a stale
     peak, and a plain store would let the smaller writer land last,
     permanently under-reporting the high-water mark E2 reads. *)
  let rec note_peak cell v =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then note_peak cell v

  (** Published total occupancy across classes (within
      [occ_batch * nthreads] of exact while threads are running). *)
  let occupancy t =
    Array.fold_left (fun acc c -> acc + Atomic.get c.c_in_use) 0 t.classes

  let exact_class_in_use c =
    Array.fold_left
      (fun acc (ts : tstat) -> acc + ts.t_occ_delta)
      (Atomic.get c.c_in_use) c.c_tstats

  let exact_in_use t =
    Array.fold_left (fun acc c -> acc + exact_class_in_use c) 0 t.classes

  let garbage_total t =
    Array.fold_left (fun acc c -> acc + Atomic.get c.c_garbage) 0 t.classes

  let sum_tstats t f =
    Array.fold_left
      (fun acc c ->
        Array.fold_left (fun acc ts -> acc + f ts) acc c.c_tstats)
      0 t.classes

  (* ---------------- occupancy watermarks ---------------- *)

  let set_watermarks t ~lo ~hi ~on_high =
    if lo < 0 || hi <= lo || hi > t.total_capacity then
      invalid_arg "Pool.set_watermarks: need 0 <= lo < hi <= capacity";
    t.wm_lo <- lo;
    t.wm_hi <- hi;
    t.wm_hook <- Some on_high

  let wm_kick t = match t.wm_hook with None -> () | Some f -> f ()

  let pressured t = Atomic.get t.wm_state = 1

  (* Crossing detection is a single CAS-guarded state bit per direction:
     exactly one thread observes each upward crossing (emits the event,
     calls the hook), and re-arming waits for total occupancy across all
     classes to fall below the {e low} mark, so an occupancy hovering
     around [wm_hi] does not spam the reclaimer (standard hysteresis).
     Checked at occupancy-publication boundaries, so crossings are
     detected within [occ_batch] operations of the mark. *)
  let wm_note_high t v =
    if
      v >= t.wm_hi
      && Atomic.get t.wm_state = 0
      && Atomic.compare_and_set t.wm_state 0 1
    then begin
      Atomic.incr t.wm_trips;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid:(Rt.self ()) ~ns:(Rt.now_ns ())
          Nbr_obs.Trace.Watermark_high v t.wm_hi;
      wm_kick t
    end

  let wm_note_low t =
    if Atomic.get t.wm_state = 1 then
      let v = occupancy t in
      if v <= t.wm_lo && Atomic.compare_and_set t.wm_state 1 0 then
        if !Nbr_obs.Trace.on then
          Nbr_obs.Trace.emit ~tid:(Rt.self ()) ~ns:(Rt.now_ns ())
            Nbr_obs.Trace.Watermark_low v t.wm_lo

  (** Fold a +/-1 occupancy change into the thread's unpublished delta;
      publish (one fetch-and-add on the class counter, peak CAS loops,
      watermark checks) every [occ_batch] net operations.  The fast path
      in steady state is two plain field writes. *)
  let bump_occ t c (ts : tstat) d =
    let nd = ts.t_occ_delta + d in
    if nd >= occ_batch || nd <= -occ_batch then begin
      ts.t_occ_delta <- 0;
      let v = Atomic.fetch_and_add c.c_in_use nd + nd in
      if nd > 0 then begin
        note_peak c.c_peak_in_use v;
        let total = occupancy t in
        note_peak t.peak_total total;
        wm_note_high t total
      end
      else wm_note_low t
    end
    else ts.t_occ_delta <- nd

  (** Publish a thread's residual delta unconditionally (pressure paths,
      thread departure): shared counters converge to exact. *)
  let publish_occ t c (ts : tstat) =
    let nd = ts.t_occ_delta in
    if nd <> 0 then begin
      ts.t_occ_delta <- 0;
      let v = Atomic.fetch_and_add c.c_in_use nd + nd in
      if nd > 0 then begin
        note_peak c.c_peak_in_use v;
        let total = occupancy t in
        note_peak t.peak_total total;
        wm_note_high t total
      end
      else wm_note_low t
    end

  (* ---------------- allocation ---------------- *)

  let max_pressure_attempts = 8

  let depot_trip t =
    Atomic.incr t.depot_exchanges;
    Rt.work c_free_slow

  (* Make the chunks of slots [0, upto) that do not exist yet: data
     cells start at 0, pointer cells at [nil], metadata at 0.  Each
     chunk's blocks are stored before [c_mat] publishes them; the lock
     only orders growers, readers never take it.  [make_cells] is not a
     shared access, so growth costs no virtual time. *)
  let materialise c upto =
    if Atomic.get c.c_mat < upto then
      Mutex.protect c.c_grow @@ fun () ->
      let rec grow () =
        let m = Atomic.get c.c_mat in
        if m < upto then begin
          let width = min chunk_slots (c.c_capacity - m) in
          for f = 0 to c.c_data_fields - 1 do
            c.c_data.(field c f m) <- Rt.make_cells width 0
          done;
          for f = 0 to c.c_ptr_fields - 1 do
            c.c_ptr.(field c f m) <- Rt.make_cells width nil
          done;
          c.c_meta.(m lsr chunk_bits) <- Array.make width 0;
          Atomic.set c.c_mat (m + width);
          grow ()
        end
      in
      grow ()

  (* Refill the (empty) installed magazine: a full magazine from the
     depot, else a batch of never-used slots from the bump allocator,
     materialising their chunk if the batch is its first.  Returns one
     handle and leaves the rest cached. *)
  let refill t c tid =
    match Nbr_sync.Treiber.pop c.c_depot_full with
    | Some m ->
        depot_trip t;
        let old = Atomic.exchange c.c_mags.(tid) m in
        Nbr_sync.Treiber.push c.c_depot_empty old;
        m.n <- m.n - 1;
        Some m.slots.(m.n)
    | None ->
        if Atomic.get c.c_next_fresh >= c.c_capacity then None
        else begin
          let s0 = Atomic.fetch_and_add c.c_next_fresh fresh_batch in
          let got = min fresh_batch (c.c_capacity - s0) in
          if got <= 0 then None
          else begin
            materialise c (s0 + got);
            let mag = Atomic.get c.c_mags.(tid) in
            for k = 1 to got - 1 do
              let i = s0 + k in
              mag.slots.(mag.n) <-
                Handle.pack ~cls:c.c_id ~index:i ~gen:(gen_of c i);
              mag.n <- mag.n + 1
            done;
            Some (Handle.pack ~cls:c.c_id ~index:s0 ~gen:(gen_of c s0))
          end
        end

  let alloc ?(on_pressure = fun () -> ()) ?(cls = 0) t =
    Rt.work c_alloc;
    let tid = Rt.self () in
    let c = t.classes.(cls) in
    let ts = c.c_tstats.(tid) in
    ts.t_frees_run <- 0;
    let h =
      let mag = Atomic.get c.c_mags.(tid) in
      if mag.n > 0 then begin
        mag.n <- mag.n - 1;
        mag.slots.(mag.n)
      end
      else
        match refill t c tid with
        | Some h -> h
        | None ->
            (* Pressure path: announce starvation (rerouting concurrent
               frees to the shared overflow stack), ask the caller to
               flush its reclamation scheme, and retry with exponential
               backoff.  Only when [max_pressure_attempts] rounds of
               flush+backoff produce nothing do we conclude the pool is
               genuinely exhausted. *)
            (* Last nudge before the expensive machinery: a healthy
               background reclaimer woken here can turn the first
               flush+backoff round into a hit. *)
            publish_occ t c ts;
            wm_kick t;
            Atomic.incr t.starving;
            Atomic.incr t.pressure_events;
            if !Nbr_obs.Trace.on then
              Nbr_obs.Trace.emit ~tid ~ns:(Rt.now_ns ())
                Nbr_obs.Trace.Pool_starvation (exact_in_use t)
                (garbage_total t);
            Fun.protect ~finally:(fun () -> Atomic.decr t.starving)
            @@ fun () ->
            let rec retry attempt =
              Atomic.incr t.alloc_retries;
              on_pressure ();
              match Nbr_sync.Treiber.pop c.c_overflow with
              | Some h -> h
              | None -> (
                  match refill t c tid with
                  | Some h -> h
                  | None ->
                      if attempt >= max_pressure_attempts then
                        raise
                          (Exhausted
                             {
                               x_capacity = t.total_capacity;
                               x_in_use = exact_in_use t;
                               x_garbage = garbage_total t;
                               x_allocs = sum_tstats t (fun s -> s.t_allocs);
                               x_frees = sum_tstats t (fun s -> s.t_frees);
                               x_attempts = attempt;
                             })
                      else begin
                        (* 2µs, 4µs, ... — gives competing threads
                           (native) or fibers (sim) room to release
                           capacity. *)
                        Rt.stall_ns (1000 lsl attempt);
                        retry (attempt + 1)
                      end)
            in
            retry 1
    in
    let ms = metas c (Handle.index h) and o = off (Handle.index h) in
    ms.(o) <- ms.(o) land lnot 3 lor 1;
    ts.t_allocs <- ts.t_allocs + 1;
    bump_occ t c ts 1;
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid ~ns:(Rt.now_ns ()) Nbr_obs.Trace.Alloc_slot h
        (Handle.gen h);
    h

  (** Mark a record as retired (unlinked, awaiting reclamation).  Called
      by the SMR layer from [retire]; affects instrumentation only.  A
      stale handle (the record was already freed out from under the
      caller) is counted and ignored — retiring it again would corrupt
      the garbage accounting of the slot's {e current} occupant. *)
  let note_retired t h =
    let c = cls_of t h in
    let i = slot_of c h in
    let ms = metas c i and o = off i in
    let m = ms.(o) in
    if not (owns c i h m) then note_stale t h
    else if m land 3 <> 2 then begin
      ms.(o) <- m land lnot 3 lor 2;
      let g = Atomic.fetch_and_add c.c_garbage 1 + 1 in
      note_peak c.c_peak_garbage g;
      if !Nbr_obs.Trace.fine then
        Nbr_obs.Trace.emit ~tid:(Rt.self ()) ~ns:(Rt.now_ns ())
          Nbr_obs.Trace.Retire h g
    end

  (* Flush the thread's (full) magazine to the depot and install an empty
     shell, recycled from the depot when possible so steady-state frees
     allocate nothing. *)
  let flush_mag t c tid mag =
    depot_trip t;
    let shell =
      match Nbr_sync.Treiber.pop c.c_depot_empty with
      | Some m -> m
      | None -> new_mag ()
    in
    Atomic.set c.c_mags.(tid) shell;
    Nbr_sync.Treiber.push c.c_depot_full mag;
    shell

  (** Return a record to the allocator.  The handle dies here: the slot's
      generation is bumped (every outstanding copy of [h] becomes
      detectably stale) and a re-minted next-generation handle goes to
      the calling thread's magazine — or, while any allocator is
      starving, to the shared overflow stack, so the freed capacity is
      visible across threads.  Stale and double frees are a programming
      error and raise. *)
  let free t h =
    Rt.work c_alloc;
    let c = cls_of t h in
    let i = slot_of c h in
    let ms = metas c i and o = off i in
    let m = ms.(o) in
    if not (owns c i h m) then
      invalid_arg
        (Printf.sprintf "Pool.free: stale or double free of handle %d" h);
    let ts = c.c_tstats.(Rt.self ()) in
    if m land 3 = 2 then ignore (Atomic.fetch_and_add c.c_garbage (-1));
    let g = (Handle.gen h + 1) land Handle.gen_mask in
    ms.(o) <- g lsl 2;
    let h' = Handle.pack ~cls:c.c_id ~index:i ~gen:g in
    ts.t_frees <- ts.t_frees + 1;
    bump_occ t c ts (-1);
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:(Rt.self ()) ~ns:(Rt.now_ns ())
        Nbr_obs.Trace.Free_slot h g;
    if Atomic.get t.starving > 0 then begin
      (* Cross-thread hand-off is an allocator slow path. *)
      Rt.work c_free_slow;
      if !Nbr_obs.Trace.on then
        Nbr_obs.Trace.emit ~tid:(Rt.self ()) ~ns:(Rt.now_ns ())
          Nbr_obs.Trace.Pool_overflow h' 0;
      Nbr_sync.Treiber.push c.c_overflow h'
    end
    else begin
      (* Burst reclamation overflows the thread's arena: slow path. *)
      ts.t_frees_run <- ts.t_frees_run + 1;
      if ts.t_frees_run > slab_threshold then Rt.work c_free_slow;
      let tid = Rt.self () in
      let mag = Atomic.get c.c_mags.(tid) in
      let mag = if mag.n >= mag_size then flush_mag t c tid mag else mag in
      mag.slots.(mag.n) <- h';
      mag.n <- mag.n + 1
    end

  (** Flush a thread's magazines (every class) to the depot: called by
      the thread itself on graceful leave, or by a watchdog adopting a
      reaped peer's cached capacity.  Also publishes the thread's
      residual occupancy deltas so the shared counters converge. *)
  let flush_thread t ~tid =
    Array.iter
      (fun c ->
        let m = Atomic.exchange c.c_mags.(tid) (new_mag ()) in
        if m.n > 0 then begin
          depot_trip t;
          Nbr_sync.Treiber.push c.c_depot_full m
        end
        else Nbr_sync.Treiber.push c.c_depot_empty m;
        publish_occ t c c.c_tstats.(tid))
      t.classes

  (** Magazine fill of a thread's cache for one class (tests only). *)
  let magazine_fill t ~cls ~tid = (Atomic.get t.classes.(cls).c_mags.(tid)).n

  (* ---------------- field access ---------------- *)

  (* Three tiers (DESIGN.md §13), all addressed by (handle, field):

     - {e validated} reads ([read_data] / [read_ptr])
       check the handle's generation and raise [Stale] — carrying
       the recycled memory's current contents — instead of handing back
       another record's data as if it were live.  The SMR layer's
       guarded read paths use these.
     - {e plain} accessors ([get_data] / [set_ptr] / ...) are for write
       phases and sequential code, where the record is reserved /
       protected and staleness is impossible for a sound scheme.  They
       still validate: a miss (foil schemes racing reclamation, a
       falsely-reaped thread resuming mid-write) is counted, traced, and
       then applied to the recycled memory — memory-safe, observable,
       never a crash.
     - {e raw} accessors ([raw_load_ptr] / [raw_cas_ptr]) perform no
       generation check at all: they are the substrate the SMR schemes
       build their protected reads and tagged-word access on (alert
       [nbr_raw] in pool.mli).  Uses are instrumented at the call sites via
       {!record_read}.  Record locks ({!lock} and friends) are
       unchecked too: a lock word is a data field the structure names.

     The pre-rewrite index-clamping guard ([deref]) is gone: handles
     carry their class and index, so there is no out-of-range index to
     clamp — only stale generations, which are detected, not papered
     over. *)

  (* The plain accessors' validation, against the [c]/[i] they decoded. *)
  let[@inline] check t c i h =
    if not (owns c i h (meta_of c i)) then note_stale t h

  (* A plain read through a stale handle is applied to the recycled
     memory: a committed read of a freed record, so it is traced as an
     [Access] too, which the sanitizer's [uaf_access] rule convicts under
     every protection.  Kept out of line: only the stale branch calls it. *)
  let[@inline never] stale_get t c i h =
    note_stale t h;
    if !Nbr_obs.Trace.fine then
      Nbr_obs.Trace.emit ~tid:(Rt.self ()) ~ns:(Rt.now_ns ())
        Nbr_obs.Trace.Access h (st_of c i)

  let[@inline] check_get t c i h =
    if not (owns c i h (meta_of c i)) then stale_get t c i h

  let raw_load_ptr t h f =
    let c = cls_of t h in
    let i = slot_of c h in
    Rt.load_at (ptr c i f) (off i)

  let raw_cas_ptr t h f old v =
    let c = cls_of t h in
    let i = slot_of c h in
    Rt.cas_at (ptr c i f) (off i) old v

  (* A validated read that caught a stale handle fails gracefully: it
     raises [Stale], traced as such but NOT as an [Access] — no freed
     data crossed over, so the sanitizer stays clean.  The mutant
     [pool_generation_check] (test/mutants, A4) commits the stale value
     instead, traced as the raw access to freed memory it is. *)
  let stale_read t h v =
    note_stale t h;
    raise_notrace (Stale v)

  (* The generation is read after the value, as [valid] did: a free
     that recycles the slot between the two shows as [Stale].  The valid
     path returns the bare value: it allocates nothing. *)
  let read_data t h f =
    let c = cls_of t h in
    let i = slot_of c h in
    let v = Rt.plain_load_at (data c i f) (off i) in
    let m = meta_of c i in
    if owns c i h m then v else stale_read t h v

  let read_ptr t h f =
    let c = cls_of t h in
    let i = slot_of c h in
    let v = Rt.load_at (ptr c i f) (off i) in
    let m = meta_of c i in
    if owns c i h m then v else stale_read t h v

  let get_data t h f =
    let c = cls_of t h in
    let i = slot_of c h in
    check_get t c i h;
    Rt.plain_load_at (data c i f) (off i)

  let get_ptr t h f =
    let c = cls_of t h in
    let i = slot_of c h in
    check_get t c i h;
    Rt.load_at (ptr c i f) (off i)

  let set_data t h f v =
    let c = cls_of t h in
    let i = slot_of c h in
    check t c i h;
    Rt.store_at (data c i f) (off i) v

  let set_ptr t h f v =
    let c = cls_of t h in
    let i = slot_of c h in
    check t c i h;
    Rt.store_at (ptr c i f) (off i) v

  (* ---------------- record locks ---------------- *)

  (* Test-and-test-and-set spinlocks on the data field a structure
     declares as its lock word (pool.mli, "Record locks").  Unchecked like
     the raw tier; [lock] asserts the write-phase discipline. *)

  let unlocked = 0
  let locked_by tid = tid + 1

  let try_lock t h f =
    let c = cls_of t h in
    let i = slot_of c h in
    Rt.cas_at (data c i f) (off i) unlocked (locked_by (Rt.self ()))

  (* Test-and-TAS: spin on plain loads before retrying the RMW.  Both
     loops are top-level, so taking a lock allocates nothing. *)
  let rec lock_wait cells i n =
    if n > 0 && Rt.plain_load_at cells i <> unlocked then begin
      Rt.cpu_relax ();
      lock_wait cells i (n - 1)
    end

  let rec lock_spin cells i me spins =
    if not (Rt.cas_at cells i unlocked me) then begin
      lock_wait cells i (min spins 64);
      lock_spin cells i me (spins * 2)
    end

  let lock t h f =
    assert (not (Rt.is_restartable ()));
    let c = cls_of t h in
    let i = slot_of c h in
    let cells = data c i f and i = off i in
    let me = locked_by (Rt.self ()) in
    lock_spin cells i me 4

  let unlock t h f =
    let c = cls_of t h in
    let i = slot_of c h in
    let cells = data c i f and i = off i in
    assert (Rt.plain_load_at cells i = locked_by (Rt.self ()));
    Rt.store_at cells i unlocked

  let is_locked t h f =
    let c = cls_of t h in
    let i = slot_of c h in
    Rt.plain_load_at (data c i f) (off i) <> unlocked

  (* ---------------- instrumentation ---------------- *)

  (** Lifecycle state of the record a handle names: [Free] if the handle
      is stale (the record it was minted for is gone, whatever occupies
      the slot now). *)
  let state t h =
    let m = meta t h in
    if m < 0 || m lsr 2 <> Handle.gen h then Free
    else match m land 3 with 0 -> Free | 1 -> Live | _ -> Retired

  (** Current generation of the slot a handle names (uncosted).  Equal to
      [Handle.gen h] iff the handle is still valid; bumped by each
      [free], so it is the ABA/UAF witness the tests read. *)
  let seqno t h =
    let c = cls_of t h in
    gen_of c (slot_of c h)

  (** Costed lifecycle checks, for protection validation.  Hazard-style
      schemes must verify, after announcing, that the target "has not
      already been unlinked" (paper §2): link re-reading alone is not
      enough for structures where unlinking splices an {e ancestor} edge
      and leaves interior edges intact.  Real implementations read a mark
      bit the structure maintains; here the handle's generation plays
      that role, and the reads are charged like the cache-hit mark loads
      they model. *)
  let live t h =
    Rt.work 2;
    (* -1 (no slot) never matches: a handle's generation is >= 0. *)
    meta t h = (Handle.gen h lsl 2) lor 1

  (** Current slot generation with an access charge: lets validators
      detect free-and-recycle (ABA on the slot) between two reads. *)
  let stamp t h =
    Rt.work 2;
    let c = cls_of t h in
    gen_of c (slot_of c h)

  (** Called by the SMR layer when a guarded dereference lands on [h];
      counts reads through stale handles (freed, or freed-and-recycled —
      the generation comparison catches both, where the pre-rewrite
      state heuristic missed recycled slots) and returns whether this
      read was one, so the scheme can classify it committed vs benign in
      its own stats.  [nil] and other non-handles are address-of-nothing
      and not counted, as before.  For a sound scheme under the
      exact-delivery (sim) runtime this stays at zero; the [unsafe_free]
      foil drives it up. *)
  let record_read t h =
    let uaf = h >= 0 && not (valid t h) in
    if uaf then Atomic.incr t.uaf_reads;
    if h >= 0 && !Nbr_obs.Trace.fine then begin
      let c = cls_of t h in
      let i = slot_of c h in
      Nbr_obs.Trace.emit ~tid:(Rt.self ()) ~ns:(Rt.now_ns ())
        Nbr_obs.Trace.Access h (st_of c i)
    end;
    uaf

  type stats = {
    s_allocs : int;
    s_frees : int;
    s_in_use : int;
    s_peak_in_use : int;
    s_garbage : int;
    s_peak_garbage : int;
    s_pressure_events : int;
    s_alloc_retries : int;
    s_uaf_reads : int;
    s_wm_trips : int;
    s_depot_exchanges : int;
  }

  (* Exact at quiescence: shared counters plus per-thread residuals.  The
     published peak can trail the exact occupancy by up to one batch per
     thread, so reading stats folds the current exact value into the
     persistent peak — a reported peak never decays below any occupancy a
     previous [stats] call observed. *)
  let stats t =
    let in_use = exact_in_use t in
    note_peak t.peak_total in_use;
    {
      s_allocs = sum_tstats t (fun s -> s.t_allocs);
      s_frees = sum_tstats t (fun s -> s.t_frees);
      s_in_use = in_use;
      s_peak_in_use = Atomic.get t.peak_total;
      s_garbage = garbage_total t;
      s_peak_garbage =
        Array.fold_left
          (fun acc c -> acc + Atomic.get c.c_peak_garbage)
          0 t.classes;
      s_pressure_events = Atomic.get t.pressure_events;
      s_alloc_retries = Atomic.get t.alloc_retries;
      s_uaf_reads = Atomic.get t.uaf_reads;
      s_wm_trips = Atomic.get t.wm_trips;
      s_depot_exchanges = Atomic.get t.depot_exchanges;
    }

  type class_stats = {
    k_capacity : int;
    k_in_use : int;
    k_peak_in_use : int;
    k_garbage : int;
    k_peak_garbage : int;
    k_allocs : int;
    k_frees : int;
  }

  let class_stats t i =
    let c = t.classes.(i) in
    let in_use = exact_class_in_use c in
    note_peak c.c_peak_in_use in_use;
    {
      k_capacity = c.c_capacity;
      k_in_use = in_use;
      k_peak_in_use = Atomic.get c.c_peak_in_use;
      k_garbage = Atomic.get c.c_garbage;
      k_peak_garbage = Atomic.get c.c_peak_garbage;
      k_allocs =
        Array.fold_left (fun acc ts -> acc + ts.t_allocs) 0 c.c_tstats;
      k_frees = Array.fold_left (fun acc ts -> acc + ts.t_frees) 0 c.c_tstats;
    }

  (** Reset the high-water marks to the current values (called after
      prefill so E2 measures steady-state peaks, not setup). *)
  let reset_peak t =
    Array.iter
      (fun c ->
        Atomic.set c.c_peak_in_use (exact_class_in_use c);
        Atomic.set c.c_peak_garbage (Atomic.get c.c_garbage))
      t.classes;
    Atomic.set t.peak_total (exact_in_use t)
end
