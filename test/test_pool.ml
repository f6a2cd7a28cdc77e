(* Unit and property tests for the record pool (simulated manual memory). *)

module Sim = Nbr_runtime.Sim_rt
module P = Nbr_pool.Pool.Make (Sim)

let mk ?(capacity = 64) () =
  P.create ~capacity ~data_fields:2 ~ptr_fields:2 ~nthreads:1 ()

(* The slot's state and generation share one metadata word: each step
   of the lifecycle must leave both readings right. *)
let test_alloc_free_cycle () =
  let p = mk () in
  let garbage () = (P.stats p).P.s_garbage in
  let a = P.alloc p in
  let g = Nbr_pool.Pool.Handle.gen a in
  Alcotest.(check bool) "live after alloc" true (P.state p a = P.Live);
  Alcotest.(check bool) "live check" true (P.live p a);
  Alcotest.(check bool) "valid" true (P.valid p a);
  Alcotest.(check int) "seqno is the handle's generation" g (P.seqno p a);
  Alcotest.(check int) "stamp is the handle's generation" g (P.stamp p a);
  P.set_data p a 0 42;
  Alcotest.(check int) "field roundtrip" 42 (P.get_data p a 0);
  P.note_retired p a;
  Alcotest.(check bool) "retired" true (P.state p a = P.Retired);
  Alcotest.(check bool) "retired is not live" false (P.live p a);
  Alcotest.(check bool) "retired is still valid" true (P.valid p a);
  Alcotest.(check int) "retire keeps the generation" g (P.seqno p a);
  Alcotest.(check int) "one garbage record" 1 (garbage ());
  P.note_retired p a;
  Alcotest.(check bool) "retired again" true (P.state p a = P.Retired);
  Alcotest.(check int) "a second retire counts once" 1 (garbage ());
  P.free p a;
  Alcotest.(check bool) "free" true (P.state p a = P.Free);
  Alcotest.(check bool) "freed handle not live" false (P.live p a);
  Alcotest.(check bool) "freed handle stale" false (P.valid p a);
  Alcotest.(check int) "free bumps seqno" (g + 1) (P.seqno p a);
  Alcotest.(check int) "free bumps stamp" (g + 1) (P.stamp p a);
  Alcotest.(check int) "freeing a retired slot returns the count" 0
    (garbage ());
  let b = P.alloc p in
  Alcotest.(check int) "slot recycled from free list"
    (Nbr_pool.Pool.Handle.index a)
    (Nbr_pool.Pool.Handle.index b);
  Alcotest.(check int) "re-minted handle carries generation + 1" (g + 1)
    (Nbr_pool.Pool.Handle.gen b);
  Alcotest.(check bool) "re-minted handle live" true (P.state p b = P.Live);
  Alcotest.(check bool) "re-minted live check" true (P.live p b);
  Alcotest.(check bool) "re-minted valid" true (P.valid p b);
  Alcotest.(check bool) "old handle stays free" true (P.state p a = P.Free);
  Alcotest.(check int) "no garbage" 0 (garbage ())

let test_seqno_bumps () =
  let p = mk () in
  let a = P.alloc p in
  let s0 = P.seqno p a in
  P.free p a;
  Alcotest.(check int) "seqno bumped on free" (s0 + 1) (P.seqno p a)

let test_double_free_raises () =
  let p = mk () in
  let a = P.alloc p in
  P.free p a;
  Alcotest.check_raises "double free"
    (Invalid_argument
       (Printf.sprintf "Pool.free: stale or double free of handle %d" a))
    (fun () -> P.free p a)

let test_exhaustion () =
  let p = mk ~capacity:4 () in
  for _ = 1 to 4 do
    ignore (P.alloc p)
  done;
  match P.alloc p with
  | _ -> Alcotest.fail "alloc beyond capacity should raise Exhausted"
  | exception P.Exhausted x ->
      Alcotest.(check int) "capacity in diagnosis" 4 x.Nbr_pool.Pool.x_capacity;
      Alcotest.(check int) "in_use in diagnosis" 4 x.Nbr_pool.Pool.x_in_use;
      Alcotest.(check bool)
        "retried before giving up" true
        (x.Nbr_pool.Pool.x_attempts >= 1)

let test_in_use_accounting () =
  let p = mk () in
  let slots = List.init 10 (fun _ -> P.alloc p) in
  let st = P.stats p in
  Alcotest.(check int) "in_use" 10 st.P.s_in_use;
  Alcotest.(check int) "peak" 10 st.P.s_peak_in_use;
  List.iteri (fun i s -> if i < 7 then P.free p s) slots;
  let st = P.stats p in
  Alcotest.(check int) "in_use after frees" 3 st.P.s_in_use;
  Alcotest.(check int) "peak unchanged" 10 st.P.s_peak_in_use;
  P.reset_peak p;
  Alcotest.(check int) "peak reset" 3 (P.stats p).P.s_peak_in_use

let test_uaf_detection () =
  let p = mk () in
  let a = P.alloc p in
  Alcotest.(check bool) "live read not a hit" false (P.record_read p a);
  Alcotest.(check int) "live read not UAF" 0 (P.stats p).P.s_uaf_reads;
  P.free p a;
  Alcotest.(check bool) "freed read is a hit" true (P.record_read p a);
  Alcotest.(check int) "freed read counted" 1 (P.stats p).P.s_uaf_reads

let test_ptr_fields_nil_initialized () =
  let p = mk () in
  let a = P.alloc p in
  Alcotest.(check int) "ptr0 nil" P.nil (P.get_ptr p a 0);
  Alcotest.(check int) "ptr1 nil" P.nil (P.get_ptr p a 1);
  (* A chunk made after the first starts out the same way. *)
  let w = Nbr_pool.Pool.chunk_slots in
  let p = mk ~capacity:(2 * w) () in
  let hs = Array.init (w + 1) (fun _ -> P.alloc p) in
  match
    Array.find_opt (fun h -> Nbr_pool.Pool.Handle.index h >= w) hs
  with
  | None -> Alcotest.fail "no slot allocated from the second chunk"
  | Some b ->
      Alcotest.(check int) "second chunk: ptr0 nil" P.nil (P.get_ptr p b 0);
      Alcotest.(check int) "second chunk: ptr1 nil" P.nil (P.get_ptr p b 1);
      Alcotest.(check int) "second chunk: data 0" 0 (P.get_data p b 0)

(* A slot of a one-data, one-pointer record is two 10-byte simulated
   cells plus the pool's 8-byte metadata word: 28 B.  Slots take memory
   a chunk at a time, once the allocator reaches them, so a fresh pool
   holds less than one chunk whatever its capacity, and a used one holds
   28 B per slot of the chunks it has reached.  Besides those, only the
   chunk directories (one word per chunk for each field and for the
   metadata) grow with capacity — in particular no lock word, which only
   the structures that lock declare, as a data field. *)
let test_bytes_per_slot () =
  let capacity = 1 lsl 20 and w = Nbr_pool.Pool.chunk_slots in
  let p = P.create ~capacity ~data_fields:1 ~ptr_fields:1 ~nthreads:1 () in
  let bytes () = Obj.reachable_words (Obj.repr p) * (Sys.word_size / 8) in
  let dirs = 3 * 8 * (capacity / w) in
  let fresh = bytes () in
  if fresh >= (28 * w) + dirs then
    Alcotest.failf
      "fresh pool of %d slots holds %d B, not under one chunk (%d B) plus \
       the directories (%d B)"
      capacity fresh (28 * w) dirs;
  (* One slot past two chunk boundaries: three chunks made. *)
  let n = (2 * w) + 1 in
  for _ = 1 to n do
    ignore (P.alloc p)
  done;
  let made = 3 * w in
  let used = bytes () in
  let bound = (28 * made) + dirs + 16384 in
  if used > bound then
    Alcotest.failf
      "pool of %d slots with %d allocated holds %d B (%.2f B per slot of \
       its %d made), over %d"
      capacity n used
      (float_of_int used /. float_of_int made)
      made bound

(* ------------------------------------------------------------------ *)
(* Generational handles: codec and size-class routing.                 *)

module H = Nbr_pool.Pool.Handle

(* Property: pack/unpack round-trips for every representable
   (class, index, generation) triple, and packed handles survive the
   Harris list's mark-tagging ([h lsl 1]) inside OCaml's 63-bit int. *)
let prop_handle_roundtrip =
  QCheck.Test.make ~count:500 ~name:"handle pack/unpack round-trip"
    QCheck.(
      triple (int_bound (H.max_classes - 1))
        (int_bound (H.max_capacity - 1))
        (map (fun g -> g land H.gen_mask) (int_bound max_int)))
    (fun (cls, index, gen) ->
      let h = H.pack ~cls ~index ~gen in
      h >= 0
      && H.cls h = cls
      && H.index h = index
      && H.gen h = gen
      && h lsl 1 asr 1 = h)

let classed () =
  P.create_classed
    ~classes:
      [|
        { Nbr_pool.Pool.cc_capacity = 16; cc_data_fields = 1; cc_ptr_fields = 1 };
        { Nbr_pool.Pool.cc_capacity = 8; cc_data_fields = 3; cc_ptr_fields = 0 };
        { Nbr_pool.Pool.cc_capacity = 4; cc_data_fields = 1; cc_ptr_fields = 4 };
      |]
    ~nthreads:1 ()

let test_size_class_routing () =
  let p = classed () in
  Alcotest.(check int) "nclasses" 3 (P.nclasses p);
  Alcotest.(check int) "total capacity" 28 (P.capacity p);
  Alcotest.(check int) "class 1 capacity" 8 (P.class_capacity p 1);
  let a = P.alloc p and b = P.alloc ~cls:1 p and c = P.alloc ~cls:2 p in
  Alcotest.(check int) "default routes to class 0" 0 (H.cls a);
  Alcotest.(check int) "cls:1 routes to class 1" 1 (H.cls b);
  Alcotest.(check int) "cls:2 routes to class 2" 2 (H.cls c);
  (* Per-class field shapes are independent. *)
  P.set_data p b 2 7;
  Alcotest.(check int) "wide data field in class 1" 7 (P.get_data p b 2);
  P.set_ptr p c 3 a;
  Alcotest.(check int) "wide ptr field in class 2" a (P.get_ptr p c 3);
  (* uids are dense and disjoint across classes. *)
  let ua = P.uid p a and ub = P.uid p b and uc = P.uid p c in
  Alcotest.(check bool) "uids within [0, capacity)" true
    (List.for_all (fun u -> u >= 0 && u < 28) [ ua; ub; uc ]);
  Alcotest.(check bool) "uids disjoint" true
    (ua <> ub && ub <> uc && ua <> uc);
  (* Per-class accounting sees exactly its own traffic. *)
  let k = P.class_stats p 1 in
  Alcotest.(check int) "class 1 allocs" 1 k.P.k_allocs;
  Alcotest.(check int) "class 1 in_use" 1 k.P.k_in_use;
  Alcotest.(check int) "class 0 in_use" 1 (P.class_stats p 0).P.k_in_use

let test_magazine_and_depot () =
  let p = mk ~capacity:256 () in
  (* A burst of frees loads the thread's magazine... *)
  let slots = Array.init 24 (fun _ -> P.alloc p) in
  Array.iter (P.free p) slots;
  let filled = P.magazine_fill p ~cls:0 ~tid:0 in
  Alcotest.(check bool)
    (Printf.sprintf "frees cached in the magazine (%d)" filled)
    true (filled > 0);
  (* ...allocs drain it again without touching shared state... *)
  let before = (P.stats p).P.s_depot_exchanges in
  let again = Array.init filled (fun _ -> P.alloc p) in
  Alcotest.(check int) "allocs served from the magazine" before
    (P.stats p).P.s_depot_exchanges;
  Alcotest.(check int) "magazine drained" 0 (P.magazine_fill p ~cls:0 ~tid:0);
  Array.iter (P.free p) again;
  (* ...and a departing thread's flush empties the cache back to the
     depot with nothing lost: accounting stays exact. *)
  P.flush_thread p ~tid:0;
  Alcotest.(check int) "flush empties the magazine" 0
    (P.magazine_fill p ~cls:0 ~tid:0);
  Alcotest.(check int) "nothing leaked" 0 (P.stats p).P.s_in_use;
  Alcotest.(check bool) "flush exchanged with the depot" true
    ((P.stats p).P.s_depot_exchanges > before)

let test_depot_exchange_roundtrip () =
  let p = mk ~capacity:512 () in
  (* Free far more than one magazine holds: full magazines must be
     pushed to the depot... *)
  let slots = Array.init 200 (fun _ -> P.alloc p) in
  Array.iter (P.free p) slots;
  let st = P.stats p in
  Alcotest.(check bool)
    (Printf.sprintf "depot exchanges happened (%d)" st.P.s_depot_exchanges)
    true
    (st.P.s_depot_exchanges > 0);
  (* ...and allocation pulls them back without ever minting a handle
     twice. *)
  let seen = Hashtbl.create 256 in
  for _ = 1 to 200 do
    let s = P.alloc p in
    Alcotest.(check bool) "no live handle handed out twice" false
      (Hashtbl.mem seen s);
    Hashtbl.add seen s ()
  done;
  Alcotest.(check int) "all 200 back in use" 200 (P.stats p).P.s_in_use

(* Property: under any alloc/free trace, the pool never hands out a slot
   that is currently live, and in_use always equals |allocated \ freed|. *)
let prop_alloc_free_trace =
  QCheck.Test.make ~count:200 ~name:"pool alloc/free trace invariants"
    QCheck.(list (option (int_bound 31)))
    (fun script ->
      let p = mk ~capacity:32 () in
      let live = Hashtbl.create 32 in
      let ok = ref true in
      (try
         List.iter
           (fun step ->
             match step with
             | None ->
                 (* alloc *)
                 let s = P.alloc p in
                 if Hashtbl.mem live s then ok := false;
                 Hashtbl.add live s ()
             | Some i ->
                 (* free the i-th live slot, if any *)
                 let keys = Hashtbl.fold (fun k () acc -> k :: acc) live [] in
                 let keys = List.sort compare keys in
                 if keys <> [] then begin
                   let s = List.nth keys (i mod List.length keys) in
                   Hashtbl.remove live s;
                   P.free p s
                 end)
           script
       with P.Exhausted _ -> ());
      let st = P.stats p in
      !ok && st.P.s_in_use = Hashtbl.length live)

(* ------------------------------------------------------------------ *)
(* Flat field layout, on both runtimes: every data and pointer field of
   every slot of every size-class is its own cell of a per-class block,
   and a record's lock is one of its data fields — here each class names
   its last data field as its lock.  Fill the other fields with distinct
   values, lock each record in turn, free and recycle every slot, and
   check that nothing aliased, nothing was lost, the generations moved
   exactly once and every recycled slot's lock is free.                 *)

module Recycle (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)

  let specs =
    [|
      { Nbr_pool.Pool.cc_capacity = 16; cc_data_fields = 2; cc_ptr_fields = 1 };
      { Nbr_pool.Pool.cc_capacity = 8; cc_data_fields = 1; cc_ptr_fields = 3 };
      { Nbr_pool.Pool.cc_capacity = 4; cc_data_fields = 3; cc_ptr_fields = 0 };
    |]

  let lock_field cls = specs.(cls).Nbr_pool.Pool.cc_data_fields - 1

  (* A value no other (class, index, kind, field) shares. *)
  let tag cls h kind f = (((((cls * 100) + H.index h) * 2) + kind) * 10) + f

  let fill p hs =
    Array.iteri
      (fun cls hs ->
        let sp = specs.(cls) in
        Array.iter
          (fun h ->
            for f = 0 to lock_field cls - 1 do
              P.set_data p h f (tag cls h 0 f)
            done;
            for f = 0 to sp.Nbr_pool.Pool.cc_ptr_fields - 1 do
              P.set_ptr p h f (tag cls h 1 f)
            done)
          hs)
      hs

  (* Every field holds its tag, and exactly the records [held] selects
     hold their lock. *)
  let check_fields ?(held = fun _ -> false) what p hs =
    Array.iteri
      (fun cls hs ->
        let sp = specs.(cls) in
        Array.iter
          (fun h ->
            for f = 0 to lock_field cls - 1 do
              Alcotest.(check int) (what ^ ": data") (tag cls h 0 f)
                (P.get_data p h f)
            done;
            for f = 0 to sp.Nbr_pool.Pool.cc_ptr_fields - 1 do
              Alcotest.(check int) (what ^ ": ptr") (tag cls h 1 f)
                (P.get_ptr p h f)
            done;
            Alcotest.(check bool) (what ^ ": lock") (held h)
              (P.is_locked p h (lock_field cls)))
          hs)
      hs

  let test () =
    let p = P.create_classed ~classes:specs ~nthreads:1 () in
    let alloc_all () =
      Array.mapi
        (fun cls sp ->
          Array.init sp.Nbr_pool.Pool.cc_capacity (fun _ -> P.alloc ~cls p))
        specs
    in
    let hs = alloc_all () in
    fill p hs;
    check_fields "written" p hs;
    (* Lock one record at a time: its lock is its own data field, and
       taking it moves no other lock and no other field. *)
    Array.iteri
      (fun cls ->
        Array.iter (fun h ->
            let f = lock_field cls in
            P.lock p h f;
            Alcotest.(check bool) "lock is the data field" true
              (P.get_data p h f <> 0);
            Alcotest.(check bool) "a held lock refuses try_lock" false
              (P.try_lock p h f);
            check_fields ~held:(fun h' -> h' = h) "one locked" p hs;
            P.unlock p h f))
      hs;
    check_fields "all unlocked" p hs;
    Array.iter (Array.iter (P.free p)) hs;
    Array.iter
      (Array.iter (fun h ->
           Alcotest.(check bool) "freed handle is stale" false (P.valid p h);
           Alcotest.(check int) "generation bumped once" (H.gen h + 1)
             (P.seqno p h)))
      hs;
    (* Recycle every slot: same addresses, next generation, the memory
       still holds what the previous occupant wrote, and the lock every
       occupant took and released is free. *)
    let hs' = alloc_all () in
    let sorted a =
      let a = Array.map (fun h -> (H.index h, h)) a in
      Array.sort compare a;
      a
    in
    Array.iteri
      (fun cls a ->
        let olds = sorted hs.(cls) and news = sorted a in
        Array.iteri
          (fun k (i, h') ->
            let _, h = olds.(k) in
            Alcotest.(check int) "same slot" (H.index h) i;
            Alcotest.(check int) "same class" cls (H.cls h');
            Alcotest.(check int) "next generation" (H.gen h + 1) (H.gen h'))
          news)
      hs';
    check_fields "recycled" p hs'
end

module Recycle_sim = Recycle (Sim)
module Recycle_native = Recycle (Nbr_runtime.Native_rt)

(* ------------------------------------------------------------------ *)
(* Slots past the materialised prefix, on both runtimes: no handle for
   one was ever handed out, so a handle naming one is garbage.  Validated
   reads refuse it as [Stale], it is not valid and its state is [Free],
   and a raw peek reads slot 0, as one past the capacity does.          *)

module Suffix (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)

  let refused what p h =
    let stale read =
      match read p h 0 with _ -> false | exception P.Stale _ -> true
    in
    Alcotest.(check bool) (what ^ ": read_data stale") true
      (stale P.read_data);
    Alcotest.(check bool) (what ^ ": read_ptr stale") true
      (stale P.read_ptr);
    Alcotest.(check bool) (what ^ ": not valid") false (P.valid p h);
    Alcotest.(check bool) (what ^ ": free") true (P.state p h = P.Free)

  let test () =
    let w = Nbr_pool.Pool.chunk_slots in
    let p =
      P.create ~capacity:(3 * w) ~data_fields:1 ~ptr_fields:1 ~nthreads:1 ()
    in
    (* Before the first allocation no chunk exists, slot 0's included. *)
    refused "empty pool, slot 0" p (H.pack ~cls:0 ~index:0 ~gen:0);
    let a = P.alloc p in
    Alcotest.(check int) "the first handle names slot 0" 0 (H.index a);
    P.set_ptr p a 0 77;
    List.iter
      (fun index ->
        let h = H.pack ~cls:0 ~index ~gen:0 in
        let what = Printf.sprintf "slot %d" index in
        refused what p h;
        Alcotest.(check int) (what ^ ": raw peek reads slot 0") 77
          (P.raw_load_ptr p h 0))
      [ w; w + 5; (3 * w) - 1 ]
end

module Suffix_sim = Suffix (Sim)
module Suffix_native = Suffix (Nbr_runtime.Native_rt)

(* Chunks made while several domains allocate: four domains each take
   two chunks' worth of records, tag every one and read every tag back,
   then the main domain reads them all again. *)
let test_native_chunk_growth () =
  let module N = Nbr_runtime.Native_rt in
  let module P = Nbr_pool.Pool.Make (N) in
  let nd = 4 and per = 2 * Nbr_pool.Pool.chunk_slots in
  let p =
    P.create ~capacity:(nd * per * 2) ~data_fields:1 ~ptr_fields:1
      ~nthreads:nd ()
  in
  let tag tid k = (tid * per) + k in
  let got = Array.make nd [||] in
  let check_tags tid hs =
    Array.iteri
      (fun k h ->
        if P.get_data p h 0 <> tag tid k || P.get_ptr p h 0 <> h then
          failwith (Printf.sprintf "domain %d, record %d: wrong tag" tid k))
      hs
  in
  N.run ~nthreads:nd (fun tid ->
      let hs = Array.init per (fun _ -> P.alloc p) in
      Array.iteri
        (fun k h ->
          P.set_data p h 0 (tag tid k);
          P.set_ptr p h 0 h)
        hs;
      check_tags tid hs;
      got.(tid) <- hs);
  Array.iteri check_tags got;
  let seen = Hashtbl.create (nd * per) in
  Array.iter (Array.iter (fun h -> Hashtbl.replace seen h ())) got;
  Alcotest.(check int) "all handles distinct" (nd * per) (Hashtbl.length seen);
  Alcotest.(check int) "allocs are the sum over domains" (nd * per)
    (P.stats p).P.s_allocs

(* A validated read through a valid handle allocates nothing: 10k reads
   of each kind may cost only the few words that reading the counter
   takes.  A result boxed per read costs two words a read, 20000 here. *)

module Read_alloc (Rt : Nbr_runtime.Runtime_intf.S) = struct
  module P = Nbr_pool.Pool.Make (Rt)

  let reads = 10_000
  let max_words = 16.

  let words read p h =
    let sum = ref 0 in
    let before = Gc.minor_words () in
    for _ = 1 to reads do
      sum := !sum + read p h 0
    done;
    let w = Gc.minor_words () -. before in
    ignore (Sys.opaque_identity !sum);
    w

  let test () =
    let p = P.create ~capacity:4 ~data_fields:1 ~ptr_fields:1 ~nthreads:1 () in
    let h = P.alloc p in
    P.set_data p h 0 7;
    P.set_ptr p h 0 h;
    List.iter
      (fun (what, read) ->
        let w = words read p h in
        if w > max_words then
          Alcotest.failf "%s: %.0f minor words over %d reads (bound %.0f)" what
            w reads max_words)
      [ ("read_data", P.read_data); ("read_ptr", P.read_ptr) ]
end

module Read_alloc_sim = Read_alloc (Sim)
module Read_alloc_native = Read_alloc (Nbr_runtime.Native_rt)

let suite =
  [
    Alcotest.test_case "alloc/free lifecycle" `Quick test_alloc_free_cycle;
    Alcotest.test_case "seqno bumps on free" `Quick test_seqno_bumps;
    Alcotest.test_case "double free raises" `Quick test_double_free_raises;
    Alcotest.test_case "exhaustion raises" `Quick test_exhaustion;
    Alcotest.test_case "in-use/peak accounting" `Quick test_in_use_accounting;
    Alcotest.test_case "UAF read detection" `Quick test_uaf_detection;
    Alcotest.test_case "pointer fields nil" `Quick
      test_ptr_fields_nil_initialized;
    Alcotest.test_case "28 bytes per slot" `Quick test_bytes_per_slot;
    QCheck_alcotest.to_alcotest prop_handle_roundtrip;
    Alcotest.test_case "size-class routing" `Quick test_size_class_routing;
    Alcotest.test_case "magazine load/drain/flush" `Quick
      test_magazine_and_depot;
    Alcotest.test_case "depot exchange round-trip" `Quick
      test_depot_exchange_roundtrip;
    QCheck_alcotest.to_alcotest prop_alloc_free_trace;
    Alcotest.test_case "flat fields survive recycle (sim)" `Quick
      Recycle_sim.test;
    Alcotest.test_case "flat fields survive recycle (native)" `Quick
      Recycle_native.test;
    Alcotest.test_case "unmaterialised slots collapse (sim)" `Quick
      Suffix_sim.test;
    Alcotest.test_case "unmaterialised slots collapse (native)" `Quick
      Suffix_native.test;
    Alcotest.test_case "chunk growth across domains (native)" `Quick
      test_native_chunk_growth;
    Alcotest.test_case "validated reads allocate nothing (sim)" `Quick
      Read_alloc_sim.test;
    Alcotest.test_case "validated reads allocate nothing (native)" `Quick
      Read_alloc_native.test;
  ]
