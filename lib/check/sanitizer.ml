(* See sanitizer.mli.  One online checker subscribed to the trace
   stream.  All state is plain (the simulator delivers events
   synchronously from a single domain); the checker never emits events
   itself, so re-entrancy is not a concern. *)

module Trace = Nbr_obs.Trace

type config = {
  protection : Nbr_core.Smr_intf.protection;
  nthreads : int;
  garbage_bound : int option;
}

type violation = {
  v_rule : string;
  v_tid : int;
  v_ns : int;
  v_detail : string;
  v_context : string list;
}

(* Slot lifecycle model, rebuilt from Alloc_slot/Retire/Free_slot.
   Slots never seen in an Alloc_slot (e.g. allocated during pre-run
   prefill, which emits outside any fiber) stay unknown and are never
   flagged. *)
type slot_state = Live | Retired | Freed

let context_depth = 16
let max_recorded = 200

type t = {
  cfg : config;
  slots : (int, slot_state) Hashtbl.t;
  mutable retired_count : int;  (** retired, not yet freed *)
  mutable garbage_latched : bool;
  in_op : bool array;
  in_scope : bool array;  (** Checkpoint_set .. Reservation_publish *)
  handed : bool array;
      (** tid was handed foreign garbage at least once (orphan parcel or
          reclaimer handoff) — the only licence for an async sweep *)
  pending_sig : bool array array;  (** [sender].[victim] *)
  accessed_after : bool array array;
      (** victim performed a guarded access after [sender]'s still
          unobserved signal *)
  ring : string array;  (** last [context_depth] events, formatted *)
  mutable ring_next : int;
  mutable viols : violation list;  (** newest first *)
  mutable nviols : int;
}

let fmt_event (e : Trace.event) =
  Printf.sprintf "%d t%d %s a=%d b=%d" e.Trace.e_ns e.e_tid
    (Trace.kind_name e.e_kind) e.e_a e.e_b

let context t =
  let n = min t.ring_next context_depth in
  List.init n (fun i ->
      t.ring.((t.ring_next - n + i) mod context_depth))

let record t ~rule ~tid ~ns detail =
  t.nviols <- t.nviols + 1;
  if t.nviols <= max_recorded then
    t.viols <-
      { v_rule = rule; v_tid = tid; v_ns = ns; v_detail = detail;
        v_context = context t }
      :: t.viols

let slot_state t s = Hashtbl.find_opt t.slots s

let on_event t (e : Trace.event) =
  let tid = e.Trace.e_tid and ns = e.e_ns in
  let in_range i = i >= 0 && i < t.cfg.nthreads in
  t.ring.(t.ring_next mod context_depth) <- fmt_event e;
  t.ring_next <- t.ring_next + 1;
  match e.e_kind with
  | Trace.Alloc_slot -> Hashtbl.replace t.slots e.e_a Live
  | Trace.Retire ->
      (match slot_state t e.e_a with
      | Some Retired -> () (* pool dedups, but stay robust *)
      | _ ->
          Hashtbl.replace t.slots e.e_a Retired;
          t.retired_count <- t.retired_count + 1);
      (match t.cfg.garbage_bound with
      | Some b when t.retired_count > b && not t.garbage_latched ->
          t.garbage_latched <- true;
          record t ~rule:"garbage_bound" ~tid ~ns
            (Printf.sprintf "%d records retired-unreclaimed, bound %d"
               t.retired_count b)
      | _ -> ())
  | Trace.Free_slot ->
      (match slot_state t e.e_a with
      | Some Retired -> t.retired_count <- t.retired_count - 1
      | _ -> ());
      Hashtbl.replace t.slots e.e_a Freed
  | Trace.Access ->
      (* Keys are generational handles, so the lifecycle table is
         generation-aware by construction: a recycled slot's new
         incarnation is a different key, and an access through the old
         handle still finds the Freed entry — no seqno heuristics. *)
      (if slot_state t e.e_a = Some Freed then
         record t ~rule:"uaf_access" ~tid ~ns
           (Printf.sprintf "guarded read through stale handle %d (record freed)"
              e.e_a));
      (if
         t.cfg.protection = Neutralization
         && in_range tid
         && t.in_op.(tid)
         && not t.in_scope.(tid)
       then
         record t ~rule:"unguarded_access" ~tid ~ns
           (Printf.sprintf
              "read of slot %d outside a checkpointed read phase" e.e_a));
      if in_range tid then
        for s = 0 to t.cfg.nthreads - 1 do
          if t.pending_sig.(s).(tid) then t.accessed_after.(s).(tid) <- true
        done
  | Trace.Begin_op ->
      if in_range tid then begin
        if t.in_op.(tid) then
          record t ~rule:"unbalanced_op" ~tid ~ns
            "begin_op while already inside an operation";
        t.in_op.(tid) <- true
      end
  | Trace.End_op ->
      if in_range tid then begin
        if not t.in_op.(tid) then
          record t ~rule:"unbalanced_op" ~tid ~ns
            "end_op without a matching begin_op";
        t.in_op.(tid) <- false;
        t.in_scope.(tid) <- false
      end
  | Trace.Checkpoint_set -> if in_range tid then t.in_scope.(tid) <- true
  | Trace.Reservation_publish ->
      if in_range tid then t.in_scope.(tid) <- false
  | Trace.Neutralized ->
      if in_range tid then begin
        t.in_scope.(tid) <- false;
        for s = 0 to t.cfg.nthreads - 1 do
          t.pending_sig.(s).(tid) <- false
        done
      end
  | Trace.Signal_sent ->
      if in_range tid && in_range e.e_a then begin
        t.pending_sig.(tid).(e.e_a) <- true;
        t.accessed_after.(tid).(e.e_a) <- false
      end
  | Trace.Signal_delivered | Trace.Signal_consumed ->
      if in_range tid then
        for s = 0 to t.cfg.nthreads - 1 do
          t.pending_sig.(s).(tid) <- false
        done
  | Trace.Reclaim ->
      (* e_a = records freed by this reclamation event.  Freeing while a
         victim of our own unobserved signal kept accessing means the
         writers' handshake did not do its job (dropped signal, or a
         hole in the protocol). *)
      if e.e_a > 0 && in_range tid then
        for v = 0 to t.cfg.nthreads - 1 do
          if t.pending_sig.(tid).(v) && t.accessed_after.(tid).(v) then begin
            record t ~rule:"handshake_incomplete" ~tid ~ns
              (Printf.sprintf
                 "reclaimed %d records while t%d kept accessing after an \
                  unobserved neutralization signal"
                 e.e_a v);
            (* One report per broken handshake, not per subsequent sweep. *)
            t.pending_sig.(tid).(v) <- false
          end
        done
  | Trace.Orphan_adopted ->
      if in_range tid then t.handed.(tid) <- true
  | Trace.Handoff_collect ->
      if in_range tid then t.handed.(tid) <- true
  | Trace.Async_sweep ->
      (* Every family: sweeping limbo bags off the operation path is
         legitimate only for a thread that owns what it sweeps — and an
         async sweeper owns nothing it was not handed through the orphan
         or reclaimer-handoff channels. *)
      if e.e_a > 0 && in_range tid && not t.handed.(tid) then
        record t ~rule:"foreign_sweep" ~tid ~ns
          (Printf.sprintf
             "async sweep freed %d records on a thread never handed a \
              limbo bag"
             e.e_a)
  | Trace.Stale_handle ->
      (* A generation-validated access caught a stale handle before any
         data crossed over.  Foil schemes race reclamation on purpose;
         restart-capable families (neutralization, hazard, interval)
         tolerate the race by construction — detection is their graceful
         path, the access never yields live data.  Epoch-family grace
         periods, though, make it impossible for a record to be freed
         while any thread is inside an operation: a stale validated read
         under an open op there means protection failed. *)
      if
        t.cfg.protection = Epoch && in_range tid && t.in_op.(tid)
      then
        record t ~rule:"stale_handle" ~tid ~ns
          (Printf.sprintf
             "validated read caught stale handle %d (slot generation now \
              %d) under epoch protection"
             e.e_a e.e_b)
  | Trace.Restart | Trace.Bag_push | Trace.Bag_sweep | Trace.Pool_starvation
  | Trace.Pool_overflow | Trace.Fault_action | Trace.Heartbeat_timeout
  | Trace.Peer_declared_dead | Trace.Watermark_high | Trace.Watermark_low
  | Trace.Bag_handoff | Trace.Degrade | Trace.Restore
  | Trace.Handshake_timeout | Trace.Admission_shed | Trace.Request_timeout
  | Trace.Request_retry | Trace.Breaker_open | Trace.Breaker_half_open
  | Trace.Breaker_close | Trace.Brownout ->
      ()

let attach cfg =
  if cfg.nthreads < 1 then invalid_arg "Sanitizer.attach: nthreads";
  let t =
    {
      cfg;
      slots = Hashtbl.create 256;
      retired_count = 0;
      garbage_latched = false;
      in_op = Array.make cfg.nthreads false;
      in_scope = Array.make cfg.nthreads false;
      handed = Array.make cfg.nthreads false;
      pending_sig =
        Array.init cfg.nthreads (fun _ -> Array.make cfg.nthreads false);
      accessed_after =
        Array.init cfg.nthreads (fun _ -> Array.make cfg.nthreads false);
      ring = Array.make context_depth "";
      ring_next = 0;
      viols = [];
      nviols = 0;
    }
  in
  if not (Trace.enabled ()) then Trace.enable ~nthreads:cfg.nthreads ();
  Trace.set_verbose true;
  Trace.subscribe (Some (on_event t));
  t

let detach t =
  Trace.subscribe None;
  Trace.set_verbose false;
  for tid = 0 to t.cfg.nthreads - 1 do
    if t.in_op.(tid) then
      record t ~rule:"unbalanced_op" ~tid ~ns:0
        "thread still inside an operation at detach"
  done

let violations t = List.rev t.viols
let total_violations t = t.nviols

let violation_to_string v =
  Printf.sprintf "[%s] t%d@%dns: %s" v.v_rule v.v_tid v.v_ns v.v_detail
