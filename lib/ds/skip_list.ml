(** Optimistic skiplist with lock-free searches and validated, lock-based
    updates (in the spirit of Herlihy, Lev, Luchangco and Shavit's lazy
    skiplist, simplified to single-phase updates).

    An extension beyond the paper's evaluation set, included because it
    stresses a dimension the other structures do not: updates reserve up
    to [2·max_level + 1] records (all predecessors and successors across
    levels plus the victim), an order of magnitude more than the 2–3 of
    the paper's structures — exercising NBR's assumption that reservations
    stay far below the limbo-bag threshold (paper §6).

    Design: searches descend with no synchronization; an update locks the
    union of predecessors (deduplicated, in increasing-key order — which
    level order gives us for free — so lock acquisition follows a global
    order and cannot deadlock) plus the victim, validates every level's
    link and mark, and performs the whole multi-level splice inside one
    write phase.  Node levels are a deterministic geometric function of
    the key, which keeps executions reproducible.

    Record layout (max_level L = 8): data0 = key, data1 = marked,
    data2 = top level (1..L), data3 = lock; ptr0..ptr(L-1) =
    next-by-level. *)

let traversal = { Nbr_core.Smr_intf.raw = false; keeps_old = true }

module Make
    (Rt : Nbr_runtime.Runtime_intf.S)
    (Smr : Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t) =
struct
  module P = Nbr_pool.Pool.Make (Rt)

  let max_level = 8
  let name = "skip-list"
  let data_fields = 4
  let ptr_fields = max_level
  let max_reservations = (2 * max_level) + 1

  let f_key = 0
  let f_marked = 1
  let f_top = 2
  let f_lock = 3

  type t = { head : int; tail : int }

  let create pool =
    let head = P.alloc pool and tail = P.alloc pool in
    P.set_data pool head f_key min_int;
    P.set_data pool tail f_key max_int;
    P.set_data pool head f_top max_level;
    P.set_data pool tail f_top max_level;
    for lvl = 0 to max_level - 1 do
      P.set_ptr pool head lvl tail;
      P.set_ptr pool tail lvl P.nil
    done;
    { head; tail }

  (* Write-phase field reads: the record is locked / reserved, so the
     handle cannot go stale under a sound scheme. *)
  let key wr s = Smr.get_data wr s f_key
  let marked wr s = Smr.get_data wr s f_marked = 1

  (* Read-phase variants: generation-validated, so a stale handle fails
     through the scheme's own policy instead of routing the descent by a
     recycled occupant's key. *)
  let rkey rd s = Smr.read_data rd ~src:s ~field:f_key
  let rmarked rd s = Smr.read_data rd ~src:s ~field:f_marked = 1
  let rtop rd s = Smr.read_data rd ~src:s ~field:f_top

  (* Deterministic geometric level: P(level > i) = 2^-i. *)
  let level_of k =
    let h =
      let z = (k + 0x9e3779b9) * 0x45d9f3b land max_int in
      (z lxor (z lsr 16)) * 0x45d9f3b land max_int
    in
    let rec go l h =
      if l >= max_level || h land 1 = 1 then l else go (l + 1) (h lsr 1)
    in
    go 1 h

  (* Φread: collect the per-level window.  [preds.(l)] is the rightmost
     node with key < k at level l; [succs.(l)] its successor. *)
  let find t rd k preds succs =
    let pred = ref t.head in
    for lvl = max_level - 1 downto 0 do
      let curr = ref (Smr.read_ptr rd ~src:!pred ~field:lvl) in
      while rkey rd !curr < k do
        pred := !curr;
        curr := Smr.read_ptr rd ~src:!pred ~field:lvl
      done;
      preds.(lvl) <- !pred;
      succs.(lvl) <- !curr
    done

  let contains t ctx k =
    let preds = Array.make max_level t.head in
    let succs = Array.make max_level t.tail in
    let v = { Smr.view = (fun rd ->
          find t rd k preds succs;
          rkey rd succs.(0) = k && not (rmarked rd succs.(0))) } in
    Smr.op ctx (fun op -> Smr.read_only op v)

  (* Lock the given records in increasing-key order, skipping duplicates.
     Returns the list actually locked (for unlock). *)
  let lock_unique wr nodes =
    let sorted = List.sort_uniq compare nodes in
    (* increasing slot id is NOT key order; sort by key instead (ids are
       arbitrary).  Keys are distinct across live distinct nodes. *)
    let by_key =
      List.sort (fun a b -> compare (key wr a) (key wr b)) sorted
    in
    List.iter (fun s -> Smr.lock wr s f_lock) by_key;
    by_key

  (* Also released by the phase when an allocation raises. *)
  let unlock_all wr locked =
    List.iter (fun s -> Smr.unlock wr s f_lock) (List.rev locked)

  type 'a outcome = Done of 'a | Retry

  let reservations preds succs extra tl =
    let r = Array.make ((2 * tl) + (if extra >= 0 then 1 else 0)) 0 in
    for l = 0 to tl - 1 do
      r.(2 * l) <- preds.(l);
      r.((2 * l) + 1) <- succs.(l)
    done;
    if extra >= 0 then r.((2 * tl)) <- extra;
    r

  let insert t ctx k =
    let tl = level_of k in
    let preds = Array.make max_level t.head in
    let succs = Array.make max_level t.tail in
    let rec attempt op =
      let out =
        Smr.phase op
          ~read:{ Smr.read = (fun rd ->
            find t rd k preds succs;
            ((), reservations preds succs (-1) tl)) }
          ~write:{ Smr.write = (fun wr () ->
            if key wr succs.(0) = k then
              if marked wr succs.(0) then Retry (* deletion in flight *)
              else Done false
            else begin
              let to_lock = Array.to_list (Array.sub preds 0 tl) in
              let locked = lock_unique wr to_lock in
              let valid = ref true in
              for lvl = 0 to tl - 1 do
                if
                  marked wr preds.(lvl)
                  || marked wr succs.(lvl)
                  || Smr.get_ptr wr preds.(lvl) lvl <> succs.(lvl)
                then valid := false
              done;
              if not !valid then begin
                unlock_all wr locked;
                Retry
              end
              else begin
                let node = Smr.alloc wr in
                Smr.set_data wr node f_key k;
                Smr.set_data wr node f_marked 0;
                Smr.set_data wr node f_top tl;
                for lvl = 0 to tl - 1 do
                  Smr.set_ptr wr node lvl succs.(lvl)
                done;
                for lvl = tl to max_level - 1 do
                  Smr.set_ptr wr node lvl P.nil
                done;
                (* Bottom-up: the node becomes logically present when its
                   level-0 link is published. *)
                for lvl = 0 to tl - 1 do
                  Smr.set_ptr wr preds.(lvl) lvl node
                done;
                unlock_all wr locked;
                Done true
              end
            end) }
      in
      match out with Done r -> r | Retry -> attempt op
    in
    Smr.op ctx attempt

  let delete t ctx k =
    let preds = Array.make max_level t.head in
    let succs = Array.make max_level t.tail in
    let rec attempt op =
      let out =
        Smr.phase op
          ~read:{ Smr.read = (fun rd ->
            find t rd k preds succs;
            let victim = succs.(0) in
            let tl =
              if rkey rd victim = k then
                min max_level (max 1 (rtop rd victim))
              else 1
            in
            ((victim, tl), reservations preds succs victim tl)) }
          ~write:{ Smr.write = (fun wr (victim, tl) ->
            if key wr victim <> k then Done false
            else if marked wr victim then Done false
            else begin
              let to_lock = victim :: Array.to_list (Array.sub preds 0 tl) in
              let locked = lock_unique wr to_lock in
              let valid = ref (not (marked wr victim)) in
              for lvl = 0 to tl - 1 do
                if
                  marked wr preds.(lvl)
                  || Smr.get_ptr wr preds.(lvl) lvl <> victim
                then valid := false
              done;
              (* The victim must be linked at exactly its levels by these
                 preds; a concurrent insert above cannot happen (levels
                 are fixed at creation). *)
              if not !valid then begin
                unlock_all wr locked;
                Retry
              end
              else begin
                Smr.set_data wr victim f_marked 1;
                for lvl = tl - 1 downto 0 do
                  Smr.set_ptr wr preds.(lvl) lvl
                    (Smr.get_ptr wr victim lvl)
                done;
                unlock_all wr locked;
                Smr.retire wr victim;
                Done true
              end
            end) }
      in
      match out with Done r -> r | Retry -> attempt op
    in
    Smr.op ctx attempt

  (** Sequential snapshot via level 0 (tests only). *)
  let to_list pool t =
    let rec go s acc =
      if s = t.tail then List.rev acc
      else
        let acc =
          if P.get_data pool s f_marked = 1 then acc
          else P.get_data pool s f_key :: acc
        in
        go (P.get_ptr pool s 0) acc
    in
    go (P.get_ptr pool t.head 0) []

  let size pool t = List.length (to_list pool t)

  (** Structural check: every level sorted, every upper-level node present
      at level 0 (tests only, quiescent state). *)
  let check pool t =
    let err = ref None in
    let note m = if !err = None then err := Some m in
    let level0 = Hashtbl.create 64 in
    let rec walk0 s =
      if s <> t.tail then begin
        Hashtbl.replace level0 s ();
        walk0 (P.get_ptr pool s 0)
      end
    in
    walk0 (P.get_ptr pool t.head 0);
    for lvl = 0 to max_level - 1 do
      let rec walk s last =
        if s <> t.tail && s <> P.nil then begin
          let k = P.get_data pool s f_key in
          if k <= last then note "level unsorted";
          if lvl > 0 && not (Hashtbl.mem level0 s) then
            note "upper-level node missing at level 0";
          walk (P.get_ptr pool s lvl) k
        end
      in
      walk (P.get_ptr pool t.head lvl) min_int
    done;
    !err
end
