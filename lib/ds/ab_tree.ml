(** Relaxed (a,b)-tree with copy-on-write nodes and multi-phase updates.

    Stands in for the lock-free ABTree of Brown's dissertation (ch. 8) in
    the paper's E3 experiments.  What E3 actually exercises is the k-NBR
    pattern — operations made of {e several} read/write phases, each read
    phase restarting from the root — and this structure has exactly that
    shape while staying lock-based (which NBR supports and DEBRA+ does
    not):

    - Leaves hold up to [b] keys; internal nodes route through up to [b]
      children.  Nodes are immutable once published (except a [marked]
      tombstone): every update builds a replacement node and swings one
      parent pointer under the parent's lock, then retires the old node —
      so {e every} update allocates and retires, making the tree a
      reclamation stress test.
    - An insert into a full leaf splits it into a height-increasing
      degree-2 router ("weight violation" in Brown's terms); a delete may
      leave an empty leaf ("degree violation").  Violations are repaired by
      {e separate} read/write phases that re-descend from the root —
      absorbing the router into its parent, or pruning the empty leaf —
      precisely the CAS-generator / wrap-up decomposition of §5.2.

    At most 3 records are reserved per write phase (grandparent, parent,
    victim), matching the paper's count for the ABTree (§6).

    Record layout (with branching factor [b]): data0..data(b-1) = keys,
    data b = size, data b+1 = marked, data b+2 = lock; ptr0..ptr(b-1) =
    children.  A node is a leaf iff child0 = nil; internal routing keys
    live in key[1..size-1] (child i covers keys in [key i, key (i+1))). *)

module Make
    (Rt : Nbr_runtime.Runtime_intf.S)
    (Smr : Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t) =
struct
  module P = Nbr_pool.Pool.Make (Rt)

  let b = 8
  let name = "ab-tree"

  let data_fields = b + 3
  let ptr_fields = b
  let max_reservations = 3

  let f_size = b
  let f_marked = b + 1
  let f_lock = b + 2

  type t = { pool : P.t; anchor : int }

  (** The anchor is a permanent degree-1 internal node above the real root;
      replacing the root subtree means swinging [anchor.child0] under the
      anchor's lock. *)
  let create pool =
    let anchor = P.alloc pool in
    let empty = P.alloc pool in
    P.set_data pool anchor f_size 1;
    P.set_data pool empty f_size 0;
    P.set_ptr pool anchor 0 empty;
    { pool; anchor }

  (* Write-phase field reads: the node is locked / reserved, so the handle
     cannot go stale under a sound scheme. *)
  let size_of t s = min (max (P.get_data t.pool s f_size) 0) b
  let marked t s = P.get_data t.pool s f_marked = 1
  let key_at t s i = P.get_data t.pool s i
  let is_leaf t s = P.get_ptr t.pool s 0 = P.nil

  (* Read-phase variants: generation-validated, so a stale handle fails
     through the scheme's own policy instead of routing the descent (or
     deciding membership) by a recycled occupant's fields. *)
  let rsize_of rd s = min (max (Smr.read_data rd ~src:s ~field:f_size) 0) b
  let rkey_at rd s i = Smr.read_data rd ~src:s ~field:i
  let ris_leaf rd s = Smr.peek_ptr rd ~src:s ~field:0 = P.nil

  (* Child index for key [k] at internal node [s]: the largest [i] with
     [i = 0 || key i <= k]. *)
  let route t s k =
    let m = size_of t s in
    let i = ref 0 in
    for j = 1 to m - 1 do
      if key_at t s j <= k then i := j
    done;
    !i

  let rroute rd s k =
    let m = rsize_of rd s in
    let i = ref 0 in
    for j = 1 to m - 1 do
      if rkey_at rd s j <= k then i := j
    done;
    !i

  (* Position of [k] in leaf [s], or -1. *)
  let leaf_find t s k =
    let m = size_of t s in
    let pos = ref (-1) in
    for j = 0 to m - 1 do
      if key_at t s j = k then pos := j
    done;
    !pos

  let rleaf_find rd s k =
    let m = rsize_of rd s in
    let pos = ref (-1) in
    for j = 0 to m - 1 do
      if rkey_at rd s j = k then pos := j
    done;
    !pos

  (* ---------------- node construction (write phases only) -------------- *)

  let new_leaf t ctx keys n =
    let s = Smr.alloc ctx in
    for j = 0 to n - 1 do
      P.set_data t.pool s j keys.(j)
    done;
    P.set_data t.pool s f_size n;
    P.set_data t.pool s f_marked 0;
    for j = 0 to b - 1 do
      P.set_ptr t.pool s j P.nil
    done;
    s

  let new_internal t ctx keys children n =
    let s = Smr.alloc ctx in
    for j = 0 to n - 1 do
      P.set_data t.pool s j keys.(j);
      P.set_ptr t.pool s j children.(j)
    done;
    P.set_data t.pool s f_size n;
    P.set_data t.pool s f_marked 0;
    for j = n to b - 1 do
      P.set_ptr t.pool s j P.nil
    done;
    s

  (* Tombstone a node inside the critical section; the actual [retire]
     must happen only after every lock is released — retiring a locked
     record would let the reclaimer free (and the allocator recycle) a slot
     whose lock word is still held. *)
  let mark t s = P.set_data t.pool s f_marked 1

  (* ---------------- search ---------------- *)

  (* Φread: descend to the leaf for [k], tracking grandparent and parent
     (the anchor serves as both for shallow trees). *)
  let descend t rd k =
    let gp = ref t.anchor and gdir = ref 0 in
    let p = ref t.anchor and pdir = ref 0 in
    let n = ref (Smr.read_ptr rd ~src:t.anchor ~field:0) in
    while not (ris_leaf rd !n) do
      gp := !p;
      gdir := !pdir;
      p := !n;
      pdir := rroute rd !n k;
      n := Smr.read_ptr rd ~src:!n ~field:!pdir
    done;
    (!gp, !gdir, !p, !pdir, !n)

  let contains t ctx k =
    let v = { Smr.view = (fun rd ->
          let _, _, _, _, leaf = descend t rd k in
          rleaf_find rd leaf k >= 0) } in
    Smr.op ctx (fun op -> Smr.read_only op v)

  (* ---------------- repair phases (k-NBR wrap-up) ---------------- *)

  (* One repair attempt: re-descend towards [k]; if the path crosses a
     degree-2 router absorbable into its (non-anchor, non-full) parent, or
     an empty leaf, fix it in a write phase.  Returns true when another
     pass might find more work. *)
  type violation =
    | Clean
    | Absorb of int * int * int * int * int  (** gp, gdir, p, pdir, router *)
    | Prune of int * int * int * int * int  (** gp, gdir, p, pdir, leaf *)

  let find_violation t rd k =
    let gp = ref t.anchor and gdir = ref 0 in
    let p = ref t.anchor and pdir = ref 0 in
    let n = ref (Smr.read_ptr rd ~src:t.anchor ~field:0) in
    let v = ref Clean in
    while !v = Clean && not (ris_leaf rd !n) do
      let m = rsize_of rd !n in
      if m = 2 && !p <> t.anchor && rsize_of rd !p < b then
        v := Absorb (!gp, !gdir, !p, !pdir, !n)
      else begin
        gp := !p;
        gdir := !pdir;
        p := !n;
        pdir := rroute rd !n k;
        n := Smr.read_ptr rd ~src:!n ~field:!pdir
      end
    done;
    (if
       !v = Clean && ris_leaf rd !n
       && rsize_of rd !n = 0
       && !p <> t.anchor
     then v := Prune (!gp, !gdir, !p, !pdir, !n));
    !v

  let unlock_all t cells =
    List.iter (fun s -> P.unlock t.pool s f_lock) (List.rev cells)

  (* Lock [cells] in order; return [None] (after unlocking) if [valid]
     fails.  The locks are released on every exit, a raising [body]
     (pool exhaustion) included. *)
  let with_locks t cells ~valid ~body =
    List.iter (fun s -> P.lock t.pool s f_lock) cells;
    let ok = valid () in
    let r =
      if ok then (
        match body () with
        | v -> Some v
        | exception e ->
            unlock_all t cells;
            raise e)
      else None
    in
    unlock_all t cells;
    r

  let scratch_keys () = Array.make (b + 1) 0
  let scratch_children () = Array.make (b + 1) P.nil

  (* Absorb router [r] (size 2) into parent [p] at child position [pdir],
     replacing [p] by a copy with both of [r]'s children.  [p] gains one
     child; requires p.size < b. *)
  let do_absorb t ctx op (gp, gdir, p, pdir, r) =
    Smr.phase op
      ~read:{ Smr.read = (fun _ -> ((), [| gp; p; r |])) }
      ~write:(fun () ->
        (* [r] must be locked too: its children are copied into the
           replacement, and leaf operations under [r] swing r's child
           edges under r's lock — without holding it the copy could
           capture a just-retired child, leaving a retired node
           reachable. *)
        with_locks t [ gp; p; r ]
          ~valid:(fun () ->
            (not (marked t gp))
            && (not (marked t p))
            && (not (marked t r))
            && P.get_ptr t.pool gp gdir = p
            && P.get_ptr t.pool p pdir = r
            && size_of t r = 2
            && size_of t p < b
            && not (is_leaf t r))
          ~body:(fun () ->
            let m = size_of t p in
            let keys = scratch_keys () and children = scratch_children () in
            let w = ref 0 in
            for j = 0 to m - 1 do
              if j = pdir then begin
                (* Splice r's two children in place of r; r's routing key
                   separates them. *)
                keys.(!w) <- key_at t p j;
                children.(!w) <- P.get_ptr t.pool r 0;
                incr w;
                keys.(!w) <- key_at t r 1;
                children.(!w) <- P.get_ptr t.pool r 1;
                incr w
              end
              else begin
                keys.(!w) <- key_at t p j;
                children.(!w) <- P.get_ptr t.pool p j;
                incr w
              end
            done;
            let p' = new_internal t ctx keys children !w in
            P.set_ptr t.pool gp gdir p';
            mark t p;
            mark t r;
            [ p; r ])
        |> function
        | None -> false
        | Some victims ->
            List.iter (Smr.retire ctx) victims;
            true)

  (* Prune empty leaf [leaf] out of parent [p]: copy [p] without that
     child; if [p] would drop to one child, replace [p] by its surviving
     child instead. *)
  let do_prune t ctx op (gp, gdir, p, pdir, leaf) =
    Smr.phase op
      ~read:{ Smr.read = (fun _ -> ((), [| gp; p; leaf |])) }
      ~write:(fun () ->
        with_locks t [ gp; p ]
          ~valid:(fun () ->
            (not (marked t gp))
            && (not (marked t p))
            && (not (marked t leaf))
            && P.get_ptr t.pool gp gdir = p
            && P.get_ptr t.pool p pdir = leaf
            && is_leaf t leaf
            && size_of t leaf = 0
            && size_of t p >= 2)
          ~body:(fun () ->
            let m = size_of t p in
            if m = 2 then begin
              let sibling = P.get_ptr t.pool p (1 - pdir) in
              P.set_ptr t.pool gp gdir sibling;
              mark t p;
              mark t leaf;
              [ p; leaf ]
            end
            else begin
              let keys = scratch_keys () and children = scratch_children () in
              let w = ref 0 in
              for j = 0 to m - 1 do
                if j <> pdir then begin
                  keys.(!w) <- key_at t p j;
                  children.(!w) <- P.get_ptr t.pool p j;
                  incr w
                end
              done;
              (* Child 0's routing key is unused; normalise it. *)
              let p' = new_internal t ctx keys children !w in
              P.set_ptr t.pool gp gdir p';
              mark t p;
              mark t leaf;
              [ p; leaf ]
            end)
        |> function
        | None -> false
        | Some victims ->
            List.iter (Smr.retire ctx) victims;
            true)

  let max_repair_passes = 8

  let repair t ctx op k =
    let pass = ref 0 in
    let continue_ = ref true in
    while !continue_ && !pass < max_repair_passes do
      incr pass;
      let v =
        Smr.read_only op { Smr.view = (fun rd -> find_violation t rd k) }
      in
      match v with
      | Clean -> continue_ := false
      | Absorb (a1, a2, a3, a4, a5) ->
          ignore (do_absorb t ctx op (a1, a2, a3, a4, a5))
      | Prune (a1, a2, a3, a4, a5) ->
          ignore (do_prune t ctx op (a1, a2, a3, a4, a5))
    done

  (* ---------------- updates ---------------- *)

  type 'a outcome = Done of 'a | Again

  let insert t ctx k =
    let split = ref false in
    let rec attempt op =
      let out =
        Smr.phase op
          ~read:{ Smr.read = (fun rd ->
            let _, _, p, pdir, leaf = descend t rd k in
            ((p, pdir, leaf), [| p; leaf |])) }
          ~write:(fun (p, pdir, leaf) ->
            if leaf_find t leaf k >= 0 then Done false
            else
              match
                with_locks t [ p ]
                  ~valid:(fun () ->
                    (not (marked t p))
                    && (not (marked t leaf))
                    && P.get_ptr t.pool p pdir = leaf
                    && leaf_find t leaf k < 0)
                  ~body:(fun () ->
                    let m = size_of t leaf in
                    let keys = scratch_keys () in
                    (* Merge k into the sorted keys. *)
                    let w = ref 0 and placed = ref false in
                    for j = 0 to m - 1 do
                      let kj = key_at t leaf j in
                      if (not !placed) && k < kj then begin
                        keys.(!w) <- k;
                        incr w;
                        placed := true
                      end;
                      keys.(!w) <- kj;
                      incr w
                    done;
                    if not !placed then begin
                      keys.(!w) <- k;
                      incr w
                    end;
                    if m < b then begin
                      let leaf' = new_leaf t ctx keys !w in
                      P.set_ptr t.pool p pdir leaf';
                      mark t leaf;
                      false (* no split *)
                    end
                    else begin
                      (* Overfull: split into two leaves under a fresh
                         degree-2 router (height-increasing; repaired by
                         a later absorb phase). *)
                      let total = !w in
                      let lo = (total + 1) / 2 in
                      let l1 = new_leaf t ctx keys lo in
                      (* A later allocation that raises frees the
                         earlier, never published, nodes plainly. *)
                      let l2 =
                        match
                          new_leaf t ctx (Array.sub keys lo (total - lo))
                            (total - lo)
                        with
                        | s -> s
                        | exception e ->
                            P.free t.pool l1;
                            raise e
                      in
                      let rkeys = [| 0; keys.(lo) |] in
                      let router =
                        match new_internal t ctx rkeys [| l1; l2 |] 2 with
                        | s -> s
                        | exception e ->
                            P.free t.pool l2;
                            P.free t.pool l1;
                            raise e
                      in
                      P.set_ptr t.pool p pdir router;
                      mark t leaf;
                      true
                    end)
              with
              | None -> Again
              | Some did_split ->
                  Smr.retire ctx leaf;
                  split := did_split;
                  Done true)
      in
      match out with
      | Done r ->
          if r && !split then repair t ctx op k;
          r
      | Again -> attempt op
    in
    Smr.op ctx attempt

  let delete t ctx k =
    let emptied = ref false in
    let rec attempt op =
      let out =
        Smr.phase op
          ~read:{ Smr.read = (fun rd ->
            let _, _, p, pdir, leaf = descend t rd k in
            ((p, pdir, leaf), [| p; leaf |])) }
          ~write:(fun (p, pdir, leaf) ->
            if leaf_find t leaf k < 0 then Done false
            else
              match
                with_locks t [ p ]
                  ~valid:(fun () ->
                    (not (marked t p))
                    && (not (marked t leaf))
                    && P.get_ptr t.pool p pdir = leaf
                    && leaf_find t leaf k >= 0)
                  ~body:(fun () ->
                    let m = size_of t leaf in
                    let keys = scratch_keys () in
                    let w = ref 0 in
                    for j = 0 to m - 1 do
                      let kj = key_at t leaf j in
                      if kj <> k then begin
                        keys.(!w) <- kj;
                        incr w
                      end
                    done;
                    let leaf' = new_leaf t ctx keys !w in
                    P.set_ptr t.pool p pdir leaf';
                    mark t leaf;
                    !w = 0)
              with
              | None -> Again
              | Some now_empty ->
                  Smr.retire ctx leaf;
                  emptied := now_empty;
                  Done true)
      in
      match out with
      | Done r ->
          if r && !emptied then repair t ctx op k;
          r
      | Again -> attempt op
    in
    Smr.op ctx attempt

  (* ---------------- sequential helpers (tests only) ---------------- *)

  let to_list t =
    let rec go s acc =
      if s = P.nil then acc
      else if is_leaf t s then begin
        let m = size_of t s in
        let acc = ref acc in
        for j = m - 1 downto 0 do
          acc := key_at t s j :: !acc
        done;
        !acc
      end
      else begin
        let m = size_of t s in
        let acc = ref acc in
        for j = m - 1 downto 0 do
          acc := go (P.get_ptr t.pool s j) !acc
        done;
        !acc
      end
    in
    go (P.get_ptr t.pool t.anchor 0) []

  let size t = List.length (to_list t)

  (** Structural checks for tests: sorted leaves, router ranges respected,
      sizes within bounds.  Returns an error description if violated. *)
  let check t =
    let err = ref None in
    let note m = if !err = None then err := Some m in
    let rec go s lo hi =
      if s <> P.nil then begin
        let m = size_of t s in
        if is_leaf t s then begin
          for j = 0 to m - 1 do
            let kj = key_at t s j in
            if j > 0 && key_at t s (j - 1) >= kj then note "leaf unsorted";
            if kj < lo || kj >= hi then note "leaf key out of range"
          done
        end
        else begin
          if m < 1 || m > b then note "internal size out of bounds";
          for j = 0 to m - 1 do
            let l = if j = 0 then lo else key_at t s j in
            let h = if j = m - 1 then hi else key_at t s (j + 1) in
            if j > 0 && j < m - 1 && key_at t s j >= key_at t s (j + 1) then
              note "routers unsorted";
            go (P.get_ptr t.pool s j) l h
          done
        end
      end
    in
    go (P.get_ptr t.pool t.anchor 0) min_int max_int;
    !err
end
