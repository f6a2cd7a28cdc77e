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
    live in key[1..size-1] (child i covers keys in [key i, key (i+1))).
    A new leaf writes its keys, size, marked and child0 = nil; a new
    internal node writes keys and children [0, size), size and marked.
    [Pool.alloc] does not clear a slot, so the fields a node leaves
    unwritten (a leaf's children 1..b-1, an internal node's children at
    or above its size, any key at or above its size) keep a previous
    occupant's words, and nothing reads them.

    Keys in a leaf and routing keys in a router are sorted ([check]
    asserts it), so every search stops at the first key past its target
    instead of reading the whole node. *)

let traversal = { Nbr_core.Smr_intf.raw = false; keeps_old = false }

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

  type t = { anchor : int }

  (** The anchor is a permanent degree-1 internal node above the real root;
      replacing the root subtree means swinging [anchor.child0] under the
      anchor's lock. *)
  let create pool =
    let anchor = P.alloc pool in
    let empty = P.alloc pool in
    P.set_data pool anchor f_size 1;
    P.set_data pool empty f_size 0;
    P.set_ptr pool anchor 0 empty;
    { anchor }

  (* Write-phase field reads: the node is locked / reserved, so the handle
     cannot go stale under a sound scheme. *)
  let size_of wr s = min (max (Smr.get_data wr s f_size) 0) b
  let marked wr s = Smr.get_data wr s f_marked = 1
  let key_at wr s i = Smr.get_data wr s i
  let is_leaf wr s = Smr.get_ptr wr s 0 = P.nil

  (* Read-phase variants: generation-validated, so a stale handle fails
     through the scheme's own policy instead of routing the descent (or
     deciding membership) by a recycled occupant's fields. *)
  let rsize_of rd s = min (max (Smr.read_data rd ~src:s ~field:f_size) 0) b
  let rkey_at rd s i = Smr.read_data rd ~src:s ~field:i
  let ris_leaf rd s = Smr.peek_ptr rd ~src:s ~field:0 = P.nil

  (* Child index for key [k] at internal node [s]: the largest [i] with
     [i = 0 || key i <= k], found at the first router [> k]. *)
  let rec route_from rd s m k j =
    if j < m && rkey_at rd s j <= k then route_from rd s m k (j + 1)
    else j - 1

  let rroute rd s k = route_from rd s (rsize_of rd s) k 1

  (* Whether leaf [s] holds [k], from position [j]: stops at the first
     key [>= k]. *)
  let rec rleaf_mem_from rd s m k j =
    j < m
    &&
    let kj = rkey_at rd s j in
    kj = k || (kj < k && rleaf_mem_from rd s m k (j + 1))

  let rleaf_mem rd s k = rleaf_mem_from rd s (rsize_of rd s) k 0

  (* ---------------- node construction (write phases only) -------------- *)

  (* A leaf of the [n] keys [keys.(off) .. keys.(off + n - 1)]. *)
  let new_leaf wr keys off n =
    let s = Smr.alloc wr in
    for j = 0 to n - 1 do
      Smr.set_data wr s j keys.(off + j)
    done;
    Smr.set_data wr s f_size n;
    Smr.set_data wr s f_marked 0;
    Smr.set_ptr wr s 0 P.nil;
    s

  let new_internal wr keys children n =
    let s = Smr.alloc wr in
    for j = 0 to n - 1 do
      Smr.set_data wr s j keys.(j);
      Smr.set_ptr wr s j children.(j)
    done;
    Smr.set_data wr s f_size n;
    Smr.set_data wr s f_marked 0;
    s

  (* Tombstone a node inside the critical section; the actual [retire]
     must happen only after every lock is released — retiring a locked
     record would let the reclaimer free (and the allocator recycle) a slot
     whose lock word is still held. *)
  let mark wr s = Smr.set_data wr s f_marked 1

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
          rleaf_mem rd leaf k) } in
    Smr.op ctx (fun op -> Smr.read_only op v)

  (* ---------------- range count ---------------- *)

  (* [c] plus the keys of leaf [n] in [lo, lim) from position [j]:
     stops at the first key [>= lim]. *)
  let rec count_leaf rd n m lo lim j c =
    if j >= m then c
    else
      let kj = rkey_at rd n j in
      if kj >= lim then c
      else count_leaf rd n m lo lim (j + 1) (if kj >= lo then c + 1 else c)

  (* Φread: the number of keys in [lo, hi), from node [n] down.  The
     descent toward [lo] narrows [ub], the exclusive upper bound of [n]'s
     subtree, to the first router key [> lo] at each level it passes:
     routing is [rroute] with that key kept, so a level reads the same
     fields as [descend].  At the leaf it counts the keys in
     [lo, min hi ub) and, if the range runs past the leaf, descends again
     from the anchor toward [ub].  Every bound is [> lo], so each leaf
     moves [lo] forward.  Every value is an int argument of a tail call,
     so the viewer allocates nothing. *)
  let rec count_from anchor rd n lo hi ub acc =
    if ris_leaf rd n then begin
      let lim = min hi ub in
      let c = count_leaf rd n (rsize_of rd n) lo lim 0 acc in
      if lim >= hi then c
      else
        count_from anchor rd
          (Smr.read_ptr rd ~src:anchor ~field:0)
          lim hi max_int c
    end
    else count_route anchor rd n (rsize_of rd n) lo hi ub acc 1

  (* Router [n] from router position [j]: the first key [> lo] ends the
     scan, routes to the child before it and bounds [ub] by it. *)
  and count_route anchor rd n m lo hi ub acc j =
    if j < m then begin
      let kj = rkey_at rd n j in
      if kj <= lo then count_route anchor rd n m lo hi ub acc (j + 1)
      else
        count_from anchor rd
          (Smr.read_ptr rd ~src:n ~field:(j - 1))
          lo hi (min ub kj) acc
    end
    else
      count_from anchor rd (Smr.read_ptr rd ~src:n ~field:(j - 1)) lo hi ub acc

  (* The number of keys in [lo, hi), in one read phase: one descent per
     leaf the range reaches. *)
  let count t ctx lo hi =
    if hi <= lo then 0
    else
      let v = { Smr.view = (fun rd ->
            count_from t.anchor rd
              (Smr.read_ptr rd ~src:t.anchor ~field:0)
              lo hi max_int 0) } in
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

  let rec lock_all wr = function
    | [] -> ()
    | s :: rest ->
        Smr.lock wr s f_lock;
        lock_all wr rest

  (* Last taken first. *)
  let rec unlock_all wr = function
    | [] -> ()
    | s :: rest ->
        unlock_all wr rest;
        Smr.unlock wr s f_lock

  (* Lock [cells] in order; return [None] if [valid] fails.  The locks
     are released here when [body] returns, and by the phase when it
     raises (pool exhaustion). *)
  let with_locks wr cells ~valid ~body =
    lock_all wr cells;
    let r = if valid () then Some (body ()) else None in
    unlock_all wr cells;
    r

  let scratch_keys () = Array.make (b + 1) 0
  let scratch_children () = Array.make (b + 1) P.nil

  (* Absorb router [r] (size 2) into parent [p] at child position [pdir],
     replacing [p] by a copy with both of [r]'s children.  [p] gains one
     child; requires p.size < b. *)
  let do_absorb op (gp, gdir, p, pdir, r) =
    Smr.phase op
      ~read:{ Smr.read = (fun _ -> ((), [| gp; p; r |])) }
      ~write:{ Smr.write = (fun wr () ->
        (* [r] must be locked too: its children are copied into the
           replacement, and leaf operations under [r] swing r's child
           edges under r's lock — without holding it the copy could
           capture a just-retired child, leaving a retired node
           reachable. *)
        with_locks wr [ gp; p; r ]
          ~valid:(fun () ->
            (not (marked wr gp))
            && (not (marked wr p))
            && (not (marked wr r))
            && Smr.get_ptr wr gp gdir = p
            && Smr.get_ptr wr p pdir = r
            && size_of wr r = 2
            && size_of wr p < b
            && not (is_leaf wr r))
          ~body:(fun () ->
            let m = size_of wr p in
            let keys = scratch_keys () and children = scratch_children () in
            let w = ref 0 in
            for j = 0 to m - 1 do
              if j = pdir then begin
                (* Splice r's two children in place of r; r's routing key
                   separates them. *)
                keys.(!w) <- key_at wr p j;
                children.(!w) <- Smr.get_ptr wr r 0;
                incr w;
                keys.(!w) <- key_at wr r 1;
                children.(!w) <- Smr.get_ptr wr r 1;
                incr w
              end
              else begin
                keys.(!w) <- key_at wr p j;
                children.(!w) <- Smr.get_ptr wr p j;
                incr w
              end
            done;
            let p' = new_internal wr keys children !w in
            Smr.set_ptr wr gp gdir p';
            mark wr p;
            mark wr r;
            [ p; r ])
        |> function
        | None -> false
        | Some victims ->
            List.iter (Smr.retire wr) victims;
            true) }

  (* Prune empty leaf [leaf] out of parent [p]: copy [p] without that
     child; if [p] would drop to one child, replace [p] by its surviving
     child instead. *)
  let do_prune op (gp, gdir, p, pdir, leaf) =
    Smr.phase op
      ~read:{ Smr.read = (fun _ -> ((), [| gp; p; leaf |])) }
      ~write:{ Smr.write = (fun wr () ->
        with_locks wr [ gp; p ]
          ~valid:(fun () ->
            (not (marked wr gp))
            && (not (marked wr p))
            && (not (marked wr leaf))
            && Smr.get_ptr wr gp gdir = p
            && Smr.get_ptr wr p pdir = leaf
            && is_leaf wr leaf
            && size_of wr leaf = 0
            && size_of wr p >= 2)
          ~body:(fun () ->
            let m = size_of wr p in
            if m = 2 then begin
              let sibling = Smr.get_ptr wr p (1 - pdir) in
              Smr.set_ptr wr gp gdir sibling;
              mark wr p;
              mark wr leaf;
              [ p; leaf ]
            end
            else begin
              let keys = scratch_keys () and children = scratch_children () in
              let w = ref 0 in
              for j = 0 to m - 1 do
                if j <> pdir then begin
                  keys.(!w) <- key_at wr p j;
                  children.(!w) <- Smr.get_ptr wr p j;
                  incr w
                end
              done;
              (* Child 0's routing key is unused; normalise it. *)
              let p' = new_internal wr keys children !w in
              Smr.set_ptr wr gp gdir p';
              mark wr p;
              mark wr leaf;
              [ p; leaf ]
            end)
        |> function
        | None -> false
        | Some victims ->
            List.iter (Smr.retire wr) victims;
            true) }

  let max_repair_passes = 8

  let repair t op k =
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
          ignore (do_absorb op (a1, a2, a3, a4, a5))
      | Prune (a1, a2, a3, a4, a5) ->
          ignore (do_prune op (a1, a2, a3, a4, a5))
    done

  (* ---------------- updates ---------------- *)

  type 'a outcome = Done of 'a | Again

  let no_keys = [||]

  (* Write phase, before any lock: leaf [s]'s keys [j .. m-1], each read
     once.  A published node's keys never change and the leaf is
     reserved, so this one read serves both the membership test and the
     copy.  [hit] says whether [k] is among keys [0 .. j-1].  When [k]'s
     presence is [want], the result is a fresh scratch array holding all
     [m] keys (each waits in its frame until the array exists); when it
     is not, the result is [no_keys], and the phase has allocated
     nothing. *)
  let rec read_keys wr s m k ~want j hit =
    if j = m then if hit = want then scratch_keys () else no_keys
    else
      let kj = key_at wr s j in
      let keys = read_keys wr s m k ~want (j + 1) (hit || kj = k) in
      if keys != no_keys then keys.(j) <- kj;
      keys

  (* The first position [>= j] in the sorted [keys.(0 .. m-1)] whose key
     is [>= k]. *)
  let rec find_pos keys m k j =
    if j < m && keys.(j) < k then find_pos keys m k (j + 1) else j

  let insert t ctx k =
    let split = ref false in
    let rec attempt op =
      let out =
        Smr.phase op
          ~read:{ Smr.read = (fun rd ->
            let _, _, p, pdir, leaf = descend t rd k in
            ((p, pdir, leaf), [| p; leaf |])) }
          ~write:{ Smr.write = (fun wr (p, pdir, leaf) ->
            let m = size_of wr leaf in
            let keys = read_keys wr leaf m k ~want:false 0 false in
            if keys == no_keys then Done false
            else
              let pos = find_pos keys m k 0 in
              match
                with_locks wr [ p ]
                  ~valid:(fun () ->
                    (not (marked wr p))
                    && (not (marked wr leaf))
                    && Smr.get_ptr wr p pdir = leaf)
                  ~body:(fun () ->
                    (* Merge k into the sorted keys. *)
                    Array.blit keys pos keys (pos + 1) (m - pos);
                    keys.(pos) <- k;
                    if m < b then begin
                      let leaf' = new_leaf wr keys 0 (m + 1) in
                      Smr.set_ptr wr p pdir leaf';
                      mark wr leaf;
                      false (* no split *)
                    end
                    else begin
                      (* Overfull: split into two leaves under a fresh
                         degree-2 router (height-increasing; repaired by
                         a later absorb phase). *)
                      let total = m + 1 in
                      let lo = (total + 1) / 2 in
                      let l1 = new_leaf wr keys 0 lo in
                      (* A later allocation that raises frees the
                         earlier, never published, nodes plainly. *)
                      let l2 =
                        match new_leaf wr keys lo (total - lo) with
                        | s -> s
                        | exception e ->
                            Smr.free wr l1;
                            raise e
                      in
                      let rkeys = [| 0; keys.(lo) |] in
                      let router =
                        match new_internal wr rkeys [| l1; l2 |] 2 with
                        | s -> s
                        | exception e ->
                            Smr.free wr l2;
                            Smr.free wr l1;
                            raise e
                      in
                      Smr.set_ptr wr p pdir router;
                      mark wr leaf;
                      true
                    end)
              with
              | None -> Again
              | Some did_split ->
                  Smr.retire wr leaf;
                  split := did_split;
                  Done true) }
      in
      match out with
      | Done r ->
          if r && !split then repair t op k;
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
          ~write:{ Smr.write = (fun wr (p, pdir, leaf) ->
            let m = size_of wr leaf in
            let keys = read_keys wr leaf m k ~want:true 0 false in
            if keys == no_keys then Done false
            else
              let pos = find_pos keys m k 0 in
              match
                with_locks wr [ p ]
                  ~valid:(fun () ->
                    (not (marked wr p))
                    && (not (marked wr leaf))
                    && Smr.get_ptr wr p pdir = leaf)
                  ~body:(fun () ->
                    Array.blit keys (pos + 1) keys pos (m - pos - 1);
                    let leaf' = new_leaf wr keys 0 (m - 1) in
                    Smr.set_ptr wr p pdir leaf';
                    mark wr leaf;
                    m = 1)
              with
              | None -> Again
              | Some now_empty ->
                  Smr.retire wr leaf;
                  emptied := now_empty;
                  Done true) }
      in
      match out with
      | Done r ->
          if r && !emptied then repair t op k;
          r
      | Again -> attempt op
    in
    Smr.op ctx attempt

  (* ---------------- sequential helpers (tests only) ---------------- *)

  let seq_size pool s = min (max (P.get_data pool s f_size) 0) b

  let to_list pool t =
    let rec go s acc =
      if s = P.nil then acc
      else begin
        let m = seq_size pool s in
        let leaf = P.get_ptr pool s 0 = P.nil in
        let acc = ref acc in
        for j = m - 1 downto 0 do
          acc :=
            if leaf then P.get_data pool s j :: !acc
            else go (P.get_ptr pool s j) !acc
        done;
        !acc
      end
    in
    go (P.get_ptr pool t.anchor 0) []

  let size pool t = List.length (to_list pool t)

  (** Structural checks for tests: sorted leaves, router ranges respected,
      sizes within bounds.  Returns an error description if violated. *)
  let check pool t =
    let err = ref None in
    let note m = if !err = None then err := Some m in
    let key_at s i = P.get_data pool s i in
    let rec go s lo hi =
      if s <> P.nil then begin
        let m = seq_size pool s in
        if P.get_ptr pool s 0 = P.nil then begin
          for j = 0 to m - 1 do
            let kj = key_at s j in
            if j > 0 && key_at s (j - 1) >= kj then note "leaf unsorted";
            if kj < lo || kj >= hi then note "leaf key out of range"
          done
        end
        else begin
          if m < 1 || m > b then note "internal size out of bounds";
          for j = 0 to m - 1 do
            let l = if j = 0 then lo else key_at s j in
            let h = if j = m - 1 then hi else key_at s (j + 1) in
            if j > 0 && j < m - 1 && key_at s j >= key_at s (j + 1) then
              note "routers unsorted";
            go (P.get_ptr pool s j) l h
          done
        end
      end
    in
    go (P.get_ptr pool t.anchor 0) min_int max_int;
    !err
end
