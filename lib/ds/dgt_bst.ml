(** External binary search tree with lock-free searches and lock-based,
    validated updates — in the style of David, Guerraoui and Trigonakis'
    BST-TK (ASPLOS'15), the "DGT" tree of the paper's E1 experiments.

    Leaves hold the set's keys; internal nodes are routers (keys < router
    go left, ≥ router go right).  Searches descend with no synchronization
    at all.  Insert locks the leaf's parent, validates the edge, and swings
    it to a freshly built router-with-two-leaves.  Delete locks grandparent
    and parent, validates both edges, and splices the parent out (the leaf
    and the router retire).

    This is exactly the optimistic pattern the paper calls NBR-compatible
    and DEBRA+-incompatible (§5.2): a thread holding locks is by
    construction in its write phase and can never be neutralized.  At most
    3 records are reserved per operation (grandparent, parent, leaf), the
    figure the paper reports for DGT (§6).

    Sentinel structure: a root router with key [max_int] whose left child
    is a leaf with key [min_int] and whose right child is a leaf with key
    [max_int]; real keys live strictly between, so every reachable leaf has
    a parent, every parent a grandparent (the root never needs one because
    its direct leaves — the sentinels — are never deleted).

    Record layout: data0 = key, data1 = marked, data2 = lock; ptr0 = left,
    ptr1 = right.
    A node is a leaf iff its left child is nil; a leaf's right child is
    never read, so a new leaf does not write it. *)

let traversal = { Nbr_core.Smr_intf.raw = false; keeps_old = false }

module Make
    (Rt : Nbr_runtime.Runtime_intf.S)
    (Smr : Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t) =
struct
  module P = Nbr_pool.Pool.Make (Rt)

  let name = "dgt-tree"

  let data_fields = 3
  let ptr_fields = 2
  let max_reservations = 3

  let f_key = 0
  let f_marked = 1
  let f_lock = 2

  type t = { root : int }

  let create pool =
    let root = P.alloc pool in
    let l = P.alloc pool in
    let r = P.alloc pool in
    P.set_data pool root f_key max_int;
    P.set_data pool l f_key min_int;
    P.set_data pool r f_key max_int;
    P.set_ptr pool root 0 l;
    P.set_ptr pool root 1 r;
    { root }

  (* Write-phase field reads: the node is locked / reserved, so the
     handle cannot go stale under a sound scheme. *)
  let key wr s = Smr.get_data wr s f_key
  let marked wr s = Smr.get_data wr s f_marked = 1

  (* Read-phase variants: generation-validated, so a stale handle fails
     through the scheme's own policy instead of routing the descent by a
     recycled occupant's key. *)
  let rkey rd s = Smr.read_data rd ~src:s ~field:f_key
  let rdir rd s k = if k < rkey rd s then 0 else 1

  let ris_leaf rd s = Smr.peek_ptr rd ~src:s ~field:0 = P.nil

  (* Φread: descend to the leaf for [k], tracking grandparent and parent.
     Returns (gparent, gdir, parent, pdir, leaf). The root is its own
     grandparent for depth-1 leaves; those leaves are sentinels and are
     never deleted, so the slot is never dereferenced in that case. *)
  let search t rd k =
    let gp = ref t.root and gdir = ref 0 in
    let p = ref t.root and pdir = ref (rdir rd t.root k) in
    let l = ref (Smr.read_ptr rd ~src:t.root ~field:!pdir) in
    while not (ris_leaf rd !l) do
      gp := !p;
      gdir := !pdir;
      p := !l;
      pdir := rdir rd !l k;
      l := Smr.read_ptr rd ~src:!l ~field:!pdir
    done;
    (!gp, !gdir, !p, !pdir, !l)

  let contains t ctx k =
    let v = { Smr.view = (fun rd ->
          let _, _, _, _, l = search t rd k in
          rkey rd l = k) } in
    Smr.op ctx (fun op -> Smr.read_only op v)

  type 'a outcome = Done of 'a | Retry

  (* The parent's lock is released on every exit: here on the paths that
     return, by the phase when an allocation raises. *)
  let insert t ctx k =
    let rec attempt op =
      let out =
        Smr.phase op
          ~read:{ Smr.read = (fun rd ->
            let _, _, p, pdir, l = search t rd k in
            ((p, pdir, l), [| p; l |])) }
          ~write:{ Smr.write = (fun wr (p, pdir, l) ->
            (* [l] is reserved and a published leaf's key never changes:
               one read serves the membership test and the router. *)
            let lk = key wr l in
            if lk = k then Done false
            else begin
              Smr.lock wr p f_lock;
              if marked wr p || Smr.get_ptr wr p pdir <> l then begin
                Smr.unlock wr p f_lock;
                Retry
              end
              else begin
                (* Replace the leaf edge by router(max k lk) over the two
                   leaves, ordered by key. *)
                let leaf = Smr.alloc wr in
                Smr.set_data wr leaf f_key k;
                Smr.set_data wr leaf f_marked 0;
                (* Child 0 alone makes it a leaf; nothing reads a
                   leaf's child 1. *)
                Smr.set_ptr wr leaf 0 P.nil;
                let router =
                  match Smr.alloc wr with
                  | n -> n
                  | exception e ->
                      (* Never published: plain free, no grace period. *)
                      Smr.free wr leaf;
                      raise e
                in
                Smr.set_data wr router f_key (max k lk);
                Smr.set_data wr router f_marked 0;
                if k < lk then begin
                  Smr.set_ptr wr router 0 leaf;
                  Smr.set_ptr wr router 1 l
                end
                else begin
                  Smr.set_ptr wr router 0 l;
                  Smr.set_ptr wr router 1 leaf
                end;
                Smr.set_ptr wr p pdir router;
                Smr.unlock wr p f_lock;
                Done true
              end
            end) }
      in
      match out with Done r -> r | Retry -> attempt op
    in
    Smr.op ctx attempt

  let delete t ctx k =
    let rec attempt op =
      let out =
        Smr.phase op
          ~read:{ Smr.read = (fun rd ->
            let gp, gdir, p, pdir, l = search t rd k in
            ((gp, gdir, p, pdir, l), [| gp; p; l |])) }
          ~write:{ Smr.write = (fun wr (gp, gdir, p, pdir, l) ->
            if key wr l <> k then Done false
            else begin
              Smr.lock wr gp f_lock;
              Smr.lock wr p f_lock;
              if
                marked wr gp || marked wr p
                || Smr.get_ptr wr gp gdir <> p
                || Smr.get_ptr wr p pdir <> l
              then begin
                Smr.unlock wr p f_lock;
                Smr.unlock wr gp f_lock;
                Retry
              end
              else begin
                (* Splice the router [p] out: its other child replaces it
                   under [gp]. *)
                let sibling = Smr.get_ptr wr p (1 - pdir) in
                Smr.set_data wr p f_marked 1;
                Smr.set_data wr l f_marked 1;
                Smr.set_ptr wr gp gdir sibling;
                Smr.unlock wr p f_lock;
                Smr.unlock wr gp f_lock;
                Smr.retire wr p;
                Smr.retire wr l;
                Done true
              end
            end) }
      in
      match out with Done r -> r | Retry -> attempt op
    in
    Smr.op ctx attempt

  (** Sequential key list (tests only). *)
  let to_list pool t =
    let rec go s acc =
      if s = P.nil then acc
      else if P.get_ptr pool s 0 = P.nil then begin
        let k = P.get_data pool s f_key in
        if k = min_int || k = max_int then acc else k :: acc
      end
      else go (P.get_ptr pool s 0) (go (P.get_ptr pool s 1) acc)
    in
    go t.root []

  let size pool t = List.length (to_list pool t)
end
