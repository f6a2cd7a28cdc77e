(** Harris lock-free linked list (DISC'01), integrated with k-NBR.

    The paper's "incompatible pattern" made compatible (§5.2, Algorithm 3):
    Harris searches perform {e auxiliary updates} — physically unlinking
    logically-deleted (marked) nodes they encounter — so an operation
    cannot be a single Φread/Φwrite pair.  Following the paper, each
    auxiliary unlink is its own write phase, after which the operation
    starts a {e fresh read phase from the head}; the final insert/delete is
    a last write phase.  One marked node is unlinked per write phase,
    keeping the reservation count at the 3 the paper reports for this
    structure.

    A node's mark lives in the low bit of its [next] word (slot id in the
    remaining bits), so traversal reads links with [Smr.read_raw] — the
    mark-tagged access hazard-pointer schemes cannot protect, which is why
    the paper (and our benches) pair this structure only with k-NBR(+),
    DEBRA and leaky reclamation.

    Each phase reads a node's key once.  A traversal reports whether it
    stopped at [k] itself ([Present]) or past it ([Window]), so the final
    write phase decides without re-reading the key of [curr]: [curr] is
    reserved, and a published node's key never changes.  [contains]
    reads the key of the node where it stops once too.

    Record layout: data0 = key; ptr0 = next (tagged). *)

let traversal = { Nbr_core.Smr_intf.raw = true; keeps_old = false }

module Make
    (Rt : Nbr_runtime.Runtime_intf.S)
    (Smr : Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t) =
struct
  module P = Nbr_pool.Pool.Make (Rt)

  let name = "harris-list"

  let data_fields = 1
  let ptr_fields = 1
  let max_reservations = 3

  let f_key = 0
  let f_next = 0

  (* Tagged link encoding. *)
  let enc slot mark = (slot lsl 1) lor mark
  let dec_slot e = e asr 1
  let is_marked e = e land 1 = 1

  type t = { head : int; tail : int }

  let create pool =
    let head = P.alloc pool and tail = P.alloc pool in
    P.set_data pool head f_key min_int;
    P.set_data pool tail f_key max_int;
    P.set_ptr pool head f_next (enc tail 0);
    P.set_ptr pool tail f_next (enc P.nil 0);
    { head; tail }

  (* Tagged-link access.  The link word is not a handle, so it is read
     unvalidated in both phases: [Smr.read_raw] in read phases (which
     reports the dereference of [s] to the pool's use-after-free
     instrumentation), the write token's tagged load and CAS in write
     phases. *)
  let next rd s = Smr.read_raw rd ~src:s ~field:f_next
  let load_next wr s = Smr.load_tagged wr s f_next
  let cas_next wr s old v = Smr.cas_tagged wr s f_next old v

  (* Read-phase key read: generation-validated.  The tagged links
     themselves must stay raw — but a key compare through a stale handle would
     route the traversal by the recycled occupant's key, so it goes
     through the scheme's validated path. *)
  let rkey rd s = Smr.read_data rd ~src:s ~field:f_key

  (* What a read phase discovers: the target window, or a marked node
     that must be unlinked first (one auxiliary update per phase). *)
  type found =
    | Window of int * int  (** pred (unmarked link to curr), curr > key *)
    | Present of int * int  (** pred (unmarked link to curr), curr = key *)
    | Marked of int * int * int  (** pred, marked curr, its successor *)

  (* Φread: walk from the head; stop at the first marked node or at the
     window for [k].  Top-level and tail-recursive over ints, so the walk
     allocates nothing but its result. *)
  let rec walk rd k pred curr =
    let ce = next rd curr in
    if is_marked ce then Marked (pred, curr, dec_slot ce)
    else
      let ck = rkey rd curr in
      if ck < k then walk rd k curr (dec_slot ce)
      else if ck = k then Present (pred, curr)
      else Window (pred, curr)

  (* head is never marked *)
  let traverse t rd k = walk rd k t.head (dec_slot (next rd t.head))

  (* Membership walk: skips marked nodes without helping (Harris's
     wait-free search; it may walk through unlinked records). *)
  let rec member rd k curr =
    let ck = rkey rd curr in
    if ck < k then member rd k (dec_slot (next rd curr))
    else ck = k && not (is_marked (next rd curr))

  let contains t ctx k =
    let v = { Smr.view = (fun rd -> member rd k (dec_slot (next rd t.head))) } in
    Smr.op ctx (fun op -> Smr.read_only op v)

  type 'a outcome = Done of 'a | Again

  (* One auxiliary write phase: unlink a marked node, then force a fresh
     read phase from the head (k-NBR rule: every new Φread forgets all
     pointers and restarts from the root). *)
  let unlink_phase wr pred curr succ =
    if cas_next wr pred (enc curr 0) (enc succ 0) then
      Smr.retire wr curr;
    Again

  let insert t ctx k =
    let rec attempt op =
      let out =
        Smr.phase op
          ~read:{ Smr.read = (fun rd ->
            match traverse t rd k with
            | (Window (pred, curr) | Present (pred, curr)) as w ->
                (w, [| pred; curr |])
            | Marked (pred, curr, succ) as m -> (m, [| pred; curr; succ |])) }
          ~write:{ Smr.write = (fun wr -> function
            | Marked (pred, curr, succ) -> unlink_phase wr pred curr succ
            | Present _ -> Done false
            | Window (pred, curr) ->
                let node = Smr.alloc wr in
                Smr.set_data wr node f_key k;
                Smr.set_ptr wr node f_next (enc curr 0);
                if cas_next wr pred (enc curr 0) (enc node 0) then Done true
                else begin
                  (* Never published: plain free, no grace period needed. *)
                  Smr.free wr node;
                  Again
                end) }
      in
      match out with Done r -> r | Again -> attempt op
    in
    Smr.op ctx attempt

  let delete t ctx k =
    let rec attempt op =
      let out =
        Smr.phase op
          ~read:{ Smr.read = (fun rd ->
            match traverse t rd k with
            | (Window (pred, curr) | Present (pred, curr)) as w ->
                (w, [| pred; curr |])
            | Marked (pred, curr, succ) as m -> (m, [| pred; curr; succ |])) }
          ~write:{ Smr.write = (fun wr -> function
            | Marked (pred, curr, succ) -> unlink_phase wr pred curr succ
            | Window _ -> Done false
            | Present (pred, curr) ->
                let ce = load_next wr curr in
                if is_marked ce then Again (* another deleter won *)
                else if
                  (* Logical deletion: mark curr's next word. *)
                  cas_next wr curr ce (enc (dec_slot ce) 1)
                then begin
                  (* Physical unlink; on failure a later traversal will
                     clean up (auxiliary phase). *)
                  if cas_next wr pred (enc curr 0) (enc (dec_slot ce) 0) then
                    Smr.retire wr curr;
                  Done true
                end
                else Again) }
      in
      match out with Done r -> r | Again -> attempt op
    in
    Smr.op ctx attempt

  (** Sequential snapshot of unmarked keys (tests only). *)
  let to_list pool t =
    let rec go s acc =
      if s = t.tail then List.rev acc
      else
        let e = P.get_ptr pool s f_next in
        let k = P.get_data pool s f_key in
        let acc = if is_marked e then acc else k :: acc in
        go (dec_slot e) acc
    in
    go (dec_slot (P.get_ptr pool t.head f_next)) []

  let size pool t = List.length (to_list pool t)
end
