(** Lazy concurrent list-based set (Heller et al., OPODIS'05).

    The paper's representative list workload (E1, figures 3b/6).  Sorted
    singly-linked list with sentinel head/tail; wait-free [contains];
    [insert]/[delete] traverse optimistically, then lock the target window
    ⟨pred, curr⟩ and validate.  Deletion is lazy: mark [curr], then
    physically unlink.

    SMR integration is the paper's Figure 2b, verbatim: the traversal is
    the read phase, ⟨pred, curr⟩ are the (two) reserved records, and
    everything from lock acquisition on is the write phase.  Operations
    never span phases, so plain NBR/NBR+ applies (the "compatible
    pattern", §5.2).

    Record layout: data0 = key, data1 = marked, data2 = lock; ptr0 = next. *)

let traversal = { Nbr_core.Smr_intf.raw = false; keeps_old = false }

module Make
    (Rt : Nbr_runtime.Runtime_intf.S)
    (Smr : Nbr_core.Smr_intf.S with type pool = Nbr_pool.Pool.Make(Rt).t) =
struct
  module P = Nbr_pool.Pool.Make (Rt)

  let name = "lazy-list"

  let data_fields = 3
  let ptr_fields = 1
  let max_reservations = 2

  let f_key = 0
  let f_marked = 1
  let f_lock = 2
  let f_next = 0

  type t = { head : int; tail : int }

  (** Sentinels are allocated outside any operation and never retired. *)
  let create pool =
    let head = P.alloc pool and tail = P.alloc pool in
    P.set_data pool head f_key min_int;
    P.set_data pool tail f_key max_int;
    P.set_ptr pool head f_next tail;
    P.set_ptr pool tail f_next P.nil;
    { head; tail }

  (* Write-phase field reads: the window is locked and reserved /
     protected, so the handle cannot go stale under a sound scheme. *)
  let key wr s = Smr.get_data wr s f_key
  let marked wr s = Smr.get_data wr s f_marked = 1

  (* Read-phase variants: generation-validated, so a stale handle fails
     through the scheme's own policy (NBR restarts via [Neutralized],
     epoch schemes consume-and-count) instead of yielding the recycled
     occupant's fields as if they were [s]'s. *)
  let rkey rd s = Smr.read_data rd ~src:s ~field:f_key
  let rmarked rd s = Smr.read_data rd ~src:s ~field:f_marked = 1

  (* Φread: locate the window ⟨pred, curr⟩ with key pred < k ≤ key curr. *)
  let search t rd k =
    let pred = ref t.head in
    let curr = ref (Smr.read_ptr rd ~src:t.head ~field:f_next) in
    while rkey rd !curr < k do
      pred := !curr;
      curr := Smr.read_ptr rd ~src:!curr ~field:f_next
    done;
    (!pred, !curr)

  let contains t ctx k =
    let v = { Smr.view = (fun rd ->
          let _, curr = search t rd k in
          rkey rd curr = k && not (rmarked rd curr)) } in
    Smr.op ctx (fun op -> Smr.read_only op v)

  (* Φwrite helper: lock the window and validate it is still intact. *)
  let lock_window wr pred curr =
    Smr.lock wr pred f_lock;
    Smr.lock wr curr f_lock;
    (not (marked wr pred))
    && (not (marked wr curr))
    && Smr.get_ptr wr pred f_next = curr

  let unlock_window wr pred curr =
    Smr.unlock wr curr f_lock;
    Smr.unlock wr pred f_lock

  type 'a outcome = Done of 'a | Retry

  (* The window's locks are released on every exit: here on the paths
     that return, by the phase when [Smr.alloc] raises. *)
  let insert t ctx k =
    let rec attempt op =
      let out =
        Smr.phase op
          ~read:{ Smr.read = (fun rd ->
            let pred, curr = search t rd k in
            ((pred, curr), [| pred; curr |])) }
          ~write:{ Smr.write = (fun wr (pred, curr) ->
            if not (lock_window wr pred curr) then begin
              unlock_window wr pred curr;
              Retry
            end
            else if key wr curr = k then begin
              unlock_window wr pred curr;
              Done false
            end
            else begin
              let node = Smr.alloc wr in
              Smr.set_data wr node f_key k;
              Smr.set_data wr node f_marked 0;
              Smr.set_ptr wr node f_next curr;
              Smr.set_ptr wr pred f_next node;
              unlock_window wr pred curr;
              Done true
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
            let pred, curr = search t rd k in
            ((pred, curr), [| pred; curr |])) }
          ~write:{ Smr.write = (fun wr (pred, curr) ->
            if not (lock_window wr pred curr) then begin
              unlock_window wr pred curr;
              Retry
            end
            else if key wr curr <> k then begin
              unlock_window wr pred curr;
              Done false
            end
            else begin
              (* Logical then physical deletion. *)
              Smr.set_data wr curr f_marked 1;
              let succ = Smr.get_ptr wr curr f_next in
              Smr.set_ptr wr pred f_next succ;
              unlock_window wr pred curr;
              Smr.retire wr curr;
              Done true
            end) }
      in
      match out with Done r -> r | Retry -> attempt op
    in
    Smr.op ctx attempt

  (** Sequential snapshot of the set contents (tests/debugging only; not
      linearizable under concurrency). *)
  let to_list pool t =
    let rec go s acc =
      if s = t.tail then List.rev acc
      else
        let k = P.get_data pool s f_key in
        let nxt = P.get_ptr pool s f_next in
        go nxt (if P.get_data pool s f_marked = 1 then acc else k :: acc)
    in
    go (P.get_ptr pool t.head f_next) []

  (** Number of unmarked elements (sequential use only). *)
  let size pool t = List.length (to_list pool t)
end
