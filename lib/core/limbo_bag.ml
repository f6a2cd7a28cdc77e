(** Per-thread limbo bag: a FIFO of retired record slots.

    Entries are addressed by {e absolute position} — a counter of all pushes
    ever made — because NBR+ bookmarks a tail position when it crosses the
    LoWatermark and later reclaims "everything retired before the bookmark"
    (Algorithm 2, lines 14/19).  [sweep] examines the prefix of entries
    older than a bound, frees the unreserved ones and re-appends the
    reserved ones at the tail (they will be re-examined after a later grace
    period, which is safe: an entry is only ever {e more} retired as time
    passes).

    One owner per bag, plus a custody token for the single cross-thread
    access there is: a crash-recovery watchdog {!seize}-ing the bag of a
    peer it declared dead.  The owner's {!push} and {!sweep} hold the
    token for their duration; a seize either takes the idle bag at once
    or, if the owner holds it (a live peer falsely declared dead,
    mid-sweep), asks the owner to hand it over when it lets go.  Either
    way the ring changes hands exactly once and is never walked by two
    threads.  The token and the hand-over list are stdlib atomics, on
    the instrumentation side of the simulator's cost model. *)

(* Custody states. *)
let idle = 0
let busy = 1 (* the owner is inside [push] / [sweep] *)
let seized = 2 (* the ring was handed over; it is nobody's now *)
let requested = 3 (* busy, and a seizer is waiting for the hand-over *)

type t = {
  mutable a : int array;
  mutable head : int;  (** ring index of the oldest entry *)
  mutable n : int;  (** live entries *)
  mutable base : int;  (** absolute position of the oldest entry *)
  custody : int Atomic.t;
  handed : int list Atomic.t;  (** entries handed over, not yet taken *)
}

let create ?(capacity = 64) () =
  {
    a = Array.make (max capacity 1) 0;
    head = 0;
    n = 0;
    base = 0;
    custody = Nbr_sync.Padded.make_atomic idle;
    handed = Nbr_sync.Padded.make [];
  }

let size t = t.n

(** Absolute position one past the newest entry; a bookmark taken now
    covers exactly the entries pushed so far. *)
let abs_tail t = t.base + t.n

let grow t =
  let cap = Array.length t.a in
  let a' = Array.make (2 * cap) 0 in
  for i = 0 to t.n - 1 do
    a'.(i) <- t.a.((t.head + i) mod cap)
  done;
  t.a <- a';
  t.head <- 0

let push_ring t x =
  if t.n = Array.length t.a then grow t;
  t.a.((t.head + t.n) mod Array.length t.a) <- x;
  t.n <- t.n + 1

let pop_front t =
  if t.n = 0 then invalid_arg "Limbo_bag.pop_front: empty";
  let x = t.a.(t.head) in
  t.head <- (t.head + 1) mod Array.length t.a;
  t.n <- t.n - 1;
  t.base <- t.base + 1;
  x

let rec hand_over t xs =
  if xs <> [] then begin
    let old = Atomic.get t.handed in
    if not (Atomic.compare_and_set t.handed old (xs @ old)) then
      hand_over t xs
  end

(* Move every ring entry to the hand-over list.  Only the custody holder
   may call this. *)
let hand_over_ring t =
  let xs = ref [] in
  while t.n > 0 do
    xs := pop_front t :: !xs
  done;
  hand_over t !xs

let enter t = Atomic.compare_and_set t.custody idle busy

let leave t =
  if not (Atomic.compare_and_set t.custody busy idle) then begin
    (* [requested]: hand the ring over now, and keep it handed over. *)
    hand_over_ring t;
    Atomic.set t.custody seized
  end

let push t x =
  if enter t then begin
    push_ring t x;
    leave t
  end
  else hand_over t [ x ]

(** [sweep t ~upto ~keep ~free] examines every entry with absolute position
    [< upto]: reserved entries ([keep e = true]) are re-appended at the
    tail, the rest are freed.  Returns the number freed (0 once the bag
    has been seized). *)
let sweep t ~upto ~keep ~free =
  if not (enter t) then 0
  else begin
    let todo = min t.n (upto - t.base) in
    let freed = ref 0 in
    match
      for _ = 1 to todo do
        let e = pop_front t in
        if keep e then push_ring t e
        else begin
          free e;
          incr freed
        end
      done
    with
    | () ->
        leave t;
        !freed
    | exception e ->
        leave t;
        raise e
  end

let drain t =
  let xs = ref [] in
  ignore
    (sweep t ~upto:(abs_tail t) ~keep:(fun _ -> false) ~free:(fun x ->
         xs := x :: !xs));
  !xs

let rec seize t =
  let k = Atomic.get t.custody in
  if k = idle then begin
    if Atomic.compare_and_set t.custody idle seized then hand_over_ring t
    else seize t
  end
  else if k = busy && not (Atomic.compare_and_set t.custody busy requested)
  then seize t

let take_handed t = Atomic.exchange t.handed []

let iter f t =
  for i = 0 to t.n - 1 do
    f t.a.((t.head + i) mod Array.length t.a)
  done
