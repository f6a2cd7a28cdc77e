(** Per-thread limbo bag: a FIFO of retired record slots.

    Entries are addressed by {e absolute position} — a counter of all
    pushes ever made — because NBR+ bookmarks a tail position when it
    crosses the LoWatermark and later reclaims "everything retired
    before the bookmark" (Algorithm 2, lines 14/19).  {!sweep} examines
    the prefix of entries older than a bound, frees the unreserved ones
    and re-appends the reserved ones at the tail (they will be
    re-examined after a later grace period, which is safe: an entry is
    only ever {e more} retired as time passes).

    One owner per bag.  The background reclaimer (DESIGN.md §12) never
    touches a worker's bag directly — externalization flattens bags into
    handoff parcels on the owner's own retire path.  The one cross-thread
    access is a crash-recovery watchdog taking the bag of a peer it
    declared dead ({!seize}); a custody token held by {!push} and
    {!sweep} makes that transfer happen exactly once even when the peer
    is in fact alive and mid-sweep. *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh empty bag; the backing ring (default 64 entries) grows by
    doubling as needed. *)

val size : t -> int
(** Live entries currently buffered. *)

val abs_tail : t -> int
(** Absolute position one past the newest entry; a bookmark taken now
    covers exactly the entries pushed so far. *)

val push : t -> int -> unit
(** Append a retired slot at the tail — or, once the bag has been
    seized, straight to the hand-over list. *)

val sweep : t -> upto:int -> keep:(int -> bool) -> free:(int -> unit) -> int
(** [sweep t ~upto ~keep ~free] examines every entry with absolute
    position [< upto]: reserved entries ([keep e = true]) are
    re-appended at the tail, the rest are passed to [free].  Returns the
    number freed; a seized bag has nothing left to sweep (0). *)

val drain : t -> int list
(** Remove every entry (newest first), e.g. to flatten the bag into an
    orphan or handoff parcel. *)

(** {1 Crash recovery}

    Called by a watchdog on the bag of a peer it has claimed. *)

val seize : t -> unit
(** Take the bag from its owner: at once if the owner is not inside
    {!push} / {!sweep} (the entries move to the hand-over list), else
    the owner hands the remaining entries over as it leaves.  From then
    on the owner's pushes go to the hand-over list and its sweeps find
    nothing.  Idempotent. *)

val take_handed : t -> int list
(** Take what has been handed over so far (possibly nothing yet, when
    the owner was mid-sweep at the seize; call again later). *)

val iter : (int -> unit) -> t -> unit
(** Visit every live entry, oldest first, without disturbing the bag. *)
