(** Native runtime: real OCaml domains, polling-based neutralization.

    {!Runtime_intf.S} on actual parallel hardware.  Signals are
    per-thread monotone counters consumed at {!poll_t} points; a
    restartable thread that observes one unwinds to its innermost
    {!checkpoint} through {!Neutralized} — the paper's [siglongjmp],
    minus the asynchrony.  Records live in a GC-backed pool that is never
    unmapped, so a read in the window between a victim's last poll and
    its next access is memory-safe and never committed (DESIGN.md §3).

    {b Cell layout and cost contract.}  A standalone {!aint} is one
    [int Atomic.t]; a {!cells} block is an array of them (OCaml 5.1/5.2
    has no atomic arrays), so an indexed operation is the same hardware
    atomic as the operation on a standalone cell, plus one bounds-checked
    array load.  [plain_load] and [plain_load_at] are [Atomic.get]. *)

include Runtime_intf.S
