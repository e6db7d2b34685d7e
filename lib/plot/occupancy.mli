(** Space-time occupancy diagrams — the paper's Figure 5, rendered from a
    real schedule.

    The paper's Section 5.2 analysis "visualizes the optimal cache's
    performance on a trace as a rectangle, with one axis representing the
    time in units of accesses, and the other representing cache space".
    Given a recorded schedule (per-access loads and evictions), this module
    draws exactly that: one row per item, one column per access, a bar
    while the item is resident.

    Intended for small demonstration traces (≤ ~60 accesses, ≤ ~26 items):
    items are labelled a-z by first appearance. *)

val render : trace:Gc_trace.Trace.t -> schedule:Gc_offline.Schedule.t -> string
(** Rows are items (labelled by first residency); columns are accesses.
    Cell legend: ['#'] resident and requested this access, ['='] resident,
    [' '] absent, ['!'] requested but absent would be a model violation and
    raises.  A header row marks misses with ['*'].  Raises
    [Invalid_argument] if the schedule makes more than 26 distinct items
    resident. *)
