(** Randomized marking and its two granularity-change variants.

    All three share the phase rule of classic randomized marking (Fiat et
    al.): a requested item is marked, victims are drawn uniformly from the
    unmarked items, and when everything is marked a new phase begins (all
    marks cleared).  Only making room for the requested item may start a
    phase.  They differ in what a miss loads besides the requested item. *)

val create : k:int -> rng:Gc_trace.Rng.t -> Policy.t
(** Classic marking (["marking"]), item granularity: a miss loads the
    requested item only.  Ignores granularity change entirely — Section 6
    of the paper notes this costs a factor of [B] against spatial traces,
    which motivates {!gcm}.  [k >= 1]. *)

val block : k:int -> blocks:Gc_trace.Block_map.t -> rng:Gc_trace.Rng.t -> Policy.t
(** Block marking (["block-marking"]): a miss loads {e and marks} the whole
    requested block — the strawman Section 6.1 compares GCM against.

    Marking every spatially loaded item means untouched block-mates are
    protected for the rest of the phase, so on traces without spatial
    locality the effective cache size shrinks by up to a factor of [B]
    (same failure mode as the Block Cache in Theorem 3).  {!gcm} fixes
    this by leaving spatial loads unmarked; the [randomized] bench section
    shows the difference.  [k >= B]. *)

val gcm :
  ?load_limit:int ->
  k:int ->
  blocks:Gc_trace.Block_map.t ->
  rng:Gc_trace.Rng.t ->
  unit ->
  Policy.t
(** Granularity-Change Marking (["gcm"], paper Section 6.1).

    A marking algorithm adapted to the GC model: on a miss the whole
    requested block is brought in, but only the requested item is marked.
    Spatially-loaded items therefore never displace items with demonstrated
    temporal locality — they fill free space and replace unmarked items
    only.  When fewer unmarked slots than block items are available, the
    unmarked cache contents are replaced by randomly selected items of the
    accessed block (the paper's special case).  [k >= 1].

    [load_limit] caps how many items (including the requested one) a miss
    may bring in; default is the block size.  Section 6.1 notes "there may
    be value in a policy that loads some but not all of the items in the
    accessed block" — this parameter makes that family concrete (the
    [randomized] bench sweeps it, and ["gcm:m"] names it). *)
