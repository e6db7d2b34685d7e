(** Item-Block Layered Partitioning — the paper's policy (Section 5).

    The cache space [k = i + b] is split into two layers (Figure 4):
    - the {e item layer} (size [i]) serves every access, loads only the
      requested item, and evicts with LRU over items;
    - the {e block layer} (size [b]) serves only accesses that miss in the
      item layer, and loads/evicts whole blocks with LRU over blocks.

    Two deliberate subtleties from the paper:
    - an access that hits in the item layer does {e not} reorder the block
      layer's LRU list (otherwise blocks with a few hot items would pollute
      the block layer);
    - the block layer is neither inclusive nor exclusive of the item layer:
      an item may occupy space in both layers at once.

    Theorem 7 bounds its competitive ratio; [Gc_bounds.Iblp_upper] has the
    closed forms and [Gc_bounds.Partitioning] the optimal [i]/[b] split.

    {!create} fixes the split; {!adaptive} steers it online.  Both run the
    same layers, so they differ only in how the item budget is set. *)

val create :
  ?reorder_on_item_hit:bool ->
  i:int ->
  b:int ->
  blocks:Gc_trace.Block_map.t ->
  unit ->
  Policy.t
(** [i >= 0] item-layer slots, [b >= 0] block-layer slots (the block layer
    holds [b / B] whole blocks).  [i + b >= 1].  If [b < B] the block layer
    is inert and the policy degenerates to item LRU of size [i].

    [reorder_on_item_hit] (default [false]) is an ablation switch: when
    true, item-layer hits also refresh the block layer's recency — the
    design the paper rejects because hot items then pin their mostly-unused
    blocks, shrinking the block layer's effective space (see the [ablation]
    bench section). *)

val adaptive :
  ?on_repartition:(item_budget:int -> block_budget:int -> unit) ->
  k:int ->
  blocks:Gc_trace.Block_map.t ->
  unit ->
  Policy.t
(** Adaptive IBLP (["iblp-adaptive"]): layer sizes steered online by
    ghost-list feedback.

    Section 5.3 shows the best item/block split depends on the (unknown)
    offline comparison size, and Figure 6 shows how a fixed split degrades
    off its design point.  This extension sidesteps the choice the way ARC
    sidesteps the recency/frequency balance: both layers keep ghost lists
    of recently evicted entries, and a miss that would have hit a ghost
    shifts budget toward the layer that regretted the eviction — an
    item-layer ghost hit grows the item layer by one block-worth of space,
    a block-layer ghost hit grows the block layer.  This goes beyond the
    paper (which leaves the unknown-h case open); the [adaptive] bench
    section compares it against the best and worst fixed splits across
    workload phases.

    Requires [k >= 2 * block size] (each layer must be able to hold
    something).  The split starts balanced and moves in steps of [B].
    [on_repartition] fires whenever ghost feedback actually changes the
    split — {!Obs_run} turns it into {!Gc_obs.Event.Repartition}
    events. *)
