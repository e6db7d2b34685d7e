(** Partition of the item universe into blocks.

    The Granularity-Change model (Definition 1 of the paper) partitions data
    items into disjoint blocks of at most [B] items.  On a miss, a cache may
    load any subset of the missed item's block for unit cost.

    Two representations are supported:
    - {e uniform}: item [i] belongs to block [i / B]; the universe is
      unbounded.  This is the common case (cache lines within DRAM rows,
      pages within erase blocks, ...).
    - {e explicit}: an arbitrary disjoint partition given block by block,
      used e.g. by the NP-completeness reduction, whose "active sets" have
      heterogeneous sizes. *)

type t

val uniform : block_size:int -> t
(** [uniform ~block_size:b] maps item [i] to block [i / b].  [b >= 1]. *)

val singleton : t
(** [singleton] is [uniform ~block_size:1]: the traditional caching model,
    where every item is its own block. *)

val of_blocks : int array list -> t
(** [of_blocks bs] builds an explicit partition where the [j]-th array lists
    the items of block [j].  Raises [Invalid_argument] if any item appears
    twice or any block is empty.  An item not listed is alone in a block of
    its own, whose id depends only on the item: [List.length bs + item], or
    [item] if it is negative.  The map never changes after it is built,
    so queries on it may run in parallel. *)

val block_size : t -> int
(** Upper bound [B] on the number of items per block. *)

val block_of : t -> int -> int
(** [block_of t item] is the id of the block containing [item]. *)

val items_of : t -> int -> int array
(** [items_of t block] lists the items of [block] in ascending order.
    For uniform maps this is the contiguous range of [B] items. *)

val same_block : t -> int -> int -> bool
(** Whether two items share a block. *)

val is_uniform : t -> bool

val pp : Format.formatter -> t -> unit
