exception Model_violation of string

let violation fmt = Format.kasprintf (fun s -> raise (Model_violation s)) fmt

(* Progress callbacks fire every [progress_stride] accesses (and on access
   0): frequent enough that cooperative cancellation reacts in well under a
   millisecond of simulation, rare enough to cost one masked branch per
   access. *)
let progress_stride = 4096

(* One byte of shadow state per item.  [cached] is absent (0),
   [loaded_unreferenced] or [referenced]; [seen] records a past request;
   [known] is set with the first state an item gets and never cleared, so
   the dense part can count distinct items; [mark] exists only inside
   [check_miss], to find loads listed twice. *)
let seen = 1
let loaded_unreferenced = 2
let referenced = 4
let cached = loaded_unreferenced lor referenced
let mark = 8
let known = 16

module Sparse = Int_table

(* Bytes indexed by item id hold the state of every id below their length;
   ids too sparse for that live in [sparse].  The bytes grow, by doubling,
   only while their length stays within [dense_slack] times the number of
   distinct items (and at least [min_dense]), so memory stays proportional
   to the distinct items however far apart their ids are. *)
type state = {
  mutable dense : Bytes.t;
  mutable dense_items : int;
  sparse : int Sparse.t;
}

let min_dense = 1 lsl 16
let dense_slack = 16

(* [0 <= item < Bytes.length dense] in one comparison: flipping the sign
   bit of both sides compares them as unsigned, where a negative id is
   larger than any length. *)
let[@inline] in_dense dense item = item lxor min_int < Bytes.length dense lxor min_int

let get_sparse st item = match Sparse.find st.sparse item with v -> v | exception Not_found -> 0

let[@inline] get st item =
  let dense = st.dense in
  if in_dense dense item then Char.code (Bytes.unsafe_get dense item) else get_sparse st item

let rec next_pow2 n p = if p >= n then p else next_pow2 n (2 * p)

(* Moves every sparse id the new length covers into the bytes; a
   negative id stays sparse. *)
let grow st item =
  let dense = Bytes.make (next_pow2 (item + 1) (max 64 (2 * Bytes.length st.dense))) '\000' in
  Bytes.blit st.dense 0 dense 0 (Bytes.length st.dense);
  Sparse.filter_map_inplace
    (fun id v ->
      if in_dense dense id then begin
        Bytes.unsafe_set dense id (Char.unsafe_chr v);
        st.dense_items <- st.dense_items + 1;
        None
      end
      else Some v)
    st.sparse;
  st.dense <- dense

(* An id the bytes hold is written after one bounds test; any other id
   first grows the bytes to cover it, if they may grow that far, or goes
   to [sparse]. *)
let rec set st item v =
  let dense = st.dense in
  if in_dense dense item then begin
    if Bytes.unsafe_get dense item = '\000' then st.dense_items <- st.dense_items + 1;
    Bytes.unsafe_set dense item (Char.unsafe_chr (v lor known))
  end
  else if
    item >= Bytes.length dense
    && item < max min_dense (dense_slack * (st.dense_items + Sparse.length st.sparse + 1))
  then begin
    grow st item;
    set st item v
  end
  else Sparse.replace st.sparse item (v lor known)

type t = {
  policy_ : Policy.t;
  check : bool;
  probe : (Gc_obs.Event.t -> unit) option;
  progress : (int -> unit) option;
  metrics_ : Metrics.t;
  blocks : Gc_trace.Block_map.t;
  (* Shadow cache built from the reported outcomes: the spatial/temporal
     hit classifier and, in check mode, the ground truth the outcomes are
     audited against. *)
  state : state;
}

let create ?(check = true) ?probe ?progress policy blocks =
  {
    policy_ = policy;
    check;
    probe;
    progress;
    metrics_ = Metrics.create ();
    blocks;
    state = { dense = Bytes.empty; dense_items = 0; sparse = Sparse.create 16 };
  }

let metrics d = d.metrics_
let policy d = d.policy_

(* Top-level loops over the outcome lists, so that no closure is built per
   access.  Each returns its list's length added to [n]. *)
let rec uncache st n = function
  | [] -> n
  | x :: rest ->
      let v = get st x in
      if v land cached <> 0 then set st x (v land lnot cached);
      uncache st (n + 1) rest

(* [item]'s own byte is left to [classify], which writes it once. *)
let rec load st item n = function
  | [] -> n
  | x :: rest ->
      if x <> item then set st x (get st x land lnot cached lor loaded_unreferenced);
      load st item (n + 1) rest

(* The bookkeeping of every access, audited or not: the eight counters
   and the shadow bytes, for one outcome of a request for [item] whose
   byte was [before].  The requested item's byte is written once, from
   [before]: loads and evictions touch only the [cached] bits, which that
   write overwrites. *)
let classify (m : Metrics.t) st item before outcome =
  (match outcome with
  | Policy.Hit { evicted } ->
      m.accesses <- m.accesses + 1;
      m.hits <- m.hits + 1;
      if before land cached = loaded_unreferenced then m.spatial_hits <- m.spatial_hits + 1
      else m.temporal_hits <- m.temporal_hits + 1;
      (match evicted with [] -> () | _ -> m.evictions <- uncache st m.evictions evicted)
  | Policy.Miss { loaded; evicted } ->
      m.accesses <- m.accesses + 1;
      m.misses <- m.misses + 1;
      if before land seen = 0 then m.cold_misses <- m.cold_misses + 1;
      m.evictions <- uncache st m.evictions evicted;
      m.items_loaded <- load st item m.items_loaded loaded);
  set st item (before lor seen land lnot cached lor referenced)

let rec emit_evicts emit index = function
  | [] -> ()
  | x :: rest ->
      emit (Gc_obs.Event.Evict { index; item = x });
      emit_evicts emit index rest

let rec unmark st = function
  | [] -> ()
  | x :: rest ->
      let v = get st x in
      if v land mark <> 0 then set st x (v land lnot mark);
      unmark st rest

(* Marks each loaded item, so a second listing or an eviction of it is
   seen without a set of its own. *)
let rec check_loaded d item blk = function
  | [] -> ()
  | x :: rest ->
      if Gc_trace.Block_map.block_of d.blocks x <> blk then
        violation "miss on %d: loaded %d from a different block" item x;
      let v = get d.state x in
      if v land mark <> 0 then violation "miss on %d: loaded %d twice" item x;
      set d.state x (v lor mark);
      if v land cached <> 0 then violation "miss on %d: loaded already-cached item %d" item x;
      check_loaded d item blk rest

(* [what] is "hit" or "miss".  Marks exist only while a miss is checked,
   and a missed item is uncached, so evicting it fails the first check:
   the second check can fire only on a hit, the third only on a miss. *)
let rec check_evicted d item what = function
  | [] -> ()
  | x :: rest ->
      let v = get d.state x in
      if v land cached = 0 then violation "%s on %d: evicted item %d was not cached" what item x;
      if x = item then violation "hit on %d: evicted the requested item" item;
      if v land mark <> 0 then violation "miss on %d: item %d both loaded and evicted" item x;
      if Policy.mem d.policy_ x then
        violation "%s on %d: evicted item %d still reported cached" what item x;
      check_evicted d item what rest

let check_miss d item ~loaded ~evicted =
  let blk = Gc_trace.Block_map.block_of d.blocks item in
  if get d.state item land cached <> 0 then violation "policy reported a miss on cached item %d" item;
  if not (List.mem item loaded) then
    violation "miss on %d: requested item not among loaded" item;
  match
    check_loaded d item blk loaded;
    check_evicted d item "miss" evicted
  with
  | () -> unmark d.state loaded
  | exception e ->
      unmark d.state loaded;
      raise e

(* Check mode, before [classify]: the outcome against the shadow. *)
let audit d item before = function
  | Policy.Hit { evicted } ->
      if before land cached = 0 then violation "policy reported a hit on uncached item %d" item;
      check_evicted d item "hit" evicted
  | Policy.Miss { loaded; evicted } -> check_miss d item ~loaded ~evicted

(* Check mode, after [classify]: the policy's own state. *)
let audit_after d item =
  if not (Policy.mem d.policy_ item) then
    violation "after access, requested item %d is not cached" item;
  let occ = Policy.occupancy d.policy_ in
  let k = Policy.k d.policy_ in
  if occ > k then violation "occupancy %d exceeds k=%d" occ k

let emit_outcome d emit index item before = function
  | Policy.Hit { evicted } ->
      let kind =
        if before land cached = loaded_unreferenced then Gc_obs.Event.Spatial
        else Gc_obs.Event.Temporal
      in
      emit (Gc_obs.Event.Hit { index; item; kind; evicted });
      emit_evicts emit index evicted
  | Policy.Miss { loaded; evicted } ->
      emit (Gc_obs.Event.Miss { index; item; cold = before land seen = 0; loaded; evicted });
      emit
        (Gc_obs.Event.Load
           { index; block = Gc_trace.Block_map.block_of d.blocks item; width = List.length loaded });
      emit_evicts emit index evicted

let access d item =
  let index = d.metrics_.Metrics.accesses in
  (match d.progress with
  | Some f when index land (progress_stride - 1) = 0 -> f index
  | _ -> ());
  (* Event construction stays inside the [Some] branches: a probe-less run
     allocates nothing and pays one branch per emission point. *)
  (match d.probe with
  | Some emit -> emit (Gc_obs.Event.Access { index; item })
  | None -> ());
  let before = get d.state item in
  let outcome = Policy.access d.policy_ item in
  if d.check then audit d item before outcome;
  classify d.metrics_ d.state item before outcome;
  (match d.probe with Some emit -> emit_outcome d emit index item before outcome | None -> ());
  if d.check then audit_after d item;
  outcome

let run_with ?check ?probe ?progress ~f policy trace =
  let d = create ?check ?probe ?progress policy trace.Gc_trace.Trace.blocks in
  let requests = trace.Gc_trace.Trace.requests in
  for pos = 0 to Array.length requests - 1 do
    let item = requests.(pos) in
    f pos item (access d item)
  done;
  d.metrics_

let run ?check ?probe ?progress policy trace =
  run_with ?check ?probe ?progress ~f:(fun _ _ _ -> ()) policy trace
