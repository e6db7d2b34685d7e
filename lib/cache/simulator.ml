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

module Sparse = Hashtbl.Make (Int)

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

let get st item =
  if item >= 0 && item < Bytes.length st.dense then Char.code (Bytes.unsafe_get st.dense item)
  else match Sparse.find st.sparse item with v -> v | exception Not_found -> 0

let rec next_pow2 n p = if p >= n then p else next_pow2 n (2 * p)

(* Moves every sparse id below the new length into the bytes. *)
let grow st item =
  let dense = Bytes.make (next_pow2 (item + 1) (max 64 (2 * Bytes.length st.dense))) '\000' in
  Bytes.blit st.dense 0 dense 0 (Bytes.length st.dense);
  Sparse.filter_map_inplace
    (fun id v ->
      if id < Bytes.length dense then begin
        Bytes.unsafe_set dense id (Char.unsafe_chr v);
        st.dense_items <- st.dense_items + 1;
        None
      end
      else Some v)
    st.sparse;
  st.dense <- dense

let set st item v =
  if item >= 0 && item >= Bytes.length st.dense
     && item < max min_dense (dense_slack * (st.dense_items + Sparse.length st.sparse + 1))
  then grow st item;
  if item >= 0 && item < Bytes.length st.dense then begin
    if Bytes.unsafe_get st.dense item = '\000' then st.dense_items <- st.dense_items + 1;
    Bytes.unsafe_set st.dense item (Char.unsafe_chr (v lor known))
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
   access. *)
let rec uncache st = function
  | [] -> ()
  | x :: rest ->
      let v = get st x in
      if v land cached <> 0 then set st x (v land lnot cached);
      uncache st rest

let rec load st = function
  | [] -> ()
  | x :: rest ->
      set st x (get st x land lnot cached lor loaded_unreferenced);
      load st rest

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

let access d item =
  let m = d.metrics_ in
  let st = d.state in
  let index = m.Metrics.accesses in
  m.Metrics.accesses <- index + 1;
  (match d.progress with
  | Some f when index land (progress_stride - 1) = 0 -> f index
  | _ -> ());
  (* Event construction stays inside the [Some] branches: a probe-less run
     allocates nothing and pays one branch per emission point. *)
  (match d.probe with
  | Some emit -> emit (Gc_obs.Event.Access { index; item })
  | None -> ());
  let before = get st item in
  let outcome = Policy.access d.policy_ item in
  (match outcome with
  | Policy.Hit { evicted } ->
      m.Metrics.hits <- m.Metrics.hits + 1;
      let spatial = before land cached = loaded_unreferenced in
      if spatial then m.Metrics.spatial_hits <- m.Metrics.spatial_hits + 1
      else begin
        if d.check && before land cached = 0 then
          violation "policy reported a hit on uncached item %d" item;
        m.Metrics.temporal_hits <- m.Metrics.temporal_hits + 1
      end;
      if d.check then check_evicted d item "hit" evicted;
      m.Metrics.evictions <- m.Metrics.evictions + List.length evicted;
      uncache st evicted;
      set st item (get st item lor seen land lnot cached lor referenced);
      (match d.probe with
      | Some emit ->
          let kind = if spatial then Gc_obs.Event.Spatial else Gc_obs.Event.Temporal in
          emit (Gc_obs.Event.Hit { index; item; kind; evicted });
          emit_evicts emit index evicted
      | None -> ())
  | Policy.Miss { loaded; evicted } ->
      if d.check then check_miss d item ~loaded ~evicted;
      let cold = before land seen = 0 in
      m.Metrics.misses <- m.Metrics.misses + 1;
      if cold then m.Metrics.cold_misses <- m.Metrics.cold_misses + 1;
      m.Metrics.items_loaded <- m.Metrics.items_loaded + List.length loaded;
      m.Metrics.evictions <- m.Metrics.evictions + List.length evicted;
      uncache st evicted;
      load st loaded;
      set st item (get st item lor seen land lnot cached lor referenced);
      (match d.probe with
      | Some emit ->
          emit (Gc_obs.Event.Miss { index; item; cold; loaded; evicted });
          emit
            (Gc_obs.Event.Load
               {
                 index;
                 block = Gc_trace.Block_map.block_of d.blocks item;
                 width = List.length loaded;
               });
          emit_evicts emit index evicted
      | None -> ()));
  if d.check then begin
    if not (Policy.mem d.policy_ item) then
      violation "after access, requested item %d is not cached" item;
    let occ = Policy.occupancy d.policy_ in
    let k = Policy.k d.policy_ in
    if occ > k then violation "occupancy %d exceeds k=%d" occ k
  end;
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
