(* The three offline policies share one engine: a cursor over the trace,
   resident units (an item, or a whole block under block MIN) each with
   its next use, and a lazy max-heap that names the unit needed furthest
   in the future.  They differ only in what a miss loads. *)
type rule =
  | Item  (* the requested item *)
  | Block  (* the requested item's whole block, judged as one unit *)
  | Clairvoyant  (* the item, then block-mates needed sooner than the victim *)

module Engine = struct
  type t = {
    k : int;
    trace : Gc_trace.Trace.t;
    rule : rule;
    nu : Next_use.t;  (* over the trace's units *)
    mutable pos : int;
    next : (int, int) Hashtbl.t;  (* resident unit -> its next use *)
    heap : Lazy_max_heap.t;
    mutable occ : int;  (* items held *)
  }

  let k t = t.k
  let blocks t = t.trace.Gc_trace.Trace.blocks

  let unit_of t x =
    match t.rule with
    | Block -> Gc_trace.Block_map.block_of (blocks t) x
    | Item | Clairvoyant -> x

  let items t u =
    match t.rule with
    | Block -> Gc_trace.Block_map.items_of (blocks t) u
    | Item | Clairvoyant -> [| u |]

  let mem t x = Hashtbl.mem t.next (unit_of t x)
  let occupancy t = t.occ

  let set_next t u nxt =
    Hashtbl.replace t.next u nxt;
    Lazy_max_heap.push t.heap ~prio:nxt ~item:u

  let enter t u ~width nxt =
    t.occ <- t.occ + width;
    set_next t u nxt

  (* Removes resident unit [u]; its items go in front of [evicted]. *)
  let evict t u evicted =
    Hashtbl.remove t.next u;
    let items = items t u in
    t.occ <- t.occ - Array.length items;
    Array.to_list items @ evicted

  (* Pops the resident unit needed furthest in the future other than
     [keep], whose own entry, if popped, goes back on the heap. *)
  let rec furthest t ~keep =
    let is_current ~prio ~item = Hashtbl.find_opt t.next item = Some prio in
    match Lazy_max_heap.pop_valid t.heap ~is_valid:is_current with
    | Some (prio, u) when u = keep ->
        let top = furthest t ~keep in
        Lazy_max_heap.push t.heap ~prio ~item:u;
        top
    | top -> top

  (* Clairvoyant spatial loads: uncached block-mates of [x] with a future
     use, nearest first, each taken only while it is needed sooner than
     the would-be victim. *)
  let side_load t x loaded evicted =
    let blocks = blocks t in
    let candidates =
      Gc_trace.Block_map.items_of blocks (Gc_trace.Block_map.block_of blocks x)
      |> Array.to_list
      |> List.filter_map (fun y ->
             if mem t y then None
             else
               let nxt = Next_use.after t.nu ~pos:(t.pos + 1) ~item:y in
               if nxt = Next_use.never then None else Some (nxt, y))
      |> List.sort compare
    in
    let rec take loaded evicted = function
      | (nxt, y) :: rest when t.occ < t.k ->
          enter t y ~width:1 nxt;
          take (y :: loaded) evicted rest
      | (nxt, y) :: rest -> (
          match furthest t ~keep:x with
          | Some (victim_nu, v) when victim_nu > nxt ->
              let evicted = evict t v evicted in
              enter t y ~width:1 nxt;
              take (y :: loaded) evicted rest
          | Some (victim_nu, v) ->
              (* Not worth displacing, and later candidates are needed
                 even later: put the victim back and stop. *)
              Lazy_max_heap.push t.heap ~prio:victim_nu ~item:v;
              Gc_cache.Policy.Miss { loaded; evicted }
          | None -> Gc_cache.Policy.Miss { loaded; evicted })
      | [] -> Gc_cache.Policy.Miss { loaded; evicted }
    in
    take loaded evicted candidates

  let access t x =
    if t.pos >= Gc_trace.Trace.length t.trace then
      invalid_arg "Belady: driven past the end of its trace";
    if Gc_trace.Trace.get t.trace t.pos <> x then
      invalid_arg "Belady: request does not match the trace";
    let u = unit_of t x in
    let nxt = Next_use.at t.nu t.pos in
    let outcome =
      if Hashtbl.mem t.next u then begin
        set_next t u nxt;
        Gc_cache.Policy.Hit { evicted = [] }
      end
      else begin
        let incoming = items t u in
        let evicted = ref [] in
        while t.occ + Array.length incoming > t.k do
          match furthest t ~keep:u with
          | Some (_, v) -> evicted := evict t v !evicted
          | None -> assert false
        done;
        enter t u ~width:(Array.length incoming) nxt;
        let loaded = Array.to_list incoming in
        match t.rule with
        | Item | Block -> Gc_cache.Policy.Miss { loaded; evicted = !evicted }
        | Clairvoyant -> side_load t x loaded !evicted
      end
    in
    t.pos <- t.pos + 1;
    outcome
end

module Min = struct
  include Engine

  let name = "belady"
end

module Block_min = struct
  include Engine

  let name = "block-belady"
end

module Clairvoyant_gc = struct
  include Engine

  let name = "clairvoyant"
end

let state ~k trace rule =
  let units =
    match rule with
    | Block ->
        let blocks = trace.Gc_trace.Trace.blocks in
        Gc_trace.Trace.make Gc_trace.Block_map.singleton
          (Array.map (Gc_trace.Block_map.block_of blocks) trace.Gc_trace.Trace.requests)
    | Item | Clairvoyant -> trace
  in
  {
    Engine.k;
    trace;
    rule;
    nu = Next_use.of_trace units;
    pos = 0;
    next = Hashtbl.create 256;
    heap = Lazy_max_heap.create ();
    occ = 0;
  }

let create ~k trace =
  if k < 1 then invalid_arg "Belady.create: k must be >= 1";
  Gc_cache.Policy.Instance ((module Min), state ~k trace Item)

let block ~k trace =
  if k < Gc_trace.Block_map.block_size trace.Gc_trace.Trace.blocks then
    invalid_arg "Belady.block: k smaller than block size";
  Gc_cache.Policy.Instance ((module Block_min), state ~k trace Block)

let clairvoyant ~k trace =
  if k < 1 then invalid_arg "Belady.clairvoyant: k must be >= 1";
  Gc_cache.Policy.Instance ((module Clairvoyant_gc), state ~k trace Clairvoyant)

let cost make ~k trace =
  (Gc_cache.Simulator.run (make ~k trace) trace).Gc_cache.Metrics.misses
