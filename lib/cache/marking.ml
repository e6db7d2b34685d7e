(* The three marking policies share one phase core: a request marks its
   item, a victim is a random unmarked item, and a phase ends only to make
   room for the demand item.  They differ in what else a miss loads. *)
type rule =
  | Item  (* the demand item only *)
  | Block of Gc_trace.Block_map.t  (* and its block-mates, marked *)
  | Gcm of { blocks : Gc_trace.Block_map.t; load_limit : int }
      (* and up to [load_limit - 1] random block-mates, unmarked *)

module Phase = struct
  type t = {
    k : int;
    rng : Gc_trace.Rng.t;
    marked : Index_set.t;
    unmarked : Index_set.t;
    rule : rule;
  }

  let k t = t.k
  let mem t x = Index_set.mem t.marked x || Index_set.mem t.unmarked x
  let occupancy t = Index_set.size t.marked + Index_set.size t.unmarked

  let new_phase t =
    Index_set.iter (fun x -> Index_set.add t.unmarked x) t.marked;
    Index_set.clear t.marked

  let evict_random_unmarked t =
    let v = Index_set.random t.unmarked t.rng in
    Index_set.remove t.unmarked v;
    v

  (* Block marking: load and MARK the rest of the block (the design flaw
     Section 6 points out: marked block-mates occupy protected space for the
     rest of the phase even if never referenced).  Extras fill free space or
     displace unmarked items; they never force a phase reset.  Victims are
     unmarked while loads are marked, so a load is never evicted within the
     same miss. *)
  let load_marked t blocks x evicted =
    let loaded = ref [ x ] and evicted = ref evicted in
    Gc_trace.Block_map.items_of blocks (Gc_trace.Block_map.block_of blocks x)
    |> Array.iter (fun y ->
           if (not (mem t y)) && not (List.mem y !evicted) then
             if occupancy t < t.k then begin
               Index_set.add t.marked y;
               loaded := y :: !loaded
             end
             else if Index_set.size t.unmarked > 0 then begin
               evicted := evict_random_unmarked t :: !evicted;
               Index_set.add t.marked y;
               loaded := y :: !loaded
             end);
    Policy.Miss { loaded = !loaded; evicted = !evicted }

  (* A random unmarked victim outside block [blk]; [None] when every
     unmarked item belongs to [blk] (replacing block items with other items
     of the same block would be pointless churn). *)
  let victim_outside_block t blocks blk =
    let outside v = Gc_trace.Block_map.block_of blocks v <> blk in
    let rec try_sample n =
      if n = 0 then
        (* Fall back to a scan so we never miss an existing victim. *)
        List.find_opt outside (Index_set.to_list t.unmarked)
      else
        let v = Index_set.random t.unmarked t.rng in
        if outside v then Some v else try_sample (n - 1)
    in
    if Index_set.size t.unmarked = 0 then None else try_sample 8

  (* GCM: spatial loads are the rest of the block, randomly ordered,
     unmarked.  They consume free space first, then replace unmarked items
     from other blocks; marked items are never displaced for them.  The
     victim just evicted for [x] is excluded — re-loading it in the same
     miss would be pure churn. *)
  let load_unmarked t blocks ~load_limit x evicted =
    let loaded = ref [ x ] and evicted = ref evicted in
    let blk = Gc_trace.Block_map.block_of blocks x in
    let extras =
      Gc_trace.Block_map.items_of blocks blk
      |> Array.to_seq
      |> Seq.filter (fun y ->
             y <> x && (not (mem t y)) && not (List.mem y !evicted))
      |> Array.of_seq
    in
    Gc_trace.Rng.shuffle t.rng extras;
    (* At most [load_limit - 1] extras; stop at the first that finds no
       room. *)
    let n = min (Array.length extras) (load_limit - 1) in
    let rec fill i =
      if i < n then begin
        let y = extras.(i) in
        if occupancy t < t.k then begin
          Index_set.add t.unmarked y;
          loaded := y :: !loaded;
          fill (i + 1)
        end
        else
          match victim_outside_block t blocks blk with
          | Some v ->
              Index_set.remove t.unmarked v;
              evicted := v :: !evicted;
              Index_set.add t.unmarked y;
              loaded := y :: !loaded;
              fill (i + 1)
          | None -> ()
      end
    in
    fill 0;
    Policy.Miss { loaded = !loaded; evicted = !evicted }

  let access t x =
    if mem t x then begin
      Index_set.remove t.unmarked x;
      Index_set.add t.marked x;
      Policy.Hit { evicted = [] }
    end
    else begin
      (* Room for the demand item: the only step allowed to start a new
         phase. *)
      let evicted =
        if occupancy t >= t.k then begin
          if Index_set.size t.unmarked = 0 then new_phase t;
          [ evict_random_unmarked t ]
        end
        else []
      in
      Index_set.add t.marked x;
      match t.rule with
      | Item -> Policy.Miss { loaded = [ x ]; evicted }
      | Block blocks -> load_marked t blocks x evicted
      | Gcm { blocks; load_limit } ->
          load_unmarked t blocks ~load_limit x evicted
    end
end

module Item_marking = struct
  include Phase

  let name = "marking"
end

module Block_marking = struct
  include Phase

  let name = "block-marking"
end

module Gcm = struct
  include Phase

  let name = "gcm"
end

let state ~k ~rng rule =
  {
    Phase.k;
    rng;
    marked = Index_set.create ();
    unmarked = Index_set.create ();
    rule;
  }

let create ~k ~rng =
  if k < 1 then invalid_arg "Marking.create: k must be >= 1";
  Policy.Instance ((module Item_marking), state ~k ~rng Item)

let block ~k ~blocks ~rng =
  if k < Gc_trace.Block_map.block_size blocks then
    invalid_arg "Marking.block: k smaller than block size";
  Policy.Instance ((module Block_marking), state ~k ~rng (Block blocks))

let gcm ?load_limit ~k ~blocks ~rng () =
  if k < 1 then invalid_arg "Marking.gcm: k must be >= 1";
  let load_limit =
    match load_limit with
    | None -> Gc_trace.Block_map.block_size blocks
    | Some m ->
        if m < 1 then invalid_arg "Marking.gcm: load_limit must be >= 1";
        m
  in
  Policy.Instance ((module Gcm), state ~k ~rng (Gcm { blocks; load_limit }))
